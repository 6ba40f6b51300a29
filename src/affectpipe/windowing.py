"""Fixed-length windows over tracks and window-level target reduction.

Windows are sliced either over the whole track or within voiced
segments taken from an externally supplied VAD mask. Expression labels
reduce to one majority label per whole second; valence/arousal targets
keep every frame of the window.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DataFormatError
from .timeline import (
    N_EXPR_CLASSES,
    FrameTrack,
    csv_row_format,
    id_runs,
    parse_rows,
    reject,
    row_check,
    video_rows,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WindowSpec:
    """Window and hop lengths in seconds at a given frame rate."""

    window_seconds: float
    hop_seconds: float
    fps: float

    def __post_init__(self) -> None:
        if self.window_seconds <= 0 or self.hop_seconds <= 0 or self.fps <= 0:
            raise ValueError("window_seconds, hop_seconds, and fps must be positive")
        if self.window_frames < 1 or self.hop_frames < 1:
            raise ValueError("window and hop must span at least one frame")

    @property
    def window_frames(self) -> int:
        return max(int(round(self.window_seconds * self.fps)), 0)

    @property
    def hop_frames(self) -> int:
        return max(int(round(self.hop_seconds * self.fps)), 0)


@dataclass(frozen=True)
class VadMask:
    """Per-frame voiced flags for one video, aligned with its track."""

    video_id: str
    voiced: np.ndarray

    def __post_init__(self) -> None:
        voiced = np.asarray(self.voiced, dtype=bool)
        if voiced.ndim != 1 or voiced.shape[0] < 1:
            raise ValueError("voiced must be a non-empty 1-d boolean array")
        voiced.setflags(write=False)
        object.__setattr__(self, "voiced", voiced)

    def __len__(self) -> int:
        return self.voiced.shape[0]


@dataclass
class WindowBatch:
    """Windows sliced from one video's track.

    payload has shape (n_windows, W, d); pad_mask is True where the row
    is a real frame and False where the segment's last frame was
    replicated to fill the window.
    """

    video_id: str
    starts: list[int]
    payload: np.ndarray
    pad_mask: np.ndarray
    window_frames: int
    hop_frames: int
    fps: float
    n_source_frames: int
    expr_targets: list[list[int]] | None = None
    va_targets: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.payload.ndim != 3:
            raise ValueError("payload must have shape (n_windows, W, d)")
        if self.payload.shape[1] != self.window_frames:
            raise ValueError("every payload window must have exactly W rows")
        if self.pad_mask.shape != self.payload.shape[:2]:
            raise ValueError("pad_mask must have shape (n_windows, W)")
        if list(self.starts) != sorted(set(self.starts)):
            raise ValueError("window starts must be strictly increasing")

    @property
    def n_windows(self) -> int:
        return self.payload.shape[0]

    def n_real_frames(self, i: int) -> int:
        return int(self.pad_mask[i].sum())


def voiced_segments(mask: VadMask) -> list[tuple[int, int]]:
    """Maximal runs of voiced frames as (start, end_exclusive) pairs."""
    v = mask.voiced
    if v.shape[0] == 0:
        raise ValueError("mask must be nonempty")
    padded = np.concatenate(([False], v, [False]))
    diff = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return list(zip(starts.tolist(), ends.tolist()))


def slice_windows(
    track: FrameTrack,
    spec: WindowSpec,
    segments: list[tuple[int, int]] | None = None,
) -> WindowBatch:
    """Slice a track into fixed-length windows.

    Within each segment, windows start at segment_start + k*H while the
    full window fits. A segment shorter than W still yields one window,
    padded by replicating its last frame, so no voiced frame is left
    without coverage. Zero-length segments are skipped.
    """
    if abs(spec.fps - track.fps) > 1e-9:
        raise AlignmentError(
            f"window spec fps {spec.fps} does not match track fps {track.fps}"
        )
    n = track.n_frames
    w, h = spec.window_frames, spec.hop_frames
    if segments is None:
        segments = [(0, n)]
    starts: list[int] = []
    windows: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for seg_start, seg_end in segments:
        if not (0 <= seg_start <= seg_end <= n):
            raise ValueError(f"segment ({seg_start}, {seg_end}) outside track of {n} frames")
        seg_len = seg_end - seg_start
        if seg_len == 0:
            continue
        if seg_len < w:
            rows = track.values[seg_start:seg_end]
            pad = np.repeat(rows[-1:], w - seg_len, axis=0)
            windows.append(np.concatenate([rows, pad], axis=0))
            mask = np.zeros(w, dtype=bool)
            mask[:seg_len] = True
            masks.append(mask)
            starts.append(seg_start)
            continue
        for start in range(seg_start, seg_end - w + 1, h):
            windows.append(track.values[start : start + w])
            masks.append(np.ones(w, dtype=bool))
            starts.append(start)
    payload = (
        np.stack(windows) if windows else np.empty((0, w, track.width), dtype=np.float64)
    )
    pad_mask = np.stack(masks) if masks else np.empty((0, w), dtype=bool)
    return WindowBatch(
        video_id=track.video_id,
        starts=starts,
        payload=payload,
        pad_mask=pad_mask,
        window_frames=w,
        hop_frames=h,
        fps=track.fps,
        n_source_frames=n,
    )


def _second_groups(w: int, fps: float) -> list[np.ndarray]:
    """Window row indices grouped into whole seconds.

    Rows are grouped by floor(j / fps), which is well defined for any
    rational fps and always yields floor((W-1)/fps) + 1 groups.
    """
    seconds = np.floor(np.arange(w) / fps).astype(np.int64)
    return [np.flatnonzero(seconds == s) for s in range(int(seconds[-1]) + 1)]


def _majority_label(labels: np.ndarray) -> int:
    """Most frequent label; ties break toward the smallest class index."""
    counts = np.bincount(labels, minlength=N_EXPR_CLASSES)
    return int(counts.argmax())


def reduce_expr_targets(label_track: FrameTrack, batch: WindowBatch) -> WindowBatch:
    """Reduce frame labels to one majority label per whole second.

    Padded frames are excluded from counting; a second consisting
    entirely of padded frames inherits the previous second's label.
    Fills batch.expr_targets in place and returns the batch.
    """
    _check_aligned(label_track, batch)
    labels = label_track.labels()
    groups = _second_groups(batch.window_frames, batch.fps)
    targets: list[list[int]] = []
    for i, start in enumerate(batch.starts):
        real = batch.pad_mask[i]
        per_second: list[int] = []
        for rows in groups:
            rows_real = rows[real[rows]]
            if rows_real.size == 0:
                # Tail second fully padded: padding replicates trailing
                # frames, so the previous second's label carries over.
                per_second.append(per_second[-1])
            else:
                per_second.append(_majority_label(labels[start + rows_real]))
        targets.append(per_second)
    batch.expr_targets = targets
    return batch


def reduce_va_targets(va_track: FrameTrack, batch: WindowBatch) -> WindowBatch:
    """Attach the W x 2 valence/arousal slice for every window.

    Padded rows replicate the segment's last real frame, mirroring the
    payload padding. Fills batch.va_targets in place and returns the
    batch.
    """
    _check_aligned(va_track, batch)
    if va_track.kind != "va":
        raise ValueError(f"expected a va track, got kind={va_track.kind!r}")
    w = batch.window_frames
    targets = np.empty((batch.n_windows, w, 2), dtype=np.float64)
    for i, start in enumerate(batch.starts):
        n_real = batch.n_real_frames(i)
        rows = va_track.values[start : start + n_real]
        if n_real < w:
            rows = np.concatenate([rows, np.repeat(rows[-1:], w - n_real, axis=0)])
        targets[i] = rows
    batch.va_targets = targets
    return batch


def window_labels(label_track: FrameTrack, batch: WindowBatch) -> np.ndarray:
    """One majority label per window over its real frames.

    This is the window-level training target for classifiers that emit
    a single prediction per window; ties break toward the smallest
    class index, like the per-second reduction.
    """
    _check_aligned(label_track, batch)
    labels = label_track.labels()
    out = np.empty(batch.n_windows, dtype=np.int64)
    for i, start in enumerate(batch.starts):
        n_real = batch.n_real_frames(i)
        out[i] = _majority_label(labels[start : start + n_real])
    return out


def window_va_means(va_track: FrameTrack, batch: WindowBatch) -> np.ndarray:
    """Mean valence/arousal per window over its real frames."""
    _check_aligned(va_track, batch)
    out = np.empty((batch.n_windows, 2), dtype=np.float64)
    for i, start in enumerate(batch.starts):
        n_real = batch.n_real_frames(i)
        out[i] = va_track.values[start : start + n_real].mean(axis=0)
    return out


def _check_aligned(track: FrameTrack, batch: WindowBatch) -> None:
    if abs(track.fps - batch.fps) > 1e-9:
        raise AlignmentError(
            f"target track fps {track.fps} does not match batch fps {batch.fps} "
            f"for video {batch.video_id!r}"
        )
    if track.video_id != batch.video_id:
        raise AlignmentError(
            f"target track video {track.video_id!r} does not match batch video "
            f"{batch.video_id!r}"
        )
    if track.n_frames != batch.n_source_frames:
        raise AlignmentError(
            f"target track for {batch.video_id!r} has {track.n_frames} frames, "
            f"but windows were cut from {batch.n_source_frames}"
        )


# ---------------------------------------------------------------------------
# VAD CSV: video_id,frame,voiced with voiced in {0,1}.
# Label CSV: video_id,frame,label (0..7) or video_id,frame,valence,arousal;
# rows outside the valid ranges are dropped at ingestion with a logged count.
# ---------------------------------------------------------------------------


def write_vad_csv(path: str | Path, masks: list[VadMask]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "frame", "voiced"])
        for mask in sorted(masks, key=lambda m: m.video_id):
            for i, flag in enumerate(mask.voiced):
                writer.writerow([mask.video_id, str(i), "1" if flag else "0"])


def read_vad_csv(path: str | Path) -> dict[str, VadMask]:
    """One mask per video; its frames follow read_track_csv's rule."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != ["video_id", "frame", "voiced"]:
            raise DataFormatError(f"{path}: expected header video_id,frame,voiced")
        check = row_check(path, _vad_fields)
        ids, frames, flags = parse_rows(path, fh, object, check)
    voiced = flags == "1"
    if not (voiced | (flags == "0")).all():
        reject(path, check, "voiced must be 0 or 1")
    return {
        vid: VadMask(vid, voiced[rows])
        for vid, rows in video_rows(path, ids, frames, check).items()
    }


def _vad_fields(row: list[str]) -> None:
    if len(row) != 3 or row[2] not in ("0", "1"):
        raise ValueError("voiced must be 0 or 1")


def _label_header(task: str) -> list[str]:
    if task == "expr":
        return ["video_id", "frame", "label"]
    if task == "va":
        return ["video_id", "frame", "valence", "arousal"]
    raise ValueError(f"unknown task {task!r}")


def valid_label_rows(values: np.ndarray, task: str) -> np.ndarray:
    """Which rows of an (n, width) label array hold a valid label for the task.

    va: valence and arousal both in [-1, 1], so a non-finite value fails;
    expr: an integer label in 0..7.
    """
    if task == "va":
        return ((values >= -1.0) & (values <= 1.0)).all(axis=1)
    label = values[:, 0]
    in_range = (label >= 0) & (label <= N_EXPR_CLASSES - 1)
    return in_range & (label == np.floor(label))


def read_label_csv(path: str | Path, task: str) -> dict[str, dict[int, np.ndarray]]:
    """Read ground-truth labels keyed by video and frame.

    task='expr' expects a `label` column holding an integer in 0..7;
    task='va' expects `valence,arousal` in [-1, 1]. Rows outside those
    ranges, non-finite values included, are dropped and counted in one
    log line. Videos and frames keep their order of first appearance; a
    repeated (video, frame) takes the values of its last valid row.
    Frames need not be contiguous; use :func:`labels_to_track` to build
    an aligned FrameTrack. The returned rows are read-only views of one
    array. A row with the wrong field count or a non-numeric frame or
    value raises DataFormatError naming its line.
    """
    path = Path(path)
    expected = _label_header(task)
    with path.open("r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != expected:
            raise DataFormatError(f"{path}: expected header {','.join(expected)}")
        check = _label_row_check(path, len(expected))
        ids, frames, values = parse_rows(
            path, fh, (np.float64, (len(expected) - 2,)), check
        )
    runs = id_runs(ids)
    # the parsed table and its id strings go before the row dicts are built
    values = values.copy()
    values.setflags(write=False)
    del ids
    frames = frames.tolist()
    valid = valid_label_rows(values, task)
    keep = valid.tolist()
    out: dict[str, dict[int, np.ndarray]] = {}
    for vid, start, end in runs:
        rows = zip(frames[start:end], values[start:end])
        kept = dict(compress(rows, keep[start:end]))
        if kept:
            out.setdefault(vid, {}).update(kept)
    dropped = len(frames) - int(valid.sum())
    if dropped:
        log.info("dropped %d invalid rows while reading %s", dropped, path)
    if not out:
        raise DataFormatError(f"{path}: no valid data rows")
    return out


def _label_row_check(path: Path, n_fields: int):
    def check(row: list[str], lineno: int) -> None:
        if len(row) != n_fields:
            raise DataFormatError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(row)}"
            )
        try:
            [float(v) for v in row[2:]]
            int(row[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None

    return check


def labels_to_track(
    video_id: str, frames: dict[int, np.ndarray], fps: float, task: str
) -> FrameTrack:
    """Build a contiguous FrameTrack from keyed label rows."""
    keys = sorted(frames)
    if keys != list(range(keys[0], keys[0] + len(keys))):
        a, b = next((a, b) for a, b in zip(keys, keys[1:]) if b != a + 1)
        raise AlignmentError(
            f"labels for {video_id!r} are not contiguous (first gap {a} -> {b}; "
            "invalid label rows are dropped on read); cannot form a track"
        )
    values = np.stack([frames[k] for k in keys])
    kind = "label" if task == "expr" else "va"
    return FrameTrack(
        video_id=video_id,
        fps=fps,
        values=values,
        kind=kind,
        frame_index_origin=keys[0],
    )


def write_label_csv(
    path: str | Path, rows: dict[str, dict[int, np.ndarray]], task: str
) -> None:
    """Write keyed label/prediction rows in the ground-truth format.

    Rows go out sorted by video and frame; valence/arousal as "%.17g",
    which round-trips float64, and labels truncated to int.
    """
    path = Path(path)
    header = _label_header(task)
    n_values = len(header) - 2
    row_fmt = ",%s,%d\n" if task == "expr" else ",%s,%.17g,%.17g\n"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for vid in sorted(rows):
            frames = rows[vid]
            keys = sorted(frames)
            if not keys:
                continue
            table = np.array([frames[k] for k in keys])[:, :n_values].tolist()
            fmt = csv_row_format(vid, row_fmt)
            fh.write("".join([fmt % (k, *v) for k, v in zip(keys, table)]))
