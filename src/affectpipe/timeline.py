"""Frame tracks and the prediction post-processing stage.

A :class:`FrameTrack` is a regularly sampled sequence of fixed-width
vectors for one video: embeddings, class scores, valence/arousal pairs,
or integer labels. The operations here cover rate reduction by
nearest-frame selection, linear interpolation onto a target timeline,
and Hamming-window smoothing. All of them are pure functions; tracks
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

from .errors import AlignmentError, DataFormatError

TRACK_KINDS = ("embedding", "class_scores", "va", "label")

N_EXPR_CLASSES = 8


@dataclass(frozen=True)
class FrameTrack:
    """Per-video sequence of fixed-width vectors at a constant frame rate.

    Parameters
    ----------
    video_id : str
        Identifier of the source video.
    fps : float
        Frames per second, > 0.
    values : np.ndarray
        Array of shape (n_frames, width), converted to float64 and
        frozen read-only.
    kind : str
        One of ``embedding``, ``class_scores``, ``va``, ``label``.
    frame_index_origin : int
        Source index of the first row. Operations that build a new
        frame grid (resampling, interpolation) reset it to 0.
    """

    video_id: str
    fps: float
    values: np.ndarray
    kind: str = "embedding"
    frame_index_origin: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(
                f"track values must be a non-empty 2-d array, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(f"track {self.video_id!r} contains non-finite values")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.kind not in TRACK_KINDS:
            raise ValueError(f"unknown track kind {self.kind!r}")
        if self.kind == "va":
            if values.shape[1] != 2:
                raise ValueError("va tracks must have width 2 (valence, arousal)")
            if values.min() < -1.0 or values.max() > 1.0:
                raise ValueError("va values must lie in [-1, 1]")
        if self.kind == "label":
            if values.shape[1] != 1:
                raise ValueError("label tracks must have width 1")
            if not np.array_equal(values, np.round(values)):
                raise ValueError("label tracks must hold integer values")
            if values.min() < 0 or values.max() > N_EXPR_CLASSES - 1:
                raise ValueError(
                    f"labels must lie in [0, {N_EXPR_CLASSES - 1}]; "
                    "drop invalid frames before constructing the track"
                )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "fps", float(self.fps))

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def timestamps(self) -> np.ndarray:
        """Frame timestamps in seconds, starting at 0."""
        return np.arange(self.n_frames, dtype=np.float64) / self.fps

    def labels(self) -> np.ndarray:
        """Integer label vector; only valid for kind='label'."""
        if self.kind != "label":
            raise ValueError(f"labels() requires kind='label', got {self.kind!r}")
        return self.values[:, 0].astype(np.int64)


@dataclass(frozen=True)
class SmoothingSpec:
    """Hamming smoothing settings; window length defaults to 0.5 s."""

    window_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")

    def window_frames(self, fps: float) -> int:
        """Window length in frames: round(seconds * fps), forced odd, >= 1."""
        n = int(round(self.window_seconds * fps))
        if n % 2 == 0:
            n += 1
        return max(n, 1)


def resample_track(track: FrameTrack, target_fps: float) -> FrameTrack:
    """Reduce the frame rate by nearest-timestamp frame selection.

    Output frame t carries the source row whose timestamp is nearest to
    t / target_fps, with ties resolved toward the earlier frame. The
    output covers the source span: its last timestamp never exceeds the
    last source timestamp. Frames are selected, never averaged, so the
    operation is valid for label tracks as well.
    """
    if target_fps <= 0:
        raise ValueError("target_fps must be positive")
    if target_fps > track.fps:
        raise ValueError("upsampling not supported here; use interpolate_to")
    n = track.n_frames
    n_out = int(np.floor((n - 1) * target_fps / track.fps)) + 1
    # Position of each output timestamp in source-frame units.
    x = np.arange(n_out, dtype=np.float64) * (track.fps / target_fps)
    lo = np.minimum(np.floor(x).astype(np.int64), n - 1)
    hi = np.minimum(lo + 1, n - 1)
    pick_hi = (hi - x) < (x - lo)  # strict: ties keep the earlier frame
    idx = np.where(pick_hi, hi, lo)
    return FrameTrack(
        video_id=track.video_id,
        fps=target_fps,
        values=track.values[idx],
        kind=track.kind,
    )


def interpolate_to(
    track: FrameTrack, target_fps: float, target_n_frames: int
) -> FrameTrack:
    """Linearly interpolate a track onto a target timeline.

    Each output timestamp t / target_fps is mapped into the source
    timeline and interpolated component-wise between the bracketing
    source frames. Timestamps before the first source frame hold the
    first value, timestamps after the last hold the last value, so the
    output always covers the requested frame count.
    """
    if target_fps <= 0:
        raise ValueError("target_fps must be positive")
    if target_n_frames < 1:
        raise ValueError("target_n_frames must be >= 1")
    if track.kind == "label":
        raise ValueError(
            "label tracks cannot be interpolated; interpolate scores, then argmax"
        )
    x_old = track.timestamps()
    x_new = np.arange(target_n_frames, dtype=np.float64) / target_fps
    out = np.empty((target_n_frames, track.width), dtype=np.float64)
    for j in range(track.width):
        out[:, j] = np.interp(x_new, x_old, track.values[:, j])
    return FrameTrack(
        video_id=track.video_id,
        fps=target_fps,
        values=out,
        kind=track.kind,
    )


def hamming_smooth(track: FrameTrack, spec: SmoothingSpec) -> FrameTrack:
    """Smooth score or VA tracks with a normalized Hamming window.

    The window is w[k] = 0.54 - 0.46*cos(2*pi*k/(N-1)) for N > 1 and
    [1] for N = 1, normalized by its sum so constant tracks pass
    through unchanged. Frames beyond the boundaries replicate the edge
    frame. Output length equals input length.
    """
    if track.kind not in ("class_scores", "va"):
        raise ValueError(
            f"hamming_smooth expects class_scores or va tracks, got {track.kind!r}; "
            "smooth scores, then argmax"
        )
    n_win = spec.window_frames(track.fps)
    if n_win == 1:
        return track
    weights = np.hamming(n_win)
    weights = weights / weights.sum()
    half = (n_win - 1) // 2
    padded = np.pad(track.values, ((half, half), (0, 0)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_win, axis=0)
    # anchored on the center frame: constant tracks pass through bit-exact
    # even though the normalized weights sum to 1 only up to rounding
    out = track.values + (windows - track.values[:, :, None]) @ weights
    if track.kind == "va":
        # Convex combinations stay inside [-1, 1]; clip guards rounding.
        out = np.clip(out, -1.0, 1.0)
    return FrameTrack(
        video_id=track.video_id,
        fps=track.fps,
        values=out,
        kind=track.kind,
        frame_index_origin=track.frame_index_origin,
    )


# ---------------------------------------------------------------------------
# Track CSV format: header `video_id,frame,c0,c1,...`, one row per frame,
# frames strictly increasing and contiguous per video, UTF-8, LF endings.
# ---------------------------------------------------------------------------

FLOAT_FMT = "%.17g"  # round-trips float64 exactly


def csv_row_format(video_id: str, tail: str) -> str:
    """%-format for one video's rows: the id as csv.writer quotes it, then `tail`.

    Writers that format whole rows at once quote the id once per video.
    An id holding a line break of either kind is quoted, so the readers,
    which split lines at \r as well as \n, read it back whole.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([video_id, ""])
    return buf.getvalue()[: -len(",\r\n")].replace("%", "%%") + tail


def write_csv(path: str | Path, rows: Iterable[list[str]]) -> None:
    """`rows` with LF line ends. Each row is formatted with CRLF first, as csv.writer
    quotes only its terminator's line breaks, so a field holding either is quoted."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        for row in rows:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(row)
            fh.write(buf.getvalue()[:-2] + "\n")


def write_track_csv(path: str | Path, tracks: list[FrameTrack]) -> None:
    """Write tracks to the shared CSV format, ordered by video id."""
    tracks = sorted(tracks, key=lambda t: t.video_id)
    if not tracks:
        raise ValueError("no tracks to write")
    width = tracks[0].width
    for t in tracks:
        if t.width != width:
            raise ValueError("all tracks in one file must share a width")
    path = Path(path)
    values_fmt = ",".join([FLOAT_FMT] * width) + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        header = ["video_id", "frame"] + [f"c{j}" for j in range(width)]
        fh.write(",".join(header) + "\n")
        for t in tracks:
            fmt = csv_row_format(t.video_id, ",%s," + values_fmt)
            origin = t.frame_index_origin
            fh.write("".join(
                [fmt % (origin + i, *row) for i, row in enumerate(t.values.tolist())]
            ))


def read_track_csv(
    path: str | Path, fps: float, kind: str = "embedding"
) -> dict[str, FrameTrack]:
    """Read the shared track CSV into one FrameTrack per video.

    Frames must be strictly increasing and contiguous within each
    video; the first frame index becomes the track's origin. Values a
    FrameTrack of `kind` rejects raise DataFormatError naming the video.
    """
    path = Path(path)
    frames, values, videos = read_frame_rows(path)
    tracks = {}
    for vid, rows in videos.items():
        try:
            tracks[vid] = FrameTrack(
                vid, fps, values[rows], kind=kind, frame_index_origin=int(frames[rows[0]])
            )
        except ValueError as exc:
            raise DataFormatError(f"{path}: video {vid!r}: {exc}") from None
    return tracks


# ---------------------------------------------------------------------------
# The reader behind the track, VAD and label CSVs. One np.loadtxt call parses
# the data rows; only when it or a later check finds a fault does a per-row
# csv pass run, to raise the error of the first faulty row with its file
# line. csv and numpy split fields alike (quotes, blank lines, \r\n).
# ---------------------------------------------------------------------------

# str.isspace() counts U+001C..U+001F as whitespace, and numpy strips them
# around a numeral where int() and float() reject it.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_frame_rows(
    path: Path, header: list[str] | None = None, convert=None, contiguous: bool = True
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """The frames, values and each video's rows of a per-frame CSV.

    The file is UTF-8 and starts with `header`, or, when header is None,
    with `video_id,frame` and at least one value column. A data row holds
    a video id, an int frame and a float per value column; given
    `convert`, the one value column is read as str and convert(column)
    maps it to the values, raising ValueError with a faulty row's message.
    With `contiguous`, each video's frames step by one. A fault raises
    the error of the first faulty row, naming its line; a byte that is
    not UTF-8, a file without data rows and numerals that int() or
    float() read but numpy does not (`1_0`, non-ASCII digits, frames
    beyond int64) raise DataFormatError.

    Returns the frames (int64) and values in file order, blank lines
    skipped, and each video's row indices in file order, the videos in
    order of first appearance.
    """
    is_ascii, separators = _scan(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        found = next(csv.reader(fh), None)
        if header is None:
            if not found or found[:2] != ["video_id", "frame"]:
                raise DataFormatError(f"{path}: expected header video_id,frame,c0,...")
            if len(found) == 2:
                raise DataFormatError(f"{path}: no value columns")
        elif found != header:
            raise DataFormatError(f"{path}: expected header {','.join(header)}")
        check = _row_check(path, len(found), convert, contiguous)
        # loadtxt warns on input without data, so find the first data line here
        for line in fh:
            if line not in ("\n", "\r\n", "\r"):
                break
        else:
            raise DataFormatError(f"{path}: no data rows")
        # numpy's int64 parser misreads some non-ASCII characters as digits
        frame_dtype = np.int64 if is_ascii else object
        value_dtype = object if convert else (np.float64, (len(found) - 2,))
        dtype = [("id", object), ("frame", frame_dtype), ("v", value_dtype)]
        try:
            with warnings.catch_warnings():
                # older numpy reads `4.0` or `1e3` into an int64 field with
                # only this warning; as an error, the parse fails
                warnings.filterwarnings(
                    "error", ".*integer via a float", DeprecationWarning)
                table = np.loadtxt(
                    itertools.chain([line], fh), delimiter=",", quotechar='"',
                    comments=None, ndmin=1, dtype=dtype,
                )
            frames, values = table["frame"], table["v"]
            if not is_ascii:
                frames = np.fromiter(map(_ascii_int, frames), np.int64, count=len(frames))
            if convert:
                values = convert(values)
        except (ValueError, OverflowError, DeprecationWarning) as exc:
            _reject(path, check, exc)
    if separators:
        _check_rows(path, check)
    videos = _group_rows(table["id"])
    if contiguous:
        for vid, rows in videos.items():
            f = frames[rows]
            # the first test catches a difference that wraps around int64
            if (f[1:] <= f[:-1]).any() or (np.diff(f) != 1).any():
                _reject(path, check, f"frames of {vid!r} are not contiguous")
    return frames, values, videos


def _row_check(path: Path, n_fields: int, convert, contiguous: bool):
    """check(row, lineno), which raises the error a faulty data row gets."""
    last_frame: dict[str, int] = {}

    def check(row: list[str], lineno: int) -> None:
        if len(row) != n_fields:
            raise DataFormatError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(row)}"
            )
        try:
            if convert:
                convert(np.array(row[2:], dtype=object))
            else:
                [float(v) for v in row[2:]]
            frame = int(row[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        vid = row[0]
        if contiguous and vid in last_frame:
            last = last_frame[vid]
            if frame <= last:
                raise DataFormatError(
                    f"{path}:{lineno}: frames not strictly increasing for {vid!r}"
                )
            if frame != last + 1:
                raise AlignmentError(
                    f"{path}:{lineno}: gap in frames for {vid!r} "
                    f"({last} -> {frame}); tracks must be contiguous"
                )
        last_frame[vid] = frame

    return check


def _scan(path: Path) -> tuple[bool, bool]:
    """Whether the file is ASCII, and whether it holds U+001C..U+001F.

    A file that is not ASCII is decoded as it is read, so a byte that is
    not UTF-8 raises DataFormatError before any row is parsed.
    """
    is_ascii, separators = True, False
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        with path.open("rb") as fh:
            for chunk in iter(partial(fh.read, 1 << 16), b""):
                is_ascii = is_ascii and chunk.isascii()
                separators = separators or any(c in chunk for c in _SEPARATORS)
                if not is_ascii:
                    decode(chunk)
        decode(b"", final=True)
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # csv counts \n, \r\n and a lone \r as a line end
            lines = [data.count(end, 0, exc.start) for end in (b"\n", b"\r", b"\r\n")]
            raise DataFormatError(
                f"{path}:{lines[0] + lines[1] - lines[2] + 1}: "
                f"byte 0x{data[exc.start]:02x} is not UTF-8"
            ) from None
    return is_ascii, separators


def _ascii_int(text: str) -> int:
    """int(text) for the numerals numpy's int64 parser takes from ASCII text."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string {text!r} to int64")
    return int(text)


def _check_rows(path: Path, check_row) -> None:
    """Run check_row over the file's data rows with their csv line numbers."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                check_row(row, reader.line_num)


def _reject(path: Path, check_row, reason) -> NoReturn:
    """Raise the error of the first faulty row, or DataFormatError(reason)."""
    _check_rows(path, check_row)
    raise DataFormatError(f"{path}: {reason}")


def _group_rows(ids: np.ndarray) -> dict[str, np.ndarray]:
    """Row indices of each video in file order, videos in order of first appearance."""
    bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
    runs: dict[str, list[np.ndarray]] = {}
    for a, b in zip(bounds, bounds[1:]):
        runs.setdefault(ids[a], []).append(np.arange(a, b))
    return {vid: np.concatenate(parts) for vid, parts in runs.items()}
