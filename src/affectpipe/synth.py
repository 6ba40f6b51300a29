"""Seeded synthetic datasets: embeddings, labels, and VAD masks.

The generator exists so the pipeline can be exercised end to end
without any real audio or video. Expression mode assigns a latent
class to each block of frames and draws embeddings around a
class-specific mean; dimensional mode drives a bounded random walk
through valence/arousal space and embeds it linearly. With the noise
level at zero the embeddings are exactly separable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .timeline import N_EXPR_CLASSES, FrameTrack, write_track_csv
from .windowing import VadMask, write_label_csv, write_vad_csv

MEAN_SCALE = 3.0  # separation of class means relative to unit noise
VA_STEP_SCALE = 0.05  # random-walk step size per frame


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and randomness of one generated dataset."""

    n_videos: int = 5
    frames_per_video: int = 600
    embedding_dim: int = 16
    task: str = "expr"
    class_count: int = N_EXPR_CLASSES
    noise: float = 1.0
    priors: tuple[float, ...] | None = None
    seed: int = 0
    fps: float = 5.0
    block_seconds: float = 15.0
    voiced_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.n_videos < 1 or self.frames_per_video < 1 or self.embedding_dim < 1:
            raise ValueError("n_videos, frames_per_video, embedding_dim must be >= 1")
        if self.task not in ("expr", "va"):
            raise ValueError(f"unknown task {self.task!r}")
        if not 2 <= self.class_count <= N_EXPR_CLASSES:
            raise ValueError(f"class_count must be in [2, {N_EXPR_CLASSES}]")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if self.fps <= 0 or self.block_seconds <= 0:
            raise ValueError("fps and block_seconds must be positive")
        if not 0 < self.voiced_fraction <= 1:
            raise ValueError("voiced_fraction must be in (0, 1]")
        if self.priors is not None:
            priors = tuple(float(p) for p in self.priors)
            if len(priors) != self.class_count:
                raise ValueError("priors must have one entry per class")
            if min(priors) < 0 or abs(sum(priors) - 1.0) > 1e-9:
                raise ValueError("priors must be nonnegative and sum to 1")
            object.__setattr__(self, "priors", priors)

    @property
    def block_frames(self) -> int:
        return max(int(round(self.block_seconds * self.fps)), 1)


def _video_ids(n: int) -> list[str]:
    return [f"v{i:03d}" for i in range(n)]


def _block_labels(rng, n_blocks: int, spec: SyntheticSpec) -> np.ndarray:
    """One latent class per block.

    Without explicit priors, blocks cycle through shuffled class orders
    so that even short videos contain every class; with priors, blocks
    are drawn independently.
    """
    if spec.priors is not None:
        return rng.choice(spec.class_count, size=n_blocks, p=np.array(spec.priors))
    out: list[int] = []
    while len(out) < n_blocks:
        out.extend(int(c) for c in rng.permutation(spec.class_count))
    return np.array(out[:n_blocks], dtype=np.int64)


def _expr_video(rng, spec: SyntheticSpec, means: np.ndarray):
    n = spec.frames_per_video
    block = spec.block_frames
    n_blocks = -(-n // block)
    labels = np.repeat(_block_labels(rng, n_blocks, spec), block)[:n]
    emb = means[labels]
    if spec.noise > 0:
        emb = emb + spec.noise * rng.normal(size=(n, spec.embedding_dim))
    return emb, labels[:, None].astype(np.float64)


def _va_video(rng, spec: SyntheticSpec, mapping: np.ndarray):
    n = spec.frames_per_video
    traj = np.empty((n, 2))
    cur = rng.uniform(-0.5, 0.5, size=2)
    # one draw of n steps yields the same numbers as n draws of one step
    steps = rng.normal(scale=VA_STEP_SCALE, size=(n, 2))
    for t in range(n):
        cur = np.clip(cur + steps[t], -1.0, 1.0)
        traj[t] = cur
    emb = traj @ mapping
    if spec.noise > 0:
        emb = emb + spec.noise * rng.normal(size=(n, spec.embedding_dim))
    return emb, traj


def _voiced_mask(rng, spec: SyntheticSpec) -> np.ndarray:
    n = spec.frames_per_video
    if spec.voiced_fraction >= 1.0:
        return np.ones(n, dtype=bool)
    # alternating voiced/unvoiced runs; unvoiced lengths are scaled so
    # the expected voiced share matches the requested fraction
    f = spec.voiced_fraction
    flags = np.empty(0, dtype=bool)
    voiced = True
    while flags.shape[0] < n:
        seconds = rng.uniform(2.0, 8.0)
        if not voiced:
            seconds *= (1.0 - f) / f
        run = max(int(round(seconds * spec.fps)), 1)
        flags = np.concatenate([flags, np.full(run, voiced)])
        voiced = not voiced
    flags = flags[:n]
    if not flags.any():
        flags[0] = True
    return flags


def synth_tracks(spec: SyntheticSpec):
    """Generate the dataset in memory.

    Returns (embedding tracks, label rows, vad masks): tracks as
    FrameTrack per video, labels as nested {video: {frame: vector}}
    dicts matching the label CSV layout, and one VadMask per video.
    """
    master = np.random.default_rng([spec.seed, 0])
    if spec.task == "expr":
        means = MEAN_SCALE * master.normal(
            size=(spec.class_count, spec.embedding_dim)
        )
    else:
        mapping = master.normal(size=(2, spec.embedding_dim))
    tracks: list[FrameTrack] = []
    labels: dict[str, dict[int, np.ndarray]] = {}
    masks: list[VadMask] = []
    for i, vid in enumerate(_video_ids(spec.n_videos)):
        rng = np.random.default_rng([spec.seed, 1 + i])
        if spec.task == "expr":
            emb, target = _expr_video(rng, spec, means)
        else:
            emb, target = _va_video(rng, spec, mapping)
        tracks.append(FrameTrack(vid, spec.fps, emb, kind="embedding"))
        labels[vid] = {t: target[t] for t in range(spec.frames_per_video)}
        masks.append(VadMask(vid, _voiced_mask(rng, spec)))
    return tracks, labels, masks


def synth_generate(
    spec: SyntheticSpec,
    embeddings_path: str | Path,
    labels_path: str | Path,
    vad_path: str | Path | None = None,
) -> dict[str, Path]:
    """Generate and write the dataset files; returns the written paths."""
    tracks, labels, masks = synth_tracks(spec)
    paths = {"embeddings": Path(embeddings_path), "labels": Path(labels_path)}
    for p in paths.values():
        p.parent.mkdir(parents=True, exist_ok=True)
    write_track_csv(paths["embeddings"], tracks)
    write_label_csv(paths["labels"], labels, task=spec.task)
    if vad_path is not None:
        paths["vad"] = Path(vad_path)
        paths["vad"].parent.mkdir(parents=True, exist_ok=True)
        write_vad_csv(paths["vad"], masks)
    return paths
