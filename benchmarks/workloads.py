"""Benchmark workloads: what each one runs and how its inputs are made.

Every workload is a seeded synthetic dataset plus a pipeline config.
The inputs are made with `synth_tracks` and go through the program's
public writers (`write_track_csv`, `write_label_csv`, `write_vad_csv`);
the pipeline only ever sees the resulting files. Base score tracks (the
"other models" a late fusion combines) are derived from the synthetic
truth with seeded noise of unequal strength, so fusion has real choices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "expr" | "va"
    n_videos: int
    frames: int  # frames per video at label_fps
    dim: int  # embedding width
    label_fps: float  # rate of the labels (and embeddings)
    dev: int  # the last `dev` videos form split.dev_videos
    workers: int
    fusion: dict
    base_noise: tuple  # one base score track per entry, noise std
    kelm: bool = True
    voiced_fraction: float = 1.0
    noise: float = 1.0  # embedding noise of the synthetic generator
    postprocess: dict = field(default_factory=dict)
    # span-name prefixes the traced run must call, and ones it must not
    expect_called: tuple = ()
    expect_bypassed: tuple = ()
    # the tree count rf_info.csv must report: with it fixed, the forest
    # grows the same number of trees for every seed
    expect_n_trees: int | None = None
    # per-workload overrides that make a variant finishing in seconds
    smoke: dict = field(default_factory=dict)

    def shrunk(self) -> "Workload":
        return replace(self, **self.smoke)


FPS = 5.0  # the pipeline's working rate

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="expr-dwf",
            task="expr",
            n_videos=8,
            frames=2000,
            dim=8,
            label_fps=FPS,
            voiced_fraction=0.8,
            noise=4.0,
            dev=2,
            workers=1,
            fusion={"method": "dwf", "pool_size": 1500},
            base_noise=(1.2, 2.0),
            expect_called=(
                "pipeline.stage_window", "pipeline.stage_features",
                "pipeline.stage_train_kelm", "pipeline.stage_predict_kelm",
                "pipeline.stage_fuse", "pipeline.stage_postprocess",
                "pipeline.stage_evaluate", "windowing.slice_windows",
                "windowing.read_vad_csv", "features.batch_functionals",
                "kelm.train_kelm", "kelm.select_c", "fusion.dwf_search",
                "fusion.sample_pool", "metrics.classification_report",
            ),
            expect_bypassed=("forest.", "fusion.stack_and_fuse_rf",
                             "fusion.mean_fusion", "metrics.ccc"),
            smoke={"n_videos": 4, "frames": 600, "dim": 16,
                   "fusion": {"method": "dwf", "pool_size": 200}},
        ),
        Workload(
            name="va-rf",
            task="va",
            n_videos=4,
            frames=600,
            dim=32,
            label_fps=FPS,
            noise=1.0,
            dev=1,
            workers=1,
            # 12 trees win the out-of-bag comparison by a wide margin on
            # 600 dev rows, so the retrain grows 12 trees for every seed
            fusion={"method": "rf", "tree_grid": [2, 4, 12]},
            base_noise=(0.3, 0.5),
            expect_called=(
                "pipeline.stage_window", "pipeline.stage_train_kelm",
                "kelm.train_kelm", "forest.train_forest", "forest.select_n_trees",
                "forest.predict_forest", "fusion.stack_and_fuse_rf", "metrics.ccc",
            ),
            expect_bypassed=("fusion.dwf_search", "fusion.sample_pool",
                             "fusion.mean_fusion", "metrics.classification_report",
                             "windowing.read_vad_csv"),
            expect_n_trees=12,
            smoke={"n_videos": 4, "frames": 300, "dim": 8,
                   "fusion": {"method": "rf", "tree_grid": [3, 5]},
                   "expect_n_trees": 5},
        ),
        Workload(
            name="va-late-fusion",
            task="va",
            n_videos=12,
            frames=3000,
            dim=1,
            label_fps=25.0,
            kelm=False,
            dev=0,
            workers=2,
            fusion={"method": "mean"},
            base_noise=(0.2, 0.3, 0.4),
            postprocess={"target_fps": 25.0},
            expect_called=(
                "pipeline.stage_fuse", "pipeline.stage_postprocess",
                "pipeline.stage_evaluate", "pipeline.evaluate_files",
                "timeline.read_track_csv", "timeline.interpolate_to",
                "timeline.hamming_smooth", "windowing.read_label_csv",
                "windowing.write_label_csv", "fusion.mean_fusion", "metrics.ccc",
            ),
            expect_bypassed=(
                "kelm.", "forest.", "features.", "windowing.slice_windows",
                "pipeline.stage_window", "pipeline.stage_features",
                "pipeline.stage_train_kelm", "pipeline.stage_predict_kelm",
                "fusion.dwf_search", "fusion.stack_and_fuse_rf",
            ),
            smoke={"n_videos": 4, "frames": 1500},
        ),
    )
}


def _video_ids(n: int) -> list[str]:
    return [f"v{i:03d}" for i in range(n)]


def _base_tracks(w: Workload, seed: int, truth: dict) -> list[list]:
    """One list of per-video score tracks at the working rate per base model."""
    from affectpipe.timeline import FrameTrack

    step = int(round(w.label_fps / FPS))
    out = []
    for m, sigma in enumerate(w.base_noise):
        rng = np.random.default_rng([seed, 1000 + m])
        tracks = []
        for vid in sorted(truth):
            target = truth[vid][::step]
            if w.task == "expr":
                onehot = np.zeros((target.shape[0], 8))
                onehot[np.arange(target.shape[0]), target[:, 0].astype(np.int64)] = 1.0
                values = onehot + sigma * rng.normal(size=onehot.shape)
                kind = "class_scores"
            else:
                values = np.clip(target + sigma * rng.normal(size=target.shape), -1, 1)
                kind = "va"
            tracks.append(FrameTrack(vid, FPS, values, kind=kind))
        out.append(tracks)
    return out


def _vad_masks(w: Workload, seed: int) -> list:
    """Voiced/unvoiced runs with a fixed length multiset per video.

    The run lengths follow the synthetic generator's scheme (voiced runs
    of 2-8 s, unvoiced runs scaled to the voiced fraction) but are drawn
    once for the workload; the seed only shuffles their order. Every
    seed therefore yields the same segments, windows and padded windows,
    and run-to-run differences in the benchmark come from the data, not
    from the amount of work.
    """
    from affectpipe.windowing import VadMask

    layout = np.random.default_rng(0)  # fixed: the layout belongs to the workload
    rng = np.random.default_rng([seed, 2000])
    f = w.voiced_fraction
    masks = []
    for vid in _video_ids(w.n_videos):
        runs = {True: [], False: []}
        total, voiced = 0, True
        while total < w.frames:
            seconds = layout.uniform(2.0, 8.0) * (1.0 if voiced else (1.0 - f) / f)
            n = min(max(int(round(seconds * w.label_fps)), 1), w.frames - total)
            runs[voiced].append(n)
            total += n
            voiced = not voiced
        on, off = rng.permutation(runs[True]), rng.permutation(runs[False])
        flags = []
        for i, n in enumerate(on):
            flags += [True] * int(n)
            if i < len(off):
                flags += [False] * int(off[i])
        masks.append(VadMask(vid, np.array(flags, dtype=bool)))
    return masks


def _config(w: Workload, seed: int, d: Path, base_paths: list[Path]) -> dict:
    vids = _video_ids(w.n_videos)
    paths = {
        "labels": str(d / "labels.csv"),
        "base_predictions": [str(p) for p in base_paths],
    }
    if w.kelm:
        paths["embeddings"] = str(d / "embeddings.csv")
        if w.voiced_fraction < 1.0:
            paths["vad"] = str(d / "vad.csv")
    return {
        "task": w.task,
        "seed": seed,
        "workers": w.workers,
        "fps_target": FPS,
        "paths": paths,
        "split": {"dev_videos": vids[len(vids) - w.dev:] if w.dev else []},
        "window": {"window_seconds": 4.0, "hop_seconds": 2.0},
        "kelm": {"enabled": w.kelm},
        "fusion": dict(w.fusion),
        "postprocess": dict(w.postprocess),
        "output": {"dir": str(d / "runs")},
    }


def make_inputs(w: Workload, seed: int, d: Path) -> tuple[Path, dict]:
    """Write the workload's inputs into `d`; returns (config path, timings).

    Timings: `synth_s` (`synth_tracks`), `write_s` (the input files) and
    `total_s` (everything, including the base tracks and writing and
    loading the config), which is one `setup_s` sample.
    """
    from affectpipe.pipeline import load_config
    from affectpipe.synth import SyntheticSpec, synth_tracks
    from affectpipe.timeline import write_track_csv
    from affectpipe.windowing import write_label_csv, write_vad_csv

    d.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        n_videos=w.n_videos,
        frames_per_video=w.frames,
        embedding_dim=w.dim,
        task=w.task,
        noise=w.noise,
        seed=seed,
        fps=w.label_fps,
    )
    tracks, labels, _ = synth_tracks(spec)
    t1 = time.perf_counter()
    truth = {vid: np.array([labels[vid][t] for t in sorted(labels[vid])]) for vid in labels}
    bases = _base_tracks(w, seed, truth)
    t2 = time.perf_counter()
    if w.kelm:
        write_track_csv(d / "embeddings.csv", tracks)
        if w.voiced_fraction < 1.0:
            write_vad_csv(d / "vad.csv", _vad_masks(w, seed))
    write_label_csv(d / "labels.csv", labels, task=w.task)
    base_paths = []
    for m, base in enumerate(bases):
        p = d / f"base_{chr(ord('a') + m)}.csv"
        write_track_csv(p, base)
        base_paths.append(p)
    t3 = time.perf_counter()
    cfg_path = d / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(_config(w, seed, d, base_paths)), encoding="utf-8")
    load_config(cfg_path)
    t4 = time.perf_counter()
    return cfg_path, {"synth_s": t1 - t0, "write_s": t3 - t2, "total_s": t4 - t0}
