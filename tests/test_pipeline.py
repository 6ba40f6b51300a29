"""Synthetic data, config handling, staged runs, CLI, determinism."""

from __future__ import annotations

import csv
import gc
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from affectpipe import cli, pipeline, synth
from affectpipe.cli import main
from affectpipe.errors import (
    AffectPipeError,
    AlignmentError,
    ConfigError,
    DataFormatError,
    MissingInputError,
    SolverError,
    TaskMismatchError,
)
from affectpipe.fusion import sample_pool
from affectpipe.kelm import (
    class_weights,
    encode_classification_targets,
    predict_kelm,
    train_kelm,
)
from affectpipe.metrics import classification_report, va_report
from affectpipe.pipeline import (
    config_hash,
    evaluate_files,
    load_config,
    planned_stages,
    run_pipeline,
)
from affectpipe.synth import SyntheticSpec, synth_generate, synth_tracks
from affectpipe.timeline import (
    N_EXPR_CLASSES,
    FrameTrack,
    SmoothingSpec,
    hamming_smooth,
    read_track_csv,
    write_track_csv,
)
from affectpipe.windowing import (
    LabelRows,
    VadMask,
    WindowBatch,
    read_label_csv,
    read_vad_csv,
    slice_windows,
    voiced_segments,
    write_label_csv,
    write_vad_csv,
)
from test_fusion import reference_dwf_search
from test_windowing import dict_read_label_csv

ROOT = Path(__file__).resolve().parent.parent


def _write_config(tmp_path, name="cfg.yaml", **overrides):
    cfg = {
        "task": "expr",
        "seed": 7,
        "paths": {
            "embeddings": str(tmp_path / "data" / "embeddings.csv"),
            "labels": str(tmp_path / "data" / "labels.csv"),
            "vad": str(tmp_path / "data" / "vad.csv"),
        },
        "split": {"dev_videos": ["v003"]},
        "window": {"window_seconds": 2.0, "hop_seconds": 2.0},
        "synth": {
            "n_videos": 4,
            "frames_per_video": 320,
            "embedding_dim": 6,
            "class_count": 4,
            "noise": 0.0,
            "block_seconds": 16.0,
        },
        "output": {"dir": str(tmp_path / "runs")},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def _synth_from(config):
    paths = config.paths
    synth_generate(config.synth, paths.embeddings, paths.labels, paths.vad)


def _base_paths(tmp_path, n):
    return [str(tmp_path / "data" / f"base_{m}.csv") for m in range(n)]


def _write_base_predictions(config, seed=0, origin=0, width=None):
    """Random score tracks over the synthetic videos at the working rate,
    each numbered from frame `origin`, of the task's width unless given."""
    rng = np.random.default_rng(seed)
    spec = config.synth
    vids = [f"v{i:03d}" for i in range(spec.n_videos)]
    width = width or config.n_outputs
    for path in config.paths.base_predictions:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        write_track_csv(path, [
            FrameTrack(vid, config.fps_target,
                       np.clip(rng.normal(scale=0.5, size=(spec.frames_per_video, width)),
                               -1, 1),
                       kind=config.track_kind, frame_index_origin=origin)
            for vid in vids
        ])


def _write_va_fusion_only(
    tmp_path, method, b_frames=None, a_origin=0, b_origin=0, label_origin=0,
    frames=None, dev_videos=("v001", "v002"),
):
    """A fusion-only va config over bases a.csv and b.csv.

    Videos v000-v002 have frames[vid] labelled frames where given, 200
    elsewhere, numbered from label_origin. Base a has as many; base b
    has b_frames[vid] where given. Bases a and b number their frames
    from a_origin and b_origin.
    """
    rng = np.random.default_rng(9)
    vids = ["v000", "v001", "v002"]
    counts = {vid: 200 for vid in vids} | (frames or {})
    labels = {vid: dict(enumerate(np.clip(rng.normal(scale=0.5, size=(counts[vid], 2)),
                                          -1, 1), start=label_origin))
              for vid in vids}
    write_label_csv(tmp_path / "labels.csv", labels, task="va")
    for name, origin, sizes in (("a", a_origin, counts),
                                ("b", b_origin, counts | (b_frames or {}))):
        write_track_csv(tmp_path / f"{name}.csv", [
            FrameTrack(vid, 5.0,
                       np.clip(rng.normal(scale=0.5, size=(sizes[vid], 2)), -1, 1),
                       kind="va", frame_index_origin=origin)
            for vid in vids
        ])
    cfg = {
        "task": "va",
        "paths": {"labels": str(tmp_path / "labels.csv"),
                  "base_predictions": [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]},
        "kelm": {"enabled": False},
        "split": {"dev_videos": list(dev_videos)},
        "fusion": {"method": method, "pool_size": 50, "tree_grid": [2, 3]},
        "output": {"dir": str(tmp_path / "runs")},
    }
    path = tmp_path / f"{method}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _shorten_video(config, vid, n):
    """Keep the first n frames of `vid` in the synthetic inputs, all
    voiced, so the window stage gives it exactly one window when n is
    below the window length plus one hop."""
    paths = config.paths
    tracks = read_track_csv(paths.embeddings, fps=config.fps_target)
    tracks[vid] = replace(tracks[vid], values=tracks[vid].values[:n])
    write_track_csv(paths.embeddings, list(tracks.values()))
    labels = read_label_csv(paths.labels, config.task)
    keep = labels[vid].frames < n
    labels[vid] = LabelRows(labels[vid].frames[keep], labels[vid].values[keep])
    write_label_csv(paths.labels, labels, task=config.task)
    vad = read_vad_csv(paths.vad)
    vad[vid] = VadMask(vid, np.ones(n, dtype=bool))
    write_vad_csv(paths.vad, list(vad.values()))


def _shift_embeddings(config, origin):
    """Number every embedding track of the synthetic inputs, and its VAD,
    from `origin`."""
    tracks = read_track_csv(config.paths.embeddings, fps=config.fps_target)
    write_track_csv(config.paths.embeddings, [replace(t, frame_index_origin=origin)
                                              for t in tracks.values()])
    _shift_vad(config, origin)


def _shift_vad(config, origin):
    """Number every VAD mask of the synthetic inputs from `origin`."""
    write_vad_csv(config.paths.vad, [replace(m, frame_index_origin=origin)
                                     for m in read_vad_csv(config.paths.vad).values()])


def _rename_videos(config, names):
    """Rewrite the synthetic inputs with the videos renamed by `names`."""
    paths = config.paths
    tracks = read_track_csv(paths.embeddings, fps=config.fps_target)
    write_track_csv(paths.embeddings, [replace(t, video_id=names.get(vid, vid))
                                       for vid, t in tracks.items()])
    labels = read_label_csv(paths.labels, config.task)
    write_label_csv(paths.labels, {names.get(vid, vid): rows
                                   for vid, rows in labels.items()}, task=config.task)
    write_vad_csv(paths.vad, [replace(mask, video_id=names.get(vid, vid))
                              for vid, mask in read_vad_csv(paths.vad).items()])


def _file_digests(run_dir):
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def _capture_fused(monkeypatch):
    """A list that gets the fused tracks of each stage_fuse call, which the
    fuse command hands stage_postprocess; no file holds them."""
    made = []

    def fuse(*args, _fn=pipeline.stage_fuse):
        fused, records = _fn(*args)
        made.append(fused)
        return fused, records

    monkeypatch.setattr(pipeline, "stage_fuse", fuse)
    return made


def _record_staging(monkeypatch):
    """A list that gets each command's staging directory, from a wrapper of
    staged_writes that both run_pipeline and the stage commands call."""
    staging = []

    @contextmanager
    def staged_writes(config, _fn=pipeline.staged_writes):
        with _fn(config) as out_dir:
            staging.append(out_dir)
            yield out_dir

    for module in (pipeline, cli):
        monkeypatch.setattr(module, "staged_writes", staged_writes)
    return staging


def _fused_rows(fused):
    """(video, first frame, shape, value bytes) of each fused track, in
    sorted video order: two fused tables are equal when these are."""
    return [(vid, t.frame_index_origin, t.values.shape, t.values.tobytes())
            for vid, t in sorted(fused.items())]


def _set_row_field(path, j, value, line=1):
    """Replace field j of a CSV file's line `line`, counted from 0 (the
    header); 1 is the first data row, -2 the last of a file that ends in
    a newline."""
    lines = Path(path).read_text().split("\n")
    row = lines[line].split(",")
    row[j] = value
    lines[line] = ",".join(row)
    Path(path).write_text("\n".join(lines))


def _window_starts(config):
    """Each video's window starts as the kelm command slices them."""
    batches, _ = pipeline.stage_window(config, pipeline._read_truth(config),
                                       pipeline._read_vad(config))
    return {vid: batch.starts for vid, batch in batches.items()}


def _object_kelm_scores(config):
    path = config.run_dir() / "kelm_scores.npy"
    np.save(path, np.load(path).astype(object), allow_pickle=True)


def _truncate_kelm_scores(config):
    path = config.run_dir() / "kelm_scores.npy"
    path.write_bytes(path.read_bytes()[:-8])


def _kelm_scores_one_row_short(config):
    path = config.run_dir() / "kelm_scores.npy"
    np.save(path, np.load(path)[:-1])


def _nan_kelm_score(config):
    path = config.run_dir() / "kelm_scores.npy"
    scores = np.load(path)
    scores[0, 0] = np.nan
    np.save(path, scores)


def _no_kelm_scores(config):
    (config.run_dir() / "kelm_scores.npy").unlink()


def _kelm_scores_of_every_video(config):
    """kelm_scores.npy as it would be had the KELM stage scored every video:
    one row per window of every video."""
    path = config.run_dir() / "kelm_scores.npy"
    n_windows = sum(map(len, _window_starts(config).values()))
    np.save(path, np.resize(np.load(path), (n_windows, N_EXPR_CLASSES)))


def _frame_level_kelm_scores(config):
    """kelm_scores.npy as an older version wrote it: the dev video's window
    scores spread onto its 320 label frames (2 s windows at a 2 s hop)."""
    path = config.run_dir() / "kelm_scores.npy"
    starts = _window_starts(config)["v003"]
    np.save(path, pipeline._spread_window_scores(starts, np.load(path), 320, 10, 10))


class TestSyntheticData:
    def test_noise_zero_collapses_each_class_to_its_mean(self):
        spec = SyntheticSpec(n_videos=2, frames_per_video=100, embedding_dim=4,
                             class_count=3, noise=0.0, seed=1, block_seconds=4.0)
        tracks, labels, _ = synth_tracks(spec)
        for track in tracks:
            lab = np.array([labels[track.video_id][t][0] for t in range(100)])
            for c in np.unique(lab):
                rows = track.values[lab == c]
                np.testing.assert_array_equal(rows, np.tile(rows[0], (len(rows), 1)))

    def test_va_trajectory_stays_bounded(self):
        spec = SyntheticSpec(n_videos=3, frames_per_video=500, embedding_dim=4,
                             task="va", seed=2)
        _, labels, _ = synth_tracks(spec)
        for per_video in labels.values():
            values = np.array(list(per_video.values()))
            assert values.min() >= -1.0 and values.max() <= 1.0

    def test_label_file_has_one_row_per_frame(self, tmp_path):
        spec = SyntheticSpec(n_videos=2, frames_per_video=100, embedding_dim=3, seed=0)
        paths = synth_generate(spec, tmp_path / "e.csv", tmp_path / "l.csv")
        lines = paths["labels"].read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 100

    def test_same_seed_same_bytes(self, tmp_path):
        spec = SyntheticSpec(n_videos=2, frames_per_video=50, embedding_dim=3, seed=9)
        a = synth_generate(spec, tmp_path / "a_e.csv", tmp_path / "a_l.csv",
                           tmp_path / "a_v.csv")
        b = synth_generate(spec, tmp_path / "b_e.csv", tmp_path / "b_l.csv",
                           tmp_path / "b_v.csv")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_blocks_cover_every_class(self):
        spec = SyntheticSpec(n_videos=3, frames_per_video=400, embedding_dim=3,
                             class_count=8, seed=4, block_seconds=10.0)
        _, labels, _ = synth_tracks(spec)
        for per_video in labels.values():
            seen = {int(v[0]) for v in per_video.values()}
            assert seen == set(range(8))

    def test_priors_validation(self):
        with pytest.raises(ValueError, match="priors"):
            SyntheticSpec(class_count=3, priors=(0.5, 0.5))
        with pytest.raises(ValueError):
            SyntheticSpec(class_count=2, priors=(0.9, 0.2))

    def test_a_negative_seed_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SyntheticSpec(seed=-1)

    def test_partial_voicing_produces_runs(self):
        spec = SyntheticSpec(n_videos=1, frames_per_video=400, embedding_dim=3,
                             voiced_fraction=0.6, seed=5)
        _, _, masks = synth_tracks(spec)
        voiced = np.asarray(masks[0].voiced)
        assert voiced.any() and not voiced.all()
        assert voiced[0]  # runs start voiced


def _reference_va_video(rng, spec, mapping):
    """The np.clip walk synth._va_video replaced, kept verbatim."""
    n = spec.frames_per_video
    traj = np.empty((n, 2))
    cur = rng.uniform(-0.5, 0.5, size=2)
    steps = rng.normal(scale=synth.VA_STEP_SCALE, size=(n, 2))
    for t in range(n):
        cur = np.clip(cur + steps[t], -1.0, 1.0)
        traj[t] = cur
    emb = traj @ mapping
    if spec.noise > 0:
        emb = emb + spec.noise * rng.normal(size=(n, spec.embedding_dim))
    return emb, traj


class _GivenWalk:
    """Stands in for a Generator whose walk start and steps are given."""

    def __init__(self, start, steps, seed):
        self.start, self.steps = start, steps
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high, size):
        return np.array(self.start)

    def normal(self, scale=1.0, size=None):
        if scale == synth.VA_STEP_SCALE:
            return np.array(self.steps)
        return self.rng.normal(scale=scale, size=size)


class TestVaWalk:
    @pytest.mark.parametrize(
        "n_videos, frames, dim, voiced_fraction, noise",
        [(1, 1, 1, 1.0, 1.0), (3, 200, 4, 0.7, 0.0), (2, 57, 3, 1.0, 0.5),
         (5, 120, 8, 0.7, 1.0)],
    )
    def test_synth_matches_the_np_clip_walk(
        self, monkeypatch, n_videos, frames, dim, voiced_fraction, noise
    ):
        spec = SyntheticSpec(n_videos=n_videos, frames_per_video=frames,
                             embedding_dim=dim, task="va", noise=noise,
                             voiced_fraction=voiced_fraction, seed=frames)
        # long steps, so the walk is clamped at -1 and 1 often
        monkeypatch.setattr(synth, "VA_STEP_SCALE", 0.6)
        tracks, labels, masks = synth_tracks(spec)
        monkeypatch.setattr(synth, "_va_video", _reference_va_video)
        ref_tracks, ref_labels, ref_masks = synth_tracks(spec)
        for got, ref in zip(tracks, ref_tracks, strict=True):
            assert got.video_id == ref.video_id
            assert got.values.tobytes() == ref.values.tobytes()
        assert list(labels) == list(ref_labels)
        for vid in labels:
            assert list(labels[vid]) == list(ref_labels[vid])
            for frame, row in labels[vid].items():
                assert row.tobytes() == ref_labels[vid][frame].tobytes()
        for got, ref in zip(masks, ref_masks, strict=True):
            assert got.voiced.tobytes() == ref.voiced.tobytes()
        if frames > 1:
            walk = np.concatenate([np.array(list(v.values())) for v in labels.values()])
            assert (walk == 1.0).any() and (walk == -1.0).any()

    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_clamps_and_negative_zero_match_np_clip(self, noise):
        start = [-0.0, 0.5]
        steps = [[-0.0, 0.5], [-0.0, 0.25], [1.5, -0.0], [-3.0, -2.0], [0.0, 2.0],
                 [-0.0, -0.0], [1.0, -1.0], [-0.5, 0.75], [-0.5, 0.25]]
        spec = SyntheticSpec(frames_per_video=len(steps), embedding_dim=3,
                             task="va", noise=noise)
        mapping = np.random.default_rng(0).normal(size=(2, 3))
        emb, traj = synth._va_video(_GivenWalk(start, steps, 1), spec, mapping)
        ref_emb, ref_traj = _reference_va_video(_GivenWalk(start, steps, 1), spec,
                                                mapping)
        assert traj.tobytes() == ref_traj.tobytes()
        assert emb.tobytes() == ref_emb.tobytes()
        assert np.signbit(traj[:2, 0]).all()  # -0.0 carried through
        assert traj[1, 1] == 1.0 and traj[3, 0] == -1.0


class TestConfig:
    def test_defaults_fill_everything_but_task_and_paths(self, tmp_path):
        path = tmp_path / "minimal.yaml"
        path.write_text(yaml.safe_dump({
            "task": "expr",
            "paths": {"embeddings": "e.csv", "labels": "l.csv"},
            "split": {"dev_videos": ["d"]},
        }))
        config = load_config(path)
        assert config.fps_target == 5.0
        assert config.window.window_seconds == 4.0 and config.window.hop_seconds == 2.0
        assert config.postprocess.smooth_seconds == 0.5
        assert config.kelm.kernel == "rbf" and config.kelm.weighted
        assert config.normalization == "global_minmax"
        assert config.fusion.method == "mean" and config.fusion.pool_size == 10000
        assert config.functionals == ("mean", "max", "min")
        assert config.seed == 0 and config.workers == 1

    def test_flag_overrides_beat_file_values(self, tmp_path):
        path = _write_config(tmp_path, seed=3)
        config = load_config(path, seed=11, workers=4)
        assert config.seed == 11 and config.workers == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("task: expr\nwindowing: {}\n")
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path)

    def test_bad_enums_rejected(self, tmp_path):
        for snippet in ("task: banana", "normalization: zscore",
                        "fusion: {method: stacking}"):
            path = tmp_path / "c.yaml"
            path.write_text(snippet + "\n")
            with pytest.raises(ConfigError):
                load_config(path)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_config(tmp_path / "absent.yaml")

    def test_kelm_without_dev_split_rejected(self, tmp_path):
        path = _write_config(tmp_path, split={"dev_videos": []})
        with pytest.raises(ConfigError, match="dev"):
            load_config(path)

    def test_disabled_kelm_needs_base_predictions(self, tmp_path):
        path = _write_config(tmp_path, kelm={"enabled": False})
        with pytest.raises(ConfigError, match="base"):
            load_config(path)

    def test_hash_ignores_output_dir_and_workers(self, tmp_path):
        a = load_config(_write_config(tmp_path, "a.yaml"))
        b = load_config(_write_config(tmp_path, "b.yaml",
                                      output={"dir": str(tmp_path / "other")}),
                        workers=8)
        c = load_config(_write_config(tmp_path, "c.yaml", seed=8))
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"postprocess": {"video_fps": None}}, "config.postprocess.video_fps"),
            ({"kelm": {"enabled": "false"}}, "config.kelm.enabled"),
            ({"seed": 1.7}, "config.seed"),
            ({"split": {"dev_videos": "v003"}}, "config.split.dev_videos"),
            ({"paths": {"base_predictions": "ab.csv"}}, "config.paths.base_predictions"),
            ({"output": {"dir": None}}, "config.output.dir"),
            ({"synth": {"n_videos": 2.5}}, "config.synth.n_videos"),
            ({"fusion": {"tree_grid": [10, 2.5]}}, "config.fusion.tree_grid[1]"),
            ({"workers": True}, "config.workers"),
            ({"fps_target": 10**400}, "config.fps_target"),
            ({"window": []}, "config.window"),
            ({"synth": {"seed": 3}}, "config.synth"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_wrong_type_names_its_key(self, tmp_path, overrides, key):
        path = _write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"fps_target": float("inf")}, "config.fps_target"),
            ({"paths": {"source_fps": float("nan")}}, "config.paths.source_fps"),
            ({"window": {"hop_seconds": float("-inf")}}, "config.window.hop_seconds"),
            ({"kelm": {"gamma": float("nan")}}, "config.kelm.gamma"),
            ({"kelm": {"c_grid": [1.0, float("nan")]}}, "config.kelm.c_grid[1]"),
            ({"fusion": {"alpha": float("inf")}}, "config.fusion.alpha"),
            ({"postprocess": {"smooth_seconds": float("nan")}},
             "config.postprocess.smooth_seconds"),
            ({"postprocess": {"video_fps": {"v001": float("inf")}}},
             "config.postprocess.video_fps.v001"),
            ({"synth": {"noise": float("nan")}}, "config.synth.noise"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_non_finite_float_names_its_key(self, tmp_path, overrides, key):
        path = _write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(key) + " must be finite"):
            load_config(path)

    @pytest.mark.parametrize("c", [1e-310, 5e-324])
    def test_c_whose_reciprocal_overflows_rejected(self, tmp_path, c):
        path = _write_config(tmp_path, kelm={"c_grid": [1.0, c]})
        with pytest.raises(ConfigError, match="finite reciprocal"):
            load_config(path)

    def test_yaml_values_coerce_to_the_field_types(self, tmp_path):
        path = _write_config(
            tmp_path,
            fps_target=5,
            split={"dev_videos": [3]},
            kelm={"c_grid": [1, 10.5]},
            postprocess={"video_fps": {7: 25}},
            fusion=None,
        )
        config = load_config(path)
        assert config.fps_target == 5.0 and isinstance(config.fps_target, float)
        assert config.split.dev_videos == ("3",)
        assert config.kelm.c_grid == (1.0, 10.5)
        assert config.postprocess.video_fps == {"7": 25.0}
        assert config.fusion == load_config(_write_config(tmp_path)).fusion
        assert config.synth.seed == 7 and config.synth.fps == 5.0

    def test_synth_takes_seed_from_the_flag_override(self, tmp_path):
        config = load_config(_write_config(tmp_path, seed=3), seed=11)
        assert config.synth.seed == 11 and config.synth.task == "expr"

    def test_synth_float_written_as_int_hashes_like_the_float(self, tmp_path):
        a = load_config(_write_config(tmp_path, "a.yaml", synth={"noise": 1}))
        b = load_config(_write_config(tmp_path, "b.yaml", synth={"noise": 1.0}))
        assert isinstance(a.synth.noise, float)
        assert config_hash(a) == config_hash(b)

    # Hashes computed by the hand-written schema this loader replaced; a
    # change here renames every run directory of configs like these.
    README_CONFIG = """
task: expr            # or va
seed: 7
paths:
  embeddings: data/embeddings.csv
  labels: data/labels.csv
  vad: data/vad.csv   # optional voiced/unvoiced gate
split:
  dev_videos: [v004]
window: {window_seconds: 4.0, hop_seconds: 2.0}
fusion: {method: mean}       # mean | dwf | rf
synth:                       # only needed for `affectpipe synth`
  n_videos: 5
  frames_per_video: 600
  embedding_dim: 16
  noise: 1.0
output: {dir: runs}
"""
    EVERY_KEY_CONFIG = """
task: va
seed: 11
workers: 2
fps_target: 5
paths:
  embeddings: data/embeddings.csv
  labels: data/labels.csv
  vad: data/vad.csv
  base_predictions: [data/base_a.csv, data/base_b.csv]
  source_fps: 25
split:
  dev_videos: [v003, 7]
window: {window_seconds: 4, hop_seconds: 2.0}
functionals: [min, mean]
normalization: per_video_minmax
kelm: {enabled: true, kernel: rbf, gamma: 0.5, c_grid: [1, 10.0], weighted: false}
fusion: {method: dwf, pool_size: 500, alpha: 0.5, tree_grid: [3, 6]}
postprocess: {smooth_seconds: 1, target_fps: 30, video_fps: {v001: 25, 7: 29.97}}
output: {dir: elsewhere/runs}
synth:
  n_videos: 4
  frames_per_video: 320
  embedding_dim: 6
  class_count: 3
  noise: 0.5
  priors: [0.5, 0.5, 0]
  block_seconds: 16.0
  voiced_fraction: 0.8
"""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (README_CONFIG,
             "621844f386360b57277e4760c8ee20ebf72e5d7d730c6c54c0a1d312a72e01fb"),
            (EVERY_KEY_CONFIG,
             "4d613e09b455184c7db9b1bc73d35ddc71e6cd285843629e978addf898c8fb65"),
        ],
        ids=["readme", "every_key"],
    )
    def test_config_hash_is_stable(self, tmp_path, text, expected):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        assert config_hash(load_config(path)) == expected

    def test_exit_codes_are_distinct_per_family(self):
        families = [AffectPipeError, ConfigError, MissingInputError, AlignmentError,
                    TaskMismatchError, DataFormatError, SolverError]
        codes = [f.exit_code for f in families]
        assert codes == [1, 2, 3, 4, 5, 6, 7]


class TestEvaluateFiles:
    def _labels(self, tmp_path, name, rows, task="expr"):
        path = tmp_path / name
        write_label_csv(path, rows, task=task)
        return path

    def test_identical_expr_is_perfect(self, tmp_path):
        rows = {"a": {t: np.array([float(t % 4)]) for t in range(40)}}
        truth = self._labels(tmp_path, "t.csv", rows)
        pred = self._labels(tmp_path, "p.csv", rows)
        report = evaluate_files(pred, truth, "expr")
        assert report.accuracy == 1.0
        # classes 4..7 never occur, and absent classes count as 0 in the macro
        assert report.macro_f1 == 0.5
        assert all(report.per_class[c].f1 == 1.0 for c in range(4))

    def test_identical_va_is_perfect(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = {"a": {t: np.clip(rng.normal(size=2), -1, 1) for t in range(50)}}
        truth = self._labels(tmp_path, "t.csv", rows, task="va")
        pred = self._labels(tmp_path, "p.csv", rows, task="va")
        report = evaluate_files(pred, truth, "va")
        assert report.ccc_mean == 1.0

    def test_row_order_does_not_matter(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = {f"v{k}": {t: np.array([float(rng.integers(0, 4))]) for t in range(30)}
                for k in range(2)}
        pred_rows = {v: {t: np.array([float(rng.integers(0, 4))]) for t in range(30)}
                     for v in rows}
        truth = self._labels(tmp_path, "t.csv", rows)
        pred = self._labels(tmp_path, "p.csv", pred_rows)
        baseline = evaluate_files(pred, truth, "expr")
        lines = pred.read_text().strip().splitlines()
        shuffled = [lines[0]] + list(np.random.default_rng(2).permutation(lines[1:]))
        # a shuffled file has non-contiguous frames per video, which the
        # dict-based reader accepts; the join is purely key-based
        (tmp_path / "p2.csv").write_text("\n".join(shuffled) + "\n")
        again = evaluate_files(tmp_path / "p2.csv", truth, "expr")
        assert again == baseline

    def test_truth_invalid_rows_dropped(self, tmp_path):
        pred = self._labels(
            tmp_path, "p.csv", {"a": {t: np.array([0.0]) for t in range(4)}}
        )
        truth = tmp_path / "t.csv"
        truth.write_text(
            "video_id,frame,label\na,0,0\na,1,0\na,2,9\na,3,1\n"
        )
        report = evaluate_files(pred, truth, "expr")
        # frame 2 is invalid in truth, so 3 frames remain: 2 hits, 1 miss
        assert report.accuracy == pytest.approx(2.0 / 3.0)

    def test_truth_nan_row_dropped(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = {"a": {t: np.clip(rng.normal(size=2), -1, 1) for t in range(20)}}
        pred = self._labels(tmp_path, "p.csv", rows, task="va")
        lines = pred.read_text().splitlines()
        lines[5] = "a,4,nan,0.5"
        truth = tmp_path / "t.csv"
        truth.write_text("\n".join(lines) + "\n")
        report = evaluate_files(pred, truth, "va")
        # frame 4 is dropped from the truth; the other 19 frames match exactly
        assert report.ccc_mean == 1.0

    def test_empty_join_is_an_error(self, tmp_path):
        truth = self._labels(tmp_path, "t.csv", {"a": {0: np.array([0.0])}})
        pred = self._labels(tmp_path, "p.csv", {"b": {0: np.array([0.0])}})
        with pytest.raises(AlignmentError, match="share no"):
            evaluate_files(pred, truth, "expr")

    def test_rows_in_memory_drop_what_the_read_drops(self, tmp_path):
        rng = np.random.default_rng(4)
        truth = {"a": {t: np.clip(rng.normal(size=2), -1, 1) for t in range(20)}}
        pred = {"a": {t: np.clip(rng.normal(size=2), -1, 1) for t in range(20)}}
        pred["a"][5] = np.array([1.0000000000000002, 0.5])
        truth_file = self._labels(tmp_path, "truth.csv", truth, task="va")
        pred_file = self._labels(tmp_path, "pred.csv", pred, task="va")
        from_files = evaluate_files(pred_file, truth_file, "va")
        in_memory = evaluate_files(pred_file, truth_file, "va",
                                   pred={"a": LabelRows.from_dict(pred["a"])},
                                   truth=read_label_csv(truth_file, "va"))
        without_row = {"a": LabelRows.from_dict(
            {t: v for t, v in pred["a"].items() if t != 5})}
        assert in_memory == from_files
        assert from_files == evaluate_files(pred_file, truth_file, "va", pred=without_row)
        # rows given in memory need no file
        assert from_files == evaluate_files(None, None, "va",
                                            pred={"a": LabelRows.from_dict(pred["a"])},
                                            truth=read_label_csv(truth_file, "va"))

    @pytest.mark.parametrize("task", ["expr", "va"])
    @pytest.mark.parametrize("seed", range(4))
    def test_join_matches_the_per_frame_join_it_replaced(self, tmp_path, task, seed):
        rng = np.random.default_rng([seed, 8])
        truth, pred = _random_label_rows(rng, task), _random_label_rows(rng, task)
        truth_file = self._labels(tmp_path, "truth.csv", truth, task=task)
        pred_file = self._labels(tmp_path, "pred.csv", pred, task=task)
        expected = _per_frame_join(dict_read_label_csv(pred_file, task)[0],
                                   dict_read_label_csv(truth_file, task)[0], task)
        assert evaluate_files(pred_file, truth_file, task) == expected
        in_memory = {vid: LabelRows.from_dict(rows) for vid, rows in pred.items()}
        assert evaluate_files(pred_file, truth_file, task, pred=in_memory,
                              truth=read_label_csv(truth_file, task)) == expected

    def test_wrong_task_file_is_a_task_mismatch(self, tmp_path):
        rows = {"a": {0: np.array([0.1, 0.2]), 1: np.array([0.0, 0.0])}}
        va_file = self._labels(tmp_path, "va.csv", rows, task="va")
        with pytest.raises(TaskMismatchError):
            evaluate_files(va_file, va_file, "expr")


def _random_label_rows(rng, task):
    """{video: {frame: row}} over shared and own videos and frames: each side
    misses frames of the other and adds frames the other lacks, and about
    one row in twenty is invalid."""
    rows = {}
    for vid in ["v0", "v1", "v2", f"only{rng.integers(2)}"]:
        frames = np.flatnonzero(rng.random(60) < 0.7) + int(rng.integers(0, 3))
        if task == "expr":
            values = rng.integers(0, N_EXPR_CLASSES, size=(len(frames), 1)).astype(float)
            values[rng.random(len(frames)) < 0.05] = 9.0
        else:
            values = rng.uniform(-1, 1, size=(len(frames), 2))
            values[rng.random(len(frames)) < 0.05] = 1.5
        rows[vid] = dict(zip(frames.tolist(), values))
    return rows


def _per_frame_join(pred, truth, task):
    """The frame-by-frame join evaluate_files replaced, kept verbatim."""
    t_rows, p_rows = [], []
    for vid in sorted(set(pred) & set(truth)):
        for frame in sorted(set(pred[vid]) & set(truth[vid])):
            t_rows.append(truth[vid][frame])
            p_rows.append(pred[vid][frame])
    if not t_rows:
        raise AlignmentError(
            "evaluate stage: predictions and truth share no (video_id, frame) keys"
        )
    t = np.array(t_rows)
    p = np.array(p_rows)
    if task == "expr":
        return classification_report(
            t[:, 0].astype(np.int64), p[:, 0].astype(np.int64), n_classes=N_EXPR_CLASSES
        )
    return va_report(t, p)


class TestSpreadWindowScores:
    """Windows of 4 frames at a hop of 2: the row of the window that starts
    at frame s covers frames s + 1 and s + 2."""

    @staticmethod
    def _spread(starts, scores, n_frames):
        return pipeline._spread_window_scores(
            starts, np.array(scores, dtype=np.float64), n_frames, 4, 2)

    def test_frames_before_the_first_span_and_after_the_last_hold_its_row(self):
        out = self._spread([2, 4], [[1.0, -1.0], [3.0, 5.0]], 10)
        np.testing.assert_array_equal(out, [[1.0, -1.0]] * 5 + [[3.0, 5.0]] * 5)

    def test_an_unvoiced_gap_is_interpolated_linearly(self):
        # spans 1-2 and 7-8; frames 3-6 lie between frames 2 and 7
        out = self._spread([0, 6], [[0.0, 10.0], [5.0, 0.0]], 10)
        np.testing.assert_allclose(out[:, 0], [0, 0, 0, 1, 2, 3, 4, 5, 5, 5])
        np.testing.assert_allclose(out[:, 1], [10, 10, 10, 8, 6, 4, 2, 0, 0, 0])

    def test_spans_are_clamped_at_n_frames(self):
        # the span of the window at 6 is cut to frame 7; the one at 8 is empty
        out = self._spread([0, 6, 8], [[0.0], [5.0], [9.0]], 8)
        np.testing.assert_allclose(out[:, 0], [0, 0, 0, 1, 2, 3, 4, 5])

    def test_no_span_inside_the_frame_range_raises(self):
        with pytest.raises(AlignmentError, match="no window span lands inside"):
            self._spread([5, 10], [[1.0], [2.0]], 6)

    def test_a_row_count_other_than_the_window_count_raises(self):
        with pytest.raises(AlignmentError, match="1 score rows for 2 windows"):
            self._spread([0, 2], [[1.0]], 6)

    def test_a_nan_in_column_0_is_a_score_not_a_gap(self):
        out = self._spread([0, 2, 4], [[0.0, 0.0], [np.nan, 7.0], [4.0, 8.0]], 7)
        assert np.isnan(out[3:5, 0]).all()
        np.testing.assert_array_equal(out[3:5, 1], [7.0, 7.0])
        np.testing.assert_array_equal(out[[0, 1, 2, 5, 6]],
                                      [[0, 0]] * 3 + [[4, 8]] * 2)


class TestRunPipeline:
    def test_expr_run_reports_in_range_and_writes_manifest(self, tmp_path):
        config = load_config(_write_config(tmp_path, synth={"noise": 1.0}))
        _synth_from(config)
        result = run_pipeline(config)
        assert 0.0 <= result.report.macro_f1 <= 1.0
        manifest = json.loads((result.run_dir / "manifest.json").read_text())
        assert manifest["outputs_hash"] == result.manifest["outputs_hash"]
        assert "kelm_scores.npy" in manifest["outputs"]

    def test_fuse_slices_from_the_labels_the_windows_kelm_slices(self, tmp_path):
        config = load_config(_write_config(tmp_path, synth={"voiced_fraction": 0.7}))
        _synth_from(config)
        truth, vad = pipeline._read_truth(config), pipeline._read_vad(config)
        batches, _ = pipeline.stage_window(config, truth, vad)
        tracks = read_track_csv(config.paths.embeddings, fps=config.fps_target,
                                kind="embedding")
        labels = pipeline._truth_at_working_rate(config, truth, sorted(truth), "fuse")
        padded = 0
        for vid in sorted(tracks):
            expected = slice_windows(tracks[vid], config.window_spec,
                                     segments=voiced_segments(vad[vid]))
            again = pipeline._voiced_windows(config, labels[vid], vad, "fuse",
                                             "the label track")
            for batch in (batches[vid], again):
                assert batch.starts == expected.starts
                assert batch.n_real.tolist() == expected.n_real.tolist()
            padded += int((~expected.pad_mask).any(axis=1).sum())
        assert padded > 0

    def test_run_never_stacks_a_window_payload(self, tmp_path, monkeypatch):
        path = _write_config(tmp_path, synth={"voiced_fraction": 0.7},
                             window={"window_seconds": 4.0, "hop_seconds": 2.0})
        _synth_from(load_config(path))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "a")]) == 0

        def stacked(batch):
            raise AssertionError("the pipeline built a padded window view")

        monkeypatch.setattr(WindowBatch, "payload", property(stacked))
        monkeypatch.setattr(WindowBatch, "pad_mask", property(stacked))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "b")]) == 0
        [a], [b] = ((tmp_path / side).glob("run-*/manifest.json") for side in "ab")
        assert a.read_bytes() == b.read_bytes()

    def test_run_parses_each_input_file_once(self, tmp_path, monkeypatch):
        bases = _base_paths(tmp_path, 2)
        config = load_config(_write_config(
            tmp_path, fusion={"method": "dwf", "pool_size": 200},
            paths={"base_predictions": bases}))
        _synth_from(config)
        _write_base_predictions(config)
        calls, parsed, given = {}, [], []
        for name in ("read_label_csv", "read_track_csv", "read_vad_csv",
                     "_read_kelm_scores"):
            def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                result = _fn(*args, **kwargs)
                if _name == "read_vad_csv":
                    parsed.append(result)
                return result

            monkeypatch.setattr(pipeline, name, counted)
        for name in ("stage_window", "stage_fuse"):
            def handed(*args, _fn=getattr(pipeline, name)):
                given.append(args[-1])
                return _fn(*args)

            monkeypatch.setattr(pipeline, name, handed)
        run_pipeline(config)
        # fuse reads what kelm wrote, as a staged fuse does
        assert calls == {"read_label_csv": 1, "read_track_csv": 1 + len(bases),
                         "read_vad_csv": 1, "_read_kelm_scores": 1}
        # both commands slice their windows over the one parsed VAD
        assert len(given) == 2 and all(vad is parsed[0] for vad in given)

    @pytest.mark.parametrize("vad", ["absent", "not-a-vad"])
    def test_a_fusion_only_run_never_parses_the_vad(self, tmp_path, monkeypatch, vad):
        cfg = yaml.safe_load(_write_va_fusion_only(tmp_path, "dwf").read_text())
        cfg["paths"]["vad"] = str(tmp_path / "vad.csv")
        if vad == "not-a-vad":
            (tmp_path / "vad.csv").write_bytes(b"\xff not a VAD\n")
        path = tmp_path / "with-vad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        monkeypatch.setattr(pipeline, "read_vad_csv", None)  # never reached
        for command in ("run", "fuse"):
            assert main([command, "--config", str(path),
                         "--out-dir", str(tmp_path / command)]) == 0

    @pytest.mark.parametrize("method, fuser, dev_videos", [
        ("mean", "mean_fusion", ()),
        ("dwf", "apply_fusion", ("v001", "v002")),
        ("rf", "stack_and_fuse_rf", ("v001", "v002")),
    ])
    def test_run_fuses_every_video_in_one_call(self, tmp_path, monkeypatch, method, fuser,
                                               dev_videos):
        path = _write_va_fusion_only(tmp_path, method, dev_videos=dev_videos)
        rows = []

        def counted(preds, *args, _fn=getattr(pipeline, fuser), **kwargs):
            rows.append(len(preds[0]))
            return _fn(preds, *args, **kwargs)

        monkeypatch.setattr(pipeline, fuser, counted)
        made = _capture_fused(monkeypatch)
        run_pipeline(load_config(path))
        [fused] = made
        assert sorted(fused) == sorted(dev_videos or ["v000", "v001", "v002"])
        assert rows == [sum(track.n_frames for track in fused.values())]

    def test_staged_run_parses_the_embeddings_once(self, tmp_path, monkeypatch):
        bases = _base_paths(tmp_path, 2)
        path = _write_config(tmp_path, fusion={"method": "dwf", "pool_size": 200},
                             paths={"base_predictions": bases})
        config = load_config(path)
        _synth_from(config)
        _write_base_predictions(config)
        reads = []

        def counted(file, *args, _fn=pipeline.read_track_csv, **kwargs):
            reads.append(Path(file))
            return _fn(file, *args, **kwargs)

        monkeypatch.setattr(pipeline, "read_track_csv", counted)
        commands = [stage.name for stage in planned_stages(config)]
        assert commands == ["kelm", "fuse"]
        for command in commands:
            assert main([command, "--config", str(path)]) == 0
        assert reads.count(Path(config.paths.embeddings)) == 1
        assert sorted(reads) == sorted(map(Path, [config.paths.embeddings, *bases]))

    @pytest.mark.parametrize("command", ["run", "fuse"])
    def test_fuse_starts_from_the_config_the_staging_directory_and_the_labels(
        self, tmp_path, monkeypatch, command
    ):
        path = _write_va_fusion_only(tmp_path, "dwf")
        parsed, calls = [], []
        staging = _record_staging(monkeypatch)

        def read_truth(config, _fn=pipeline._read_truth):
            parsed.append(_fn(config))
            return parsed[-1]

        def fuse(*args, _fn=pipeline.stage_fuse, **kwargs):
            calls.append((args, kwargs))
            return _fn(*args, **kwargs)

        for module in (pipeline, cli):
            monkeypatch.setattr(module, "_read_truth", read_truth)
        monkeypatch.setattr(pipeline, "stage_fuse", fuse)
        assert main([command, "--config", str(path)]) == 0
        [((config, out_dir, truth, vad), kwargs)] = calls
        assert kwargs == {} and config == load_config(path)
        assert out_dir == staging[-1] and truth is parsed[-1] and vad is None

    @pytest.mark.parametrize("commands", [["run"], ["kelm", "fuse"]], ids=["run", "staged"])
    def test_no_stage_function_writes_a_file(self, tmp_path, monkeypatch, commands):
        bases = _base_paths(tmp_path, 1)
        path = _write_config(tmp_path, fusion={"method": "dwf", "pool_size": 50},
                             paths={"base_predictions": bases})
        config = load_config(path)
        _synth_from(config)
        _write_base_predictions(config)
        for cmd in commands:
            assert main([cmd, "--config", str(path), "--out-dir", str(tmp_path / "plain")]) == 0
        staging, changed, called = _record_staging(monkeypatch), [], []

        def listing():
            return {p.name: p.stat().st_size for p in staging[-1].iterdir()}

        for name in ("stage_window", "stage_features", "stage_train_kelm",
                     "stage_predict_kelm", "stage_fuse", "stage_postprocess",
                     "stage_evaluate"):
            def watched(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
                called.append(_name)
                before = listing()
                result = _fn(*args, **kwargs)
                if listing() != before:
                    changed.append(_name)
                return result

            monkeypatch.setattr(pipeline, name, watched)
        for cmd in commands:
            assert main([cmd, "--config", str(path), "--out-dir", str(tmp_path / "wrapped")]) == 0
        assert len(called) == 7 and changed == []
        plain, wrapped = (_file_digests(next((tmp_path / side).iterdir()))
                          for side in ("plain", "wrapped"))
        for digests in (plain, wrapped):  # the seconds a run took
            digests.pop("timings.json", None)
        assert plain == wrapped

    def test_the_window_batches_are_freed_before_training(self, tmp_path, monkeypatch):
        config = load_config(_write_config(tmp_path, fusion={"method": "mean"}))
        _synth_from(config)
        batches, alive, made_by_kelm = [], [], []

        def sliced(*args, _fn=pipeline.slice_windows, **kwargs):
            batch = _fn(*args, **kwargs)
            batches.append(weakref.ref(batch))
            return batch

        def train(*args, _fn=pipeline.stage_train_kelm, **kwargs):
            gc.collect()
            made_by_kelm.append(len(batches))
            alive.extend(ref() for ref in batches if ref() is not None)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, "slice_windows", sliced)
        monkeypatch.setattr(pipeline, "stage_train_kelm", train)
        run_pipeline(config)
        # kelm slices every video before training, fuse the dev videos after
        assert made_by_kelm == [config.synth.n_videos] and alive == []
        assert len(batches) == config.synth.n_videos + len(config.split.dev_videos)

    def test_timings_are_keyed_by_the_command_names(self, tmp_path):
        config = load_config(_write_config(tmp_path, fusion={"method": "dwf",
                                                             "pool_size": 200}))
        _synth_from(config)
        result = run_pipeline(config)
        timings = json.loads((result.run_dir / "timings.json").read_text())
        assert list(timings) == ["kelm", "fuse"]
        assert [stage.name for stage in planned_stages(config)] == list(timings)

    @pytest.mark.parametrize("task", ["expr", "va"])
    def test_one_model_dwf_writes_what_the_full_search_writes(
        self, tmp_path, monkeypatch, task
    ):
        overrides = {"task": task, "fusion": {"method": "dwf", "pool_size": 300}}
        if task == "va":
            overrides.update(synth={"n_videos": 3, "frames_per_video": 200,
                                    "noise": 0.05},
                             split={"dev_videos": ["v002"]})
        path = _write_config(tmp_path, **overrides)
        config = load_config(path)
        _synth_from(config)
        made = _capture_fused(monkeypatch)
        shortcut = run_pipeline(config).run_dir
        monkeypatch.setattr(pipeline, "dwf_search", reference_dwf_search)
        loop = run_pipeline(load_config(path, out_dir=str(tmp_path / "loop"))).run_dir
        for rel in ("dwf_info.csv", "fusion_matrix.csv"):
            assert (shortcut / rel).read_bytes() == (loop / rel).read_bytes()
        assert _fused_rows(made[0]) == _fused_rows(made[1])

    def test_separable_run_is_perfect_on_held_out_video(self, tmp_path):
        # 640 frames at 5 fps with 16 s blocks = 8 blocks; every class shows
        # up once per video and each block spans whole 2 s windows
        config = load_config(_write_config(
            tmp_path,
            synth={"n_videos": 4, "frames_per_video": 640, "embedding_dim": 6,
                   "class_count": 8, "noise": 0.0, "block_seconds": 16.0},
        ))
        _synth_from(config)
        result = run_pipeline(config)
        assert result.report.macro_f1 == 1.0
        assert result.report.accuracy == 1.0

    def test_rerun_same_seed_identical_manifest(self, tmp_path):
        path_a = _write_config(tmp_path, "a.yaml")
        path_b = _write_config(tmp_path, "b.yaml",
                               output={"dir": str(tmp_path / "runs_b")})
        config_a = load_config(path_a)
        _synth_from(config_a)
        res_a = run_pipeline(config_a)
        res_b = run_pipeline(load_config(path_b))
        assert (res_a.run_dir / "manifest.json").read_bytes() == (
            res_b.run_dir / "manifest.json"
        ).read_bytes()

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        path = _write_config(tmp_path)
        config = load_config(path)
        _synth_from(config)
        res_1 = run_pipeline(load_config(path, workers=1,
                                         out_dir=str(tmp_path / "w1")))
        res_2 = run_pipeline(load_config(path, workers=3,
                                         out_dir=str(tmp_path / "w2")))
        assert res_1.manifest["outputs_hash"] == res_2.manifest["outputs_hash"]

    def test_seed_changes_the_run_directory(self, tmp_path):
        config_a = load_config(_write_config(tmp_path, "a.yaml", seed=1))
        config_b = load_config(_write_config(tmp_path, "b.yaml", seed=2))
        assert config_a.run_dir() != config_b.run_dir()

    def test_fusion_only_mean_equals_smoothed_base(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 60
        base = FrameTrack("a", 5.0, rng.normal(size=(n, 8)), kind="class_scores")
        write_track_csv(tmp_path / "base.csv", [base])
        truth_rows = {"a": {t: np.array([float(rng.integers(0, 8))]) for t in range(n)}}
        write_label_csv(tmp_path / "labels.csv", truth_rows, task="expr")
        cfg = {
            "task": "expr",
            "paths": {"labels": str(tmp_path / "labels.csv"),
                      "base_predictions": [str(tmp_path / "base.csv")]},
            "kelm": {"enabled": False},
            "fusion": {"method": "mean"},
            "output": {"dir": str(tmp_path / "runs")},
        }
        path = tmp_path / "fuse.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = run_pipeline(load_config(path))
        expected = hamming_smooth(base, SmoothingSpec(0.5)).values.argmax(axis=1)
        got = np.loadtxt(result.run_dir / "predictions.csv", delimiter=",",
                         skiprows=1, usecols=2, dtype=np.int64)
        np.testing.assert_array_equal(got, expected)

    def test_va_run_round_trips(self, tmp_path):
        path = _write_config(
            tmp_path,
            task="va",
            window={"window_seconds": 4.0, "hop_seconds": 2.0},
            synth={"n_videos": 3, "frames_per_video": 200, "embedding_dim": 6,
                   "noise": 0.05},
            split={"dev_videos": ["v002"]},
        )
        config = load_config(path)
        _synth_from(config)
        result = run_pipeline(config)
        assert -1.0 <= result.report.ccc_mean <= 1.0
        pred = (result.run_dir / "predictions.csv").read_text().splitlines()
        assert pred[0] == "video_id,frame,valence,arousal"
        assert len(pred) == 1 + 200  # the evaluated (dev) video only

    def test_dwf_and_rf_methods_run(self, tmp_path):
        base_path = _write_config(tmp_path, synth={"noise": 0.5})
        config = load_config(base_path)
        _synth_from(config)
        for method, extra in (("dwf", {"pool_size": 200}), ("rf", {"tree_grid": [5, 10]})):
            path = _write_config(
                tmp_path, f"{method}.yaml",
                fusion={"method": method, **extra},
                synth={"noise": 0.5},
                output={"dir": str(tmp_path / f"runs_{method}")},
            )
            result = run_pipeline(load_config(path))
            assert 0.0 <= result.report.macro_f1 <= 1.0
            info = "dwf_info.csv" if method == "dwf" else "rf_info.csv"
            rows = (result.run_dir / info).read_text().splitlines()
            keys = [row.partition(",")[0] for row in rows]
            assert keys == (["metric", "pool_size", "winner_index", "winner_score",
                             "runner_up_score", "n_tied", "selector"] if method == "dwf"
                            else ["metric", "n_trees", "oob_score", "oob_macro_f1",
                                  "dev_score", "overfit_gap", "expr_n_trees",
                                  "expr_oob_rows_fraction", "expr_oob_score_at_5",
                                  "expr_oob_score_at_10"])


def _script_entry_point(pyproject: Path) -> str:
    """The `module:attr` of the `affectpipe` line of [project.scripts],
    read without tomllib, which Python 3.10 lacks."""
    text = pyproject.read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    [spec] = re.findall(r'^affectpipe\s*=\s*"([^"]+)"\s*$', section, re.M)
    return spec


class TestCli:
    def _prepare(self, tmp_path, **overrides):
        path = _write_config(tmp_path, **overrides)
        assert main(["synth", "--config", str(path)]) == 0
        return path

    _VA = {
        "task": "va",
        "window": {"window_seconds": 4.0, "hop_seconds": 2.0},
        "synth": {"n_videos": 3, "frames_per_video": 200, "noise": 0.05},
        "split": {"dev_videos": ["v002"]},
    }

    def _staged_equals_single_shot(self, tmp_path, monkeypatch, path, stage_cmds=None):
        """Run `path` in one shot and by `stage_cmds`, by default the
        config's planned stage commands; compare every output and the
        fused table each fuse held."""
        made = _capture_fused(monkeypatch)
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "single")]) == 0
        for cmd in stage_cmds or [s.name for s in planned_stages(load_config(path))]:
            assert main([cmd, "--config", str(path),
                         "--out-dir", str(tmp_path / "staged")]) == 0
        run_a = next((tmp_path / "single").iterdir())
        run_b = next((tmp_path / "staged").iterdir())
        assert run_a.name == run_b.name
        outputs = json.loads((run_a / "manifest.json").read_text())["outputs"]
        del outputs["config.json"]  # written by `run` alone
        assert outputs == _file_digests(run_b)
        single, staged = made
        assert _fused_rows(single) == _fused_rows(staged)
        return outputs

    @pytest.mark.parametrize(
        "overrides, n_bases",
        [
            ({}, 0),
            (_VA, 0),
            ({"fusion": {"method": "dwf", "pool_size": 200}}, 1),
            ({**_VA, "fusion": {"method": "rf", "tree_grid": [3, 5]}}, 1),
        ],
        ids=["expr", "va", "expr-dwf", "va-rf"],
    )
    def test_staged_commands_reproduce_the_single_shot_run(
        self, tmp_path, monkeypatch, overrides, n_bases
    ):
        path = _write_config(
            tmp_path, paths={"base_predictions": _base_paths(tmp_path, n_bases)}, **overrides
        )
        assert main(["synth", "--config", str(path)]) == 0
        _write_base_predictions(load_config(path))
        outputs = self._staged_equals_single_shot(tmp_path, monkeypatch, path)
        assert {"selection.csv", "kelm_scores.npy", "predictions.csv",
                "report.csv"} <= set(outputs)
        # the window-level arrays stay in the kelm command's memory, the
        # fused table in the fuse command's, and fuse slices the windows again
        assert not {"windows.csv", "features.npy", "window_targets.npy", "models/kelm.csv",
                    "scaler.csv", "fused.csv", "fused.npy", "fused_index.csv"} & set(outputs)

    @pytest.mark.parametrize("method", ["mean", "dwf", "rf"])
    def test_staged_fusion_only_run_reproduces_the_single_shot_run(
        self, tmp_path, monkeypatch, method
    ):
        path = _write_va_fusion_only(tmp_path, method)
        outputs = self._staged_equals_single_shot(tmp_path, monkeypatch, path, ["fuse"])
        assert {"predictions.csv", "report.csv"} <= set(outputs)
        assert not {"windows.csv", "fused.csv", "fused.npy", "fused_index.csv"} & set(outputs)

    @pytest.mark.parametrize("overrides", [{}, _VA], ids=["expr", "va"])
    def test_repeated_and_invalid_label_rows_stage_like_the_single_shot(
        self, tmp_path, monkeypatch, overrides
    ):
        path = self._prepare(tmp_path, **overrides)
        labels = Path(load_config(path).paths.labels)
        lines = labels.read_text().splitlines()
        n_frames = load_config(path).synth.frames_per_video
        dev = load_config(path).split.dev_videos[0]
        first = next(line for line in lines if line.startswith(f"{dev},7,"))
        if "task" in overrides:
            repeated, invalid = f"{dev},7,0.5,-0.25", "1.5,0"
        else:
            repeated, invalid = f"{dev},7,{(int(first.split(',')[2]) + 1) % 4}", "9"
        lines += [
            repeated,  # the last valid row of a repeated frame wins
            f"{dev},8,{invalid}",  # an invalid repeat keeps the earlier row
            f"{dev},{n_frames},{invalid}",  # an out-of-range row past the end
        ]
        labels.write_text("\n".join(lines) + "\n")
        outputs = self._staged_equals_single_shot(tmp_path, monkeypatch, path)
        assert {"predictions.csv", "report.csv"} <= set(outputs)
        task = load_config(path).task
        truth, dropped = dict_read_label_csv(labels, task)
        assert dropped == 2
        run_dir = next((tmp_path / "single").iterdir())
        pred, _ = dict_read_label_csv(run_dir / "predictions.csv", task)
        expected = _per_frame_join(pred, truth, task)
        assert evaluate_files(run_dir / "predictions.csv", labels, task) == expected

    def test_any_video_id_survives_the_staged_run(self, tmp_path, monkeypatch):
        path = self._prepare(tmp_path)
        # v003 stays: it is the dev video the config names
        _rename_videos(load_config(path), {"v000": "a b", "v001": 'q"u,o', "v002": "l\nf"})
        outputs = self._staged_equals_single_shot(tmp_path, monkeypatch, path)
        assert "kelm_scores.npy" in outputs

    @pytest.mark.parametrize(
        "command, damage, code, message",
        [
            ("fuse", _truncate_kelm_scores, 6, "not a loadable .npy array"),
            ("fuse", _object_kelm_scores, 6, "not a loadable .npy array"),
            ("fuse", _kelm_scores_one_row_short, 4, "rerun the kelm stage"),
            ("fuse", _nan_kelm_score, 6, "kelm_scores.npy: video 'v003': "),
            ("fuse", _no_kelm_scores, 3, "kelm stage output not found"),
            ("fuse", _kelm_scores_of_every_video, 4,
             "has 128 rows, expected 32 dev windows; rerun the kelm stage"),
            ("fuse", _frame_level_kelm_scores, 4,
             "has 320 rows, expected 32 dev windows; rerun the kelm stage"),
        ],
        ids=["truncated-kelm-scores", "object-kelm-scores",
             "kelm-scores-one-row-short", "nan-kelm-score", "no-kelm-scores",
             "kelm-scores-of-every-video", "frame-level-kelm-scores"],
    )
    def test_damaged_intermediate_exits_with_its_family(
        self, tmp_path, capsys, command, damage, code, message
    ):
        path = self._prepare(tmp_path, fusion={"method": "dwf", "pool_size": 50})
        assert main(["kelm", "--config", str(path)]) == 0
        config = load_config(path)
        damage(config)
        assert main([command, "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert str(config.run_dir()) in err and message in err

    def test_staged_fuse_needs_no_selection_csv(self, tmp_path, monkeypatch):
        # kelm writes it as the record of the chosen C; no command reads it
        path = self._prepare(tmp_path, fusion={"method": "dwf", "pool_size": 50})
        made = _capture_fused(monkeypatch)
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "single")]) == 0
        staged = ["--config", str(path), "--out-dir", str(tmp_path / "staged")]
        assert main(["kelm", *staged]) == 0
        run_b = next((tmp_path / "staged").iterdir())
        (run_b / "selection.csv").unlink()
        assert main(["fuse", *staged]) == 0
        single, staged = made
        assert _fused_rows(single) == _fused_rows(staged)

    # every run writes these; a KELM run adds _KELM_FILES
    _RUN_FILES = {"config.json", "manifest.json", "timings.json", "predictions.csv",
                  "report.csv", "report.txt"}
    _KELM_FILES = {"selection.csv", "kelm_scores.npy"}

    @staticmethod
    def _run_files(path):
        assert main(["run", "--config", str(path)]) == 0
        run_dir = load_config(path).run_dir()
        # every CSV the run writes ends its lines with LF
        assert [p.name for p in run_dir.glob("*.csv") if b"\r" in p.read_bytes()] == []
        return {str(p.relative_to(run_dir)) for p in run_dir.rglob("*")}

    @pytest.mark.parametrize("method, files", [
        ("dwf", {"dwf_info.csv", "fusion_matrix.csv"}),
        ("rf", {"rf_info.csv"}),
        ("mean", {"fusion_matrix.csv"}),
    ])
    def test_a_kelm_run_directory_holds_exactly_these_files(self, tmp_path, method, files):
        path = self._prepare(tmp_path, fusion={"method": method, "pool_size": 50,
                                               "tree_grid": [2, 3]})
        assert self._run_files(path) == self._RUN_FILES | self._KELM_FILES | files

    def test_a_fusion_only_dwf_run_directory_holds_exactly_these_files(self, tmp_path):
        path = _write_va_fusion_only(tmp_path, "dwf")
        assert self._run_files(path) == self._RUN_FILES | {"dwf_info.csv",
                                                            "fusion_matrix.csv"}

    @pytest.mark.parametrize("fusion_only", [False, True], ids=["kelm", "fusion-only"])
    def test_a_reused_run_directory_keeps_an_older_versions_files_unlisted(
        self, tmp_path, fusion_only
    ):
        if fusion_only:
            path = _write_va_fusion_only(tmp_path, "dwf")
        else:
            path = self._prepare(tmp_path, fusion={"method": "dwf", "pool_size": 50})
        run_dir = load_config(path).run_dir()
        assert main(["run", "--config", str(path)]) == 0
        first = json.loads((run_dir / "manifest.json").read_text())["outputs"]
        # what older versions wrote and no command writes or removes now
        stale = {name: f"older {name}".encode() for name in
                 ("fused.npy", "fused_index.csv", "scaler.csv", "kelm_beta.npy",
                  "windows.csv")}
        for name, data in stale.items():
            (run_dir / name).write_bytes(data)
        assert main(["run", "--config", str(path)]) == 0
        assert {name: (run_dir / name).read_bytes() for name in stale} == stale
        outputs = json.loads((run_dir / "manifest.json").read_text())["outputs"]
        assert outputs.keys() == first.keys() and not stale.keys() & outputs.keys()
        digests = _file_digests(run_dir)
        assert {name: digests[name] for name in outputs} == outputs

    @pytest.mark.parametrize("fusion_only", [False, True], ids=["kelm", "fusion-only"])
    def test_dwf_info_records_the_search(self, tmp_path, monkeypatch, fusion_only):
        searches = []

        def recorded(pool, *args, _search=pipeline.dwf_search, **kwargs):
            searches.append((pool, *_search(pool, *args, **kwargs)))
            return searches[-1][1:]

        monkeypatch.setattr(pipeline, "dwf_search", recorded)
        if fusion_only:
            path, names = _write_va_fusion_only(tmp_path, "dwf"), ["a", "b"]
        else:
            path, names = self._prepare(tmp_path, fusion={"method": "dwf",
                                                          "pool_size": 50}), ["kelm"]
        assert main(["run", "--config", str(path)]) == 0
        [(pool, matrix, score, scores)] = searches
        with (load_config(path).run_dir() / "dwf_info.csv").open(newline="") as fh:
            rows = dict(csv.reader(fh))
        assert list(rows) == ["metric", "pool_size", "winner_index", "winner_score",
                              "runner_up_score", "n_tied", "selector"]
        i = int(rows["winner_index"])
        assert int(rows["pool_size"]) == len(pool) == len(scores)
        assert float(rows["winner_score"]) == score == scores[i]
        assert pool.weights[i].tobytes() == matrix.weights.tobytes()
        assert float(rows["runner_up_score"]) == np.delete(scores, i).max()
        assert int(rows["n_tied"]) == (scores == score).sum()
        copied = [name for name, w in zip(names, matrix.weights) if (w == 1.0).all()]
        assert rows["selector"] == "".join(copied)
        if not fusion_only:  # one model: every matrix is the KELM's selector
            assert rows["n_tied"] == rows["pool_size"] == "51"
            assert rows["selector"] == "kelm"
            assert rows["runner_up_score"] == rows["winner_score"]

    @pytest.mark.parametrize("method", ["dwf", "mean"])
    def test_fusion_matrix_csv_holds_each_models_weights(self, tmp_path, method):
        path = self._prepare(tmp_path, fusion={"method": method, "pool_size": 50},
                             paths={"base_predictions": _base_paths(tmp_path, 2)})
        config = load_config(path)
        _write_base_predictions(config)
        assert main(["run", "--config", str(path)]) == 0
        with (config.run_dir() / "fusion_matrix.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["model", *(f"c{k}" for k in range(N_EXPR_CLASSES))]
        assert [row[0] for row in rows] == ["kelm", "base_0", "base_1"]
        weights = np.array([row[1:] for row in rows], dtype=np.float64)
        if method == "dwf":
            with (config.run_dir() / "dwf_info.csv").open(newline="") as fh:
                winner = int(dict(csv.reader(fh))["winner_index"])
            expected = sample_pool(3, N_EXPR_CLASSES, pool_size=50, alpha=config.fusion.alpha,
                                   seed=config.seed).weights[winner]
        else:
            expected = np.full((3, N_EXPR_CLASSES), 1 / 3)
        assert weights.tobytes() == expected.tobytes()

    def test_rf_info_records_each_heads_trees_rows_seen_and_grid_scores(
        self, tmp_path, monkeypatch, caplog
    ):
        infos = []

        def recorded(*args, _fn=pipeline.stack_and_fuse_rf, **kwargs):
            fused, info = _fn(*args, **kwargs)
            infos.append(info)
            return fused, info

        monkeypatch.setattr(pipeline, "stack_and_fuse_rf", recorded)
        path = _write_va_fusion_only(tmp_path, "rf")  # tree_grid [2, 3]
        with caplog.at_level("WARNING", logger="affectpipe"):
            assert main(["run", "--config", str(path)]) == 0
        [info] = infos
        with (load_config(path).run_dir() / "rf_info.csv").open(newline="") as fh:
            rows = dict(csv.reader(fh))
        head_rows = [f"{head}_{key}" for head in ("valence", "arousal") for key in
                     ("n_trees", "oob_rows_fraction", "oob_score_at_2", "oob_score_at_3")]
        assert list(rows) == ["metric", "n_trees", "oob_score", "oob_mean_ccc",
                              "dev_score", "overfit_gap", *head_rows]
        assert rows["n_trees"] == str(max(info.head_trees))  # the harness reads it
        assert info.n_rows == 400  # the frames of the dev videos v001 and v002
        for j, head in enumerate(("valence", "arousal")):
            assert rows[f"{head}_n_trees"] == str(info.head_trees[j])
            assert float(rows[f"{head}_oob_rows_fraction"]) == info.head_rows_seen[j] / 400
            for k in (2, 3):
                assert float(rows[f"{head}_oob_score_at_{k}"]) == info.head_grid_scores[j][k]
        assert info.overfit_gap > 0
        seen = " and ".join(map(str, info.head_rows_seen))
        assert f"on the dev rows some tree left out ({seen} of 400)" in caplog.text

    def test_expr_rf_info_records_its_one_head(self, tmp_path, monkeypatch):
        infos = []

        def recorded(*args, _fn=pipeline.stack_and_fuse_rf, **kwargs):
            fused, info = _fn(*args, **kwargs)
            infos.append(info)
            return fused, info

        monkeypatch.setattr(pipeline, "stack_and_fuse_rf", recorded)
        path = self._prepare(tmp_path, fusion={"method": "rf", "tree_grid": [3, 2]})
        assert main(["run", "--config", str(path)]) == 0
        [info] = infos
        with (load_config(path).run_dir() / "rf_info.csv").open(newline="") as fh:
            rows = dict(csv.reader(fh))
        # grid counts in increasing order, whatever order the config lists
        assert list(rows) == ["metric", "n_trees", "oob_score", "oob_macro_f1", "dev_score",
                              "overfit_gap", "expr_n_trees", "expr_oob_rows_fraction",
                              "expr_oob_score_at_2", "expr_oob_score_at_3"]
        assert len(info.head_trees) == 1
        assert rows["n_trees"] == rows["expr_n_trees"] == str(info.head_trees[0])
        assert float(rows["expr_oob_rows_fraction"]) == info.head_rows_seen[0] / info.n_rows
        for k in (2, 3):
            assert float(rows[f"expr_oob_score_at_{k}"]) == info.head_grid_scores[0][k]

    @pytest.mark.parametrize(
        "overrides",
        [{"split": {"dev_videos": ["v003", "v001"]}}, _VA],
        ids=["expr-two-dev-videos", "va"],
    )
    def test_kelm_scores_hold_the_dev_videos_rows(self, tmp_path, overrides):
        path = self._prepare(tmp_path, **overrides)
        config = load_config(path)
        staged = ["--config", str(path), "--out-dir", str(tmp_path / "staged")]
        assert main(["kelm", *staged]) == 0
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "single")]) == 0
        run_dir = next((tmp_path / "single").iterdir())
        got = run_dir / "kelm_scores.npy"
        assert got.read_bytes() == (
            next((tmp_path / "staged").iterdir()) / "kelm_scores.npy").read_bytes()
        # the features and targets the kelm command keeps in memory, and
        # the model it fits at the C of selection.csv
        batches, targets = pipeline.stage_window(config, pipeline._read_truth(config),
                                                 pipeline._read_vad(config))
        feats = np.concatenate(list(pipeline.stage_features(config, batches).values()))
        targets = np.concatenate(list(targets.values()))  # in video order
        # each window's video, in video order
        window_vids = np.repeat(list(batches), [b.n_windows for b in batches.values()])
        dev = np.isin(window_vids, config.split.dev_videos)
        [c] = np.loadtxt(run_dir / "selection.csv", delimiter=",", skiprows=1, ndmin=2)[:, 0]
        if config.task == "expr":
            enc = encode_classification_targets(targets[~dev], N_EXPR_CLASSES)
            weights = class_weights(targets[~dev])
        else:
            enc, weights = targets[~dev], None
        model = train_kelm(feats[~dev], enc, c, kernel=config.kernel_spec, weights=weights,
                           task="classification" if config.task == "expr" else "regression")
        # each dev video's window scores, in sorted video order
        expected = np.concatenate([predict_kelm(model, feats[window_vids == vid])
                                   for vid in sorted(config.split.dev_videos)])
        assert expected.shape == (dev.sum(), config.n_outputs)
        assert np.load(got).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("commands", [["run"], ["kelm", "fuse"]], ids=["run", "staged"])
    def test_fuse_spreads_each_dev_video_its_own_kelm_scores(
        self, tmp_path, monkeypatch, commands
    ):
        # fuse slices each dev video's windows again from its labels, and
        # kelm_scores.npy holds the dev videos in sorted order, whatever
        # order the config lists them in; gaps in the VAD give each video
        # its own window starts
        path = self._prepare(tmp_path, split={"dev_videos": ["v003", "v001"]},
                             fusion={"method": "mean"}, synth={"voiced_fraction": 0.7})
        made = _capture_fused(monkeypatch)
        for command in commands:
            assert main([command, "--config", str(path)]) == 0
        config = load_config(path)
        starts = _window_starts(config)
        assert len(starts["v001"]) != len(starts["v003"])
        [fused] = made
        assert sorted(fused) == ["v001", "v003"]
        counts = [len(starts[vid]) for vid in sorted(fused)]
        scores = np.split(np.load(config.run_dir() / "kelm_scores.npy"),
                          np.cumsum(counts)[:-1])
        for vid, own in zip(sorted(fused), scores):
            # one model: the mean is the KELM track; 2 s windows at a 2 s hop
            expected = pipeline._spread_window_scores(starts[vid], own, fused[vid].n_frames,
                                                      10, 10)
            assert fused[vid].values.tobytes() == expected.tobytes(), vid

    def test_fuse_refuses_kelm_scores_the_vad_no_longer_gives(self, tmp_path, capsys):
        path = self._prepare(tmp_path, fusion={"method": "dwf", "pool_size": 50})
        config = load_config(path)
        assert main(["kelm", "--config", str(path)]) == 0
        before = _file_digests(config.run_dir())
        # unvoice the dev video's first 40 frames: 28 of its 2 s windows are left of 32
        vad = read_vad_csv(config.paths.vad)
        voiced = vad["v003"].voiced.copy()
        voiced[:40] = False
        vad["v003"] = replace(vad["v003"], voiced=voiced)
        write_vad_csv(config.paths.vad, list(vad.values()))
        assert main(["fuse", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert (f"{config.run_dir() / 'kelm_scores.npy'} has 32 rows, expected 28 dev "
                "windows; rerun the kelm stage") in err
        assert _file_digests(config.run_dir()) == before

    @pytest.mark.parametrize("base_holds_it", [True, False], ids=["held", "missing"])
    def test_a_kelm_runs_bases_cover_every_labelled_video(
        self, tmp_path, capsys, base_holds_it
    ):
        # the labels list v004, which the embeddings lack; the KELM run's
        # timeline is every labelled video's labels at the working rate
        bases = _base_paths(tmp_path, 1)
        path = self._prepare(tmp_path, paths={"base_predictions": bases},
                             fusion={"method": "dwf", "pool_size": 50})
        config = load_config(path)
        labels = read_label_csv(config.paths.labels, "expr")
        labels["v004"] = labels["v000"]
        write_label_csv(config.paths.labels, labels, task="expr")
        _write_base_predictions(config)
        if base_holds_it:
            tracks = read_track_csv(bases[0], fps=5.0, kind="class_scores")
            tracks["v004"] = replace(tracks["v000"], video_id="v004")
            write_track_csv(bases[0], list(tracks.values()))
        assert main(["run", "--config", str(path)]) == (0 if base_holds_it else 4)
        if not base_holds_it:
            assert ("fuse stage: model 'base_0' covers videos ['v000', 'v001', 'v002', "
                    "'v003'], expected ['v000', 'v001', 'v002', 'v003', 'v004']"
                    ) in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    @pytest.mark.parametrize("command", ["run", "kelm", "fuse", "synth"])
    def test_an_output_location_that_is_a_file_exits_2_naming_it(
        self, tmp_path, capsys, command, under
    ):
        path = self._prepare(tmp_path)
        capsys.readouterr()
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out_dir = taken / "runs" if under else taken
        assert main([command, "--config", str(path), "--out-dir", str(out_dir)]) == 2
        what = "synth output directory" if command == "synth" else "output.dir"
        assert (f"error: {what} {out_dir} is a file or lies under one; it must name a "
                "directory") in capsys.readouterr().err
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("command", ["run", "fuse"])
    def test_a_run_directory_that_is_a_file_exits_2_and_stays(
        self, tmp_path, capsys, command
    ):
        path = _write_va_fusion_only(tmp_path, "mean")
        run_dir = load_config(path).run_dir()
        run_dir.parent.mkdir()
        run_dir.write_text("a file\n")
        assert main([command, "--config", str(path)]) == 2
        assert (f"error: the run directory {run_dir} is a file or lies under one"
                in capsys.readouterr().err)
        assert [p.name for p in run_dir.parent.iterdir()] == [run_dir.name]
        assert run_dir.read_text() == "a file\n"

    def test_non_finite_window_score_names_its_dev_video(self, tmp_path, capsys):
        path = self._prepare(tmp_path, split={"dev_videos": ["v003", "v001"]},
                             fusion={"method": "dwf", "pool_size": 50})
        assert main(["kelm", "--config", str(path)]) == 0
        run_dir = load_config(path).run_dir()
        first_of_v003 = len(_window_starts(load_config(path))["v001"])
        scores = np.load(run_dir / "kelm_scores.npy")
        scores[first_of_v003, 3] = np.inf
        np.save(run_dir / "kelm_scores.npy", scores)
        assert main(["fuse", "--config", str(path)]) == 6
        err = capsys.readouterr().err
        assert f"{run_dir / 'kelm_scores.npy'}: video 'v003': " in err

    @pytest.mark.parametrize(
        "field_name, change, message",
        [
            ("values", lambda v: np.vstack([v, v[-1:]]),
             "fuse stage: model 'base_0' has 321 frames for 'v000', model 'kelm' has 320"),
            ("frame_index_origin", lambda origin: origin + 4,
             "fuse stage: model 'base_0' starts 'v000' at frame 4, model 'kelm' at frame 0"),
        ],
        ids=["one-frame-more", "later-first-frame"],
    )
    def test_fuse_checks_the_bases_on_a_training_video(
        self, tmp_path, capsys, field_name, change, message
    ):
        # v000 is a training video, so the KELM track has no rows for it;
        # its labels at the working rate give the frames the base must have
        bases = _base_paths(tmp_path, 1)
        path = self._prepare(tmp_path, paths={"base_predictions": bases},
                             fusion={"method": "dwf", "pool_size": 50})
        config = load_config(path)
        _write_base_predictions(config)
        tracks = read_track_csv(bases[0], fps=config.fps_target, kind=config.track_kind)
        tracks["v000"] = replace(tracks["v000"], **{
            field_name: change(getattr(tracks["v000"], field_name))})
        write_track_csv(bases[0], list(tracks.values()))
        assert main(["run", "--config", str(path)]) == 4
        assert message in capsys.readouterr().err
        staged = ["--config", str(path), "--out-dir", str(tmp_path / "staged")]
        assert main(["kelm", *staged]) == 0
        assert main(["fuse", *staged]) == 4
        assert message in capsys.readouterr().err
        assert not any((tmp_path / "staged").glob("*/dwf_info.csv"))

    def test_kelm_exits_3_without_the_embeddings(self, tmp_path, capsys):
        path = self._prepare(tmp_path)
        Path(load_config(path).paths.embeddings).unlink()
        assert main(["kelm", "--config", str(path)]) == 3
        assert "embeddings file not found" in capsys.readouterr().err

    def test_exit_codes_by_error_family(self, tmp_path):
        # 3: missing config file
        assert main(["run", "--config", str(tmp_path / "none.yaml")]) == 3
        # 2: config error
        bad = tmp_path / "bad.yaml"
        bad.write_text("task: banana\n")
        assert main(["run", "--config", str(bad)]) == 2
        # 2: a value of the wrong type, not a traceback
        assert main(["run", "--config", str(_write_config(
            tmp_path, "null.yaml", postprocess={"video_fps": None}))]) == 2
        # 3: config loads but the data files are absent
        path = _write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 3
        # 5: labels hold the other task's annotations
        config = load_config(path)
        _synth_from(config)
        rng = np.random.default_rng(0)
        va_rows = {"v000": {t: np.clip(rng.normal(size=2), -1, 1) for t in range(10)}}
        write_label_csv(config.paths.labels, va_rows, task="va")
        assert main(["run", "--config", str(path)]) == 5
        # 4: labels name a video the embeddings lack
        expr_rows = {"zzz": {t: np.array([0.0]) for t in range(10)}}
        write_label_csv(config.paths.labels, expr_rows, task="expr")
        assert main(["run", "--config", str(path)]) == 4
        # 6: corrupt embeddings file
        _synth_from(config)
        emb = config.paths.embeddings
        with open(emb, "w") as fh:
            fh.write("not,a,track\n1,2,3\n")
        assert main(["run", "--config", str(path)]) == 6

    @pytest.mark.parametrize(
        "overrides",
        [{"kelm": {"c_grid": [1.0e-310]}}, {"kelm": {"c_grid": [float("nan")]}},
         {"postprocess": {"smooth_seconds": float("nan")}}],
        ids=["c-underflows", "c-nan", "smooth-nan"],
    )
    def test_non_finite_or_underflowing_config_float_exits_2(self, tmp_path, overrides):
        assert main(["run", "--config", str(_write_config(tmp_path, **overrides))]) == 2

    @pytest.mark.parametrize(
        "overrides, message",
        [({"target_fps": 0}, "postprocess.target_fps must be positive, got 0.0"),
         ({"target_fps": -5.0}, "postprocess.target_fps must be positive, got -5.0"),
         ({"video_fps": {"v001": -1}}, "postprocess.video_fps must be positive, "
                                       "got {'v001': -1.0}")],
        ids=["target-zero", "target-negative", "video-negative"],
    )
    def test_non_positive_postprocess_rate_exits_2(self, tmp_path, capsys, overrides,
                                                   message):
        self._prepare(tmp_path)
        path = _write_config(tmp_path, "bad.yaml", postprocess=overrides)
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "synth"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_a_negative_seed_exits_2_naming_the_seed(self, tmp_path, capsys, command, where):
        path = _write_config(tmp_path, "neg.yaml", fusion={"method": "dwf", "pool_size": 50},
                             seed=-1 if where == "config" else 7)
        if command == "run":  # the inputs, so only the seed stops the run
            _synth_from(load_config(_write_config(tmp_path)))
        before = sorted(tmp_path.rglob("*"))
        flags = ["--seed", "-1"] if where == "flag" else []
        assert main([command, "--config", str(path), *flags]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "text, message",
        [(b"task: [expr\n", "expected ',' or ']', but got '<stream end>'"),
         (b"task: expr\nseed: 1\xff\n", "can't decode byte 0xff in position 18")],
        ids=["yaml-syntax", "not-utf8"],
    )
    def test_an_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    def test_a_config_path_naming_a_directory_exits_3(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 3
        assert f"error: config file is not a file: {tmp_path}" in capsys.readouterr().err

    def test_a_labels_path_naming_a_directory_exits_3(self, tmp_path, capsys):
        self._prepare(tmp_path)
        path = _write_config(tmp_path, "dir.yaml", paths={"labels": str(tmp_path / "data")})
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"error: labels file is not a file: {tmp_path / 'data'}" in err
        assert not any((tmp_path / "runs").iterdir())

    @pytest.mark.parametrize("name", ["embeddings", "labels", "vad"])
    def test_a_byte_that_is_not_utf8_exits_6_naming_the_file(self, tmp_path, capsys, name):
        path = self._prepare(tmp_path)
        data = tmp_path / "data" / f"{name}.csv"
        lines = data.read_bytes().split(b"\n")
        lines[5] = lines[5].replace(b",", b"\xff,", 1)
        data.write_bytes(b"\n".join(lines))
        assert main(["run", "--config", str(path)]) == 6
        assert f"error: {data}:6: byte 0xff is not UTF-8" in capsys.readouterr().err
        assert not any((tmp_path / "runs").iterdir())

    def test_repeated_dev_video_exits_2_before_any_run_directory(self, tmp_path, capsys):
        self._prepare(tmp_path)
        path = _write_config(tmp_path, "bad.yaml",
                             split={"dev_videos": ["v001", "v003", "v001"]})
        assert main(["run", "--config", str(path)]) == 2
        assert "split.dev_videos lists ['v001'] more than once" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("normalization", ["global_minmax", "none"])
    @pytest.mark.parametrize("command", ["run", "kelm"])
    def test_all_dev_split_exits_2_before_the_window_stage_writes(
        self, tmp_path, capsys, command, normalization
    ):
        self._prepare(tmp_path)
        path = _write_config(tmp_path, "all-dev.yaml", normalization=normalization,
                             split={"dev_videos": ["v000", "v001", "v002", "v003"]})
        assert main([command, "--config", str(path)]) == 2
        assert "kelm training needs at least one non-dev video" in capsys.readouterr().err
        # a failed command's files never reach the run directory
        assert not load_config(path).run_dir().exists()

    @pytest.mark.parametrize("method", ["mean", "dwf", "rf"])
    def test_va_dev_split_of_one_window_exits_2_before_the_c_search(
        self, tmp_path, capsys, monkeypatch, method
    ):
        path = self._prepare(tmp_path, fusion={"method": method}, **self._VA)
        config = load_config(path)
        _shorten_video(config, "v002", 22)
        monkeypatch.setattr(pipeline, "select_c", None)  # never reached
        assert main(["run", "--config", str(path)]) == 2
        assert ("kelm stage: split.dev_videos give 1 dev window(s); "
                "scoring mean_ccc needs at least 2") in capsys.readouterr().err
        assert not (config.run_dir() / "selection.csv").exists()

    @pytest.mark.parametrize("method", ["mean", "dwf", "rf"])
    def test_expr_dev_split_of_one_window_runs(self, tmp_path, method):
        path = self._prepare(tmp_path, fusion={"method": method, "tree_grid": [2, 3]})
        config = load_config(path)
        _shorten_video(config, "v003", 12)
        assert main(["run", "--config", str(path)]) == 0
        assert len(np.load(config.run_dir() / "kelm_scores.npy")) == 1

    @pytest.mark.parametrize("method", ["dwf", "rf"])
    def test_va_fusion_on_a_one_frame_dev_split_exits_2(
        self, tmp_path, capsys, monkeypatch, method
    ):
        path = _write_va_fusion_only(tmp_path, method, frames={"v002": 1},
                                     dev_videos=["v002"])
        monkeypatch.setattr(pipeline, "dwf_search", None)  # never reached
        monkeypatch.setattr(pipeline, "stack_and_fuse_rf", None)
        assert main(["run", "--config", str(path)]) == 2
        assert (f"fuse stage: split.dev_videos give 1 dev frame(s); {method} fusion "
                "on va needs at least 2") in capsys.readouterr().err
        run_dir = load_config(path).run_dir()
        for name in ("dwf_info.csv", "rf_info.csv"):
            assert not (run_dir / name).exists()

    def test_expr_rf_on_a_one_frame_dev_split_exits_2(self, tmp_path, capsys, monkeypatch):
        path = self._prepare(tmp_path, fusion={"method": "rf", "tree_grid": [2, 3]})
        config = load_config(path)
        _shorten_video(config, "v003", 1)
        monkeypatch.setattr(pipeline, "stack_and_fuse_rf", None)  # never reached
        message = "fuse stage: split.dev_videos give 1 dev frame(s); rf fusion on expr"
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not config.run_dir().exists()
        # staged, the KELM trains on the one-window dev split and fuse refuses it
        assert main(["kelm", "--config", str(path)]) == 0
        assert main(["fuse", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert (config.run_dir() / "selection.csv").exists()
        assert not (config.run_dir() / "rf_info.csv").exists()

    def test_features_too_large_for_the_kernel_exit_7(self, tmp_path, capsys):
        path = self._prepare(tmp_path, normalization="none")
        emb = load_config(path).paths.embeddings
        tracks = read_track_csv(emb, fps=5.0)
        write_track_csv(emb, [replace(t, values=t.values * 1e200) for t in tracks.values()])
        # the rbf kernel's squared distances overflow, and inf - inf is NaN
        assert main(["run", "--config", str(path)]) == 7
        assert "non-finite entries in the system" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, row",
        [
            ("labels", "v000,7"),  # short label row
            ("labels", "v000,seven,1"),  # non-integer label frame
            ("embeddings", "v000,1.5" + ",0.0" * 6),  # non-integer track frame
            ("embeddings", "v000,320" + ",abc" * 6),  # non-numeric track value
            ("embeddings", "v000,320" + ",nan" * 6),  # a value FrameTrack rejects
        ],
    )
    def test_malformed_rows_exit_6(self, tmp_path, capsys, which, row):
        path = self._prepare(tmp_path)
        data = Path(getattr(load_config(path).paths, which))
        data.write_text(data.read_text() + row + "\n")
        assert main(["run", "--config", str(path)]) == 6
        assert f"{data}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, row",
        [
            ("embeddings", "v000,320,1_0" + ",0.0" * 5),  # an underscore
            ("embeddings", "v000,320,\u0661" + ",0.0" * 5),  # a non-ASCII digit
            ("labels", "v000,9223372036854775808,1"),  # a frame beyond int64
        ],
        ids=["underscore", "non-ascii-digit", "frame-beyond-int64"],
    )
    def test_numerals_numpy_does_not_read_exit_6(self, tmp_path, capsys, which, row):
        path = self._prepare(tmp_path)
        data = Path(getattr(load_config(path).paths, which))
        data.write_text(data.read_text() + row + "\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 6
        assert f"{data}: " in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field, value",
                             [({}, 2, "-1"), (_VA, 2, "-5")], ids=["expr", "va"])
    def test_invalid_label_row_inside_a_video_exits_4_naming_the_gap(
        self, tmp_path, capsys, overrides, field, value
    ):
        path = self._prepare(tmp_path, **overrides)
        labels = Path(load_config(path).paths.labels)
        lines = labels.read_text().split("\n")
        i = next(i for i, line in enumerate(lines) if line.startswith("v001,50,"))
        row = lines[i].split(",")
        row[field] = value
        lines[i] = ",".join(row)
        labels.write_text("\n".join(lines))
        assert main(["run", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert "labels for 'v001' are not contiguous (first gap 49 -> 51" in err
        assert "invalid label rows are dropped on read" in err

    def test_va_base_prediction_outside_the_range_exits_6(self, tmp_path, capsys):
        bases = _base_paths(tmp_path, 1)
        path = self._prepare(tmp_path, paths={"base_predictions": bases}, **self._VA)
        _write_base_predictions(load_config(path))
        _set_row_field(bases[0], 2, "1.5")
        assert main(["run", "--config", str(path)]) == 6
        assert f"{bases[0]}: video 'v000'" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [3, 9])
    @pytest.mark.parametrize("kelm, method", [(False, "dwf"), (False, "rf"), (False, "mean"),
                                              (True, "dwf")],
                             ids=["dwf", "rf", "mean", "kelm-dwf"])
    def test_an_expr_base_of_the_wrong_width_exits_6(
        self, tmp_path, capsys, kelm, method, width
    ):
        bases = _base_paths(tmp_path, 2)
        path = self._prepare(tmp_path, paths={"base_predictions": bases},
                             kelm={"enabled": kelm},
                             fusion={"method": method, "pool_size": 50, "tree_grid": [2, 3]})
        _write_base_predictions(load_config(path), width=width)
        assert main(["run", "--config", str(path)]) == 6
        assert (f"error: {bases[0]}: {width} score columns, the expr task needs 8"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("method", ["mean", "dwf", "rf"])
    def test_fuse_exits_4_on_a_base_off_model_0s_frames(self, tmp_path, capsys, method):
        path = _write_va_fusion_only(tmp_path, method, b_frames={"v001": 203, "v002": 197})
        assert main(["run", "--config", str(path)]) == 4
        assert ("fuse stage: model 'b' has 203 frames for 'v001', model 'a' has 200"
                in capsys.readouterr().err)
        run_dir = load_config(path).run_dir()
        for name in ("dwf_info.csv", "rf_info.csv"):
            assert not (run_dir / name).exists()

    @pytest.mark.parametrize("method", ["mean", "dwf", "rf"])
    def test_fuse_exits_4_on_a_base_starting_at_another_frame(self, tmp_path, capsys, method):
        path = _write_va_fusion_only(tmp_path, method, a_origin=4)
        assert main(["run", "--config", str(path)]) == 4
        assert ("fuse stage: model 'b' starts 'v000' at frame 0, model 'a' at frame 4"
                in capsys.readouterr().err)
        run_dir = load_config(path).run_dir()
        for name in ("dwf_info.csv", "rf_info.csv"):
            assert not (run_dir / name).exists()

    @pytest.mark.parametrize("method", ["mean", "dwf", "rf"])
    def test_fused_frames_are_numbered_from_model_0s_first_frame(
        self, tmp_path, monkeypatch, method
    ):
        path = _write_va_fusion_only(tmp_path, method, a_origin=4, b_origin=4,
                                     label_origin=4)
        made = _capture_fused(monkeypatch)
        assert main(["run", "--config", str(path)]) == 0
        [fused] = made
        assert [(vid, t.frame_index_origin, t.n_frames) for vid, t in fused.items()] == [
            ("v001", 4, 200), ("v002", 4, 200)]

    @pytest.mark.parametrize("method", ["dwf", "rf"])
    def test_fuse_exits_4_on_dev_labels_starting_at_another_frame(
        self, tmp_path, capsys, method
    ):
        path = _write_va_fusion_only(tmp_path, method, a_origin=4, b_origin=4)
        assert main(["run", "--config", str(path)]) == 4
        assert ("fuse stage: the label track starts 'v001' at frame 0, model 'a' at "
                "frame 4") in capsys.readouterr().err
        run_dir = load_config(path).run_dir()
        for name in ("dwf_info.csv", "rf_info.csv"):
            assert not (run_dir / name).exists()

    @pytest.mark.parametrize("label_origin, code", [(4, 0), (0, 4)])
    def test_kelm_pairs_embeddings_and_labels_by_their_first_frame(
        self, tmp_path, capsys, label_origin, code
    ):
        path = self._prepare(tmp_path)
        config = load_config(path)
        labels = read_label_csv(config.paths.labels, "expr")
        write_label_csv(config.paths.labels, {
            vid: LabelRows(rows.frames + label_origin, rows.values)
            for vid, rows in labels.items()
        }, task="expr")
        _shift_embeddings(config, 4)
        for command in ("run", "kelm"):
            assert main([command, "--config", str(path)]) == code
            if code:
                assert ("kelm stage: the embedding track starts 'v000' at frame 4, the "
                        "label track at frame 0") in capsys.readouterr().err
                assert not config.run_dir().exists()

    @pytest.mark.parametrize("label_origin, code", [(20, 0), (0, 4)])
    def test_kelm_pairs_tracks_of_two_rates_by_their_first_frames_time(
        self, tmp_path, capsys, monkeypatch, label_origin, code
    ):
        # labels at 25 fps, each working-rate frame repeated 5 times
        path = self._prepare(tmp_path, postprocess={"target_fps": 25.0})
        config = load_config(path)
        labels = read_label_csv(config.paths.labels, "expr")
        write_label_csv(config.paths.labels, {
            vid: LabelRows(label_origin + np.arange(5 * len(rows.frames)),
                           np.repeat(rows.values, 5, axis=0))
            for vid, rows in labels.items()
        }, task="expr")
        _shift_embeddings(config, 4)
        made = _capture_fused(monkeypatch)
        assert main(["run", "--config", str(path)]) == code
        if code:
            assert ("kelm stage: the embedding track starts 'v000' at frame 4 (0.8 s at 5 "
                    "fps), the label track at frame 0 (0 s at 25 fps)"
                    ) in capsys.readouterr().err
        else:  # 0.8 s is working-rate frame 4
            [fused] = made
            assert (fused["v003"].frame_index_origin, fused["v003"].n_frames) == (4, 320)

    def test_labels_above_the_working_rate_keep_their_first_frames_time(self, tmp_path):
        # resampled to 5 fps, labels at 25 fps start at the nearest working-rate frame
        config = load_config(_write_config(tmp_path))
        starts = []
        for origin in (20, 2, 3):
            track = FrameTrack("v", 25.0, np.zeros((50, 1)), kind="label",
                               frame_index_origin=origin)
            [got] = pipeline._truth_at_working_rate(
                config, {"v": track}, ["v"], "kelm").values()
            starts.append(got.frame_index_origin)
        assert starts == [4, 0, 1]

    def test_postprocess_exits_4_on_a_fused_track_off_the_labels_first_frame(
        self, tmp_path, capsys
    ):
        path = _write_va_fusion_only(tmp_path, "mean", a_origin=4, b_origin=4)
        assert main(["run", "--config", str(path)]) == 4
        assert ("postprocess stage: the fused track starts 'v001' at frame 4, the label "
                "track at frame 0") in capsys.readouterr().err
        assert not load_config(path).run_dir().exists()

    @pytest.mark.parametrize("n_frames, code", [(199, 0), (198, 4), (100, 4)])
    def test_postprocess_exits_4_on_a_fused_track_a_frame_short_of_the_labels(
        self, tmp_path, capsys, n_frames, code
    ):
        # one base of n_frames at 5 fps against 200 labelled frames per video
        cfg = yaml.safe_load(_write_va_fusion_only(tmp_path, "mean").read_text())
        cfg["paths"]["base_predictions"] = [str(tmp_path / "a.csv")]
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(cfg))
        base = read_track_csv(tmp_path / "a.csv", fps=5.0, kind="va")
        write_track_csv(tmp_path / "a.csv", [replace(t, values=t.values[:n_frames])
                                             for t in base.values()])
        assert main(["run", "--config", str(path)]) == code
        if code:
            end = (n_frames - 1) / 5
            assert (f"postprocess stage: the fused track ends 'v001' at {end:g} s, the "
                    "label track at 39.8 s") in capsys.readouterr().err
            assert not load_config(path).run_dir().exists()

    def test_kelm_exits_4_on_a_vad_off_the_embeddings_first_frame(self, tmp_path, capsys):
        # test_kelm_pairs_embeddings_and_labels_by_their_first_frame runs the
        # VAD, the embeddings and the labels all from frame 4
        path = self._prepare(tmp_path)
        config = load_config(path)
        _shift_vad(config, 4)
        for command in ("run", "kelm"):
            assert main([command, "--config", str(path)]) == 4
            assert ("kelm stage: the VAD starts 'v000' at frame 4, the embedding track at "
                    "frame 0") in capsys.readouterr().err
            assert not config.run_dir().exists()

    @staticmethod
    def _damage_dev_vad(config, fault):
        """Damage the VAD mask of the dev video v003 by `fault`."""
        vad = read_vad_csv(config.paths.vad)
        mask = vad.pop("v003")
        if fault == "short":
            vad["v003"] = replace(mask, voiced=mask.voiced[:300])
        elif fault == "unvoiced":
            vad["v003"] = replace(mask, voiced=np.zeros(len(mask), dtype=bool))
        elif fault == "off-first-frame":
            vad["v003"] = replace(mask, frame_index_origin=4)
        write_vad_csv(config.paths.vad, list(vad.values()))

    _VAD_FAULTS = {
        "missing": "no VAD rows for video 'v003'",
        "short": "VAD for 'v003' has 300 frames, track has 320",
        "unvoiced": "video 'v003' has no voiced frames",
        "off-first-frame": "the VAD starts 'v003' at frame 4, {track} at frame 0",
    }

    @pytest.mark.parametrize("fault", list(_VAD_FAULTS))
    @pytest.mark.parametrize("command", ["run", "kelm", "fuse"])
    def test_every_command_refuses_a_vad_that_does_not_fit_the_dev_video(
        self, tmp_path, capsys, command, fault
    ):
        # a staged fuse after a good kelm slices the dev video from its labels
        path = self._prepare(tmp_path)
        config = load_config(path)
        if command == "fuse":
            assert main(["kelm", "--config", str(path)]) == 0
        before = _file_digests(config.run_dir()) if command == "fuse" else None
        self._damage_dev_vad(config, fault)
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 4
        stage, track = (("fuse", "the label track") if command == "fuse"
                        else ("kelm", "the embedding track"))
        message = self._VAD_FAULTS[fault].format(track=track)
        assert f"{stage} stage: {message}" in capsys.readouterr().err
        if before is None:
            assert not config.run_dir().exists()
        else:
            assert _file_digests(config.run_dir()) == before

    def _kelm_config_with_a_base(self, tmp_path):
        """An expr KELM config with one base track, its inputs written."""
        bases = _base_paths(tmp_path, 1)
        path = self._prepare(tmp_path, paths={"base_predictions": bases},
                             fusion={"method": "dwf", "pool_size": 50})
        _write_base_predictions(load_config(path))
        return path

    _LAST_COMMANDS = {"run": "_run_fuse", "kelm": "_run_kelm", "fuse": "_run_fuse"}

    def _fail_after(self, monkeypatch, command):
        """Make `command`'s last command function raise once it has written
        its files; the digests of what it had staged by then."""
        staged = {}
        name = self._LAST_COMMANDS[command]

        def failing(config, out_dir, *inputs, _real=getattr(pipeline, name)):
            _real(config, out_dir, *inputs)
            staged.update(_file_digests(out_dir))
            raise SolverError("the last step failed")

        monkeypatch.setattr(pipeline, name, failing)
        return staged

    @pytest.mark.parametrize("command", ["run", "kelm", "fuse"])
    def test_a_failed_command_leaves_nothing_under_a_fresh_output_dir(
        self, tmp_path, capsys, monkeypatch, command
    ):
        if command == "fuse":  # the first command of a fusion-only run
            path = _write_va_fusion_only(tmp_path, "dwf")
        else:
            path = self._kelm_config_with_a_base(tmp_path)
        staged = self._fail_after(monkeypatch, command)
        assert main([command, "--config", str(path)]) == 7
        assert "the last step failed" in capsys.readouterr().err
        assert staged  # the command had written its files
        assert list((tmp_path / "runs").iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "kelm", "fuse"])
    def test_a_failed_command_leaves_an_existing_run_directory_as_it_found_it(
        self, tmp_path, monkeypatch, command
    ):
        path = self._kelm_config_with_a_base(tmp_path)
        config = load_config(path)
        assert main(["run", "--config", str(path)]) == 0
        before = _file_digests(config.run_dir())
        # new inputs under the same config, so every command writes other bytes
        _synth_from(replace(config, synth=replace(config.synth, seed=config.seed + 1)))
        _write_base_predictions(config, seed=1)
        staged = self._fail_after(monkeypatch, command)
        assert main([command, "--config", str(path)]) == 7
        assert any(before.get(name) != digest for name, digest in staged.items())
        assert _file_digests(config.run_dir()) == before
        assert list((tmp_path / "runs").iterdir()) == [config.run_dir()]

    def test_a_refused_rerun_keeps_the_manifest_true_to_the_files(self, tmp_path, capsys):
        path = self._kelm_config_with_a_base(tmp_path)
        config = load_config(path)
        assert main(["run", "--config", str(path)]) == 0
        before = _file_digests(config.run_dir())
        # the kelm command runs on new embeddings; fuse then refuses the base
        _synth_from(replace(config, synth=replace(config.synth, seed=config.seed + 1)))
        base = read_track_csv(config.paths.base_predictions[0], fps=5.0,
                              kind="class_scores")
        write_track_csv(config.paths.base_predictions[0],
                        [t for vid, t in base.items() if vid != "v001"])
        assert main(["run", "--config", str(path)]) == 4
        assert "fuse stage: model 'base_0' covers videos" in capsys.readouterr().err
        after = _file_digests(config.run_dir())
        assert after == before
        manifest = json.loads((config.run_dir() / "manifest.json").read_text())
        assert {name: after[name] for name in manifest["outputs"]} == manifest["outputs"]

    def test_a_stray_file_stays_out_of_the_manifest(self, tmp_path):
        path = self._kelm_config_with_a_base(tmp_path)
        config = load_config(path)
        first = run_pipeline(config).manifest
        # a file no command of this version writes, as earlier versions did
        np.save(config.run_dir() / "features.npy", np.zeros((3, 4)))
        second = run_pipeline(config).manifest
        assert second == first
        assert "features.npy" not in second["outputs"]
        assert (config.run_dir() / "features.npy").exists()
        assert list((tmp_path / "runs").iterdir()) == [config.run_dir()]

    @pytest.mark.parametrize("base_origin, code", [(4, 0), (0, 4)])
    def test_kelm_track_starts_at_the_labels_first_frame(
        self, tmp_path, capsys, monkeypatch, base_origin, code
    ):
        bases = _base_paths(tmp_path, 1)
        path = self._prepare(tmp_path, paths={"base_predictions": bases}, **self._VA)
        config = load_config(path)
        labels = read_label_csv(config.paths.labels, "va")
        write_label_csv(config.paths.labels, {
            vid: LabelRows(rows.frames + 4, rows.values) for vid, rows in labels.items()
        }, task="va")
        _shift_embeddings(config, 4)
        _write_base_predictions(config, origin=base_origin)
        made = _capture_fused(monkeypatch)
        assert main(["run", "--config", str(path)]) == code
        # a staged fuse numbers the KELM track it reads back from the labels too;
        # the failed run left no run directory
        assert main(["kelm", "--config", str(path)]) == 0
        assert main(["fuse", "--config", str(path)]) == code
        # the fused track is numbered from model 0's, the KELM track's, first frame
        if code == 0:
            single, staged = made
            assert _fused_rows(single) == _fused_rows(staged)
            assert [(vid, t.frame_index_origin) for vid, t in single.items()] == [("v002", 4)]
        else:
            err = capsys.readouterr().err
            assert err.count("fuse stage: model 'base_0' starts 'v000' at frame 0, "
                             "model 'kelm' at frame 4") == 2
            assert made == []  # neither fuse got to fuse

    def _fusion_only_without_dev(self, tmp_path, monkeypatch, method="mean"):
        """A va fusion-only config of `method` with one base and no dev
        split, and a list that records every file the pipeline reads."""
        cfg = yaml.safe_load(_write_va_fusion_only(tmp_path, method).read_text())
        cfg["paths"]["base_predictions"] = [str(tmp_path / "a.csv")]
        del cfg["split"]
        path = tmp_path / "no-dev.yaml"
        path.write_text(yaml.safe_dump(cfg))
        reads = []
        for name in ("read_label_csv", "read_track_csv", "read_vad_csv"):
            def counted(path, *args, _fn=getattr(pipeline, name), **kwargs):
                reads.append(path)
                return _fn(path, *args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        return path, reads

    def test_dwf_fuse_without_a_dev_split_exits_2_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch
    ):
        path, reads = self._fusion_only_without_dev(tmp_path, monkeypatch, "dwf")
        assert main(["fuse", "--config", str(path)]) == 2
        assert "dwf fusion needs a nonempty split.dev_videos" in capsys.readouterr().err
        assert reads == []
        assert not (tmp_path / "runs").exists()

    def test_kelm_stage_of_a_fusion_only_config_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        path, reads = self._fusion_only_without_dev(tmp_path, monkeypatch)
        assert main(["kelm", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: kelm: " in err and "kelm.enabled: false" in err
        assert reads == []
        assert not (tmp_path / "runs").exists()

    def test_subcommands_are_synth_run_and_the_stage_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{synth,kelm,fuse,run}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["window", "train-kelm", "postprocess"])
    def test_the_folded_commands_exit_2(self, tmp_path, capsys, command):
        path = self._prepare(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_fuse_prints_the_report_as_run_does(self, tmp_path, capsys):
        # a fusion-only config's whole run is the one command fuse
        path = _write_va_fusion_only(tmp_path, "mean")
        printed = []
        for command, out in (("run", "single"), ("fuse", "staged")):
            assert main([command, "--config", str(path),
                         "--out-dir", str(tmp_path / out)]) == 0
            printed.append(capsys.readouterr().out.split("run directory:")[0])
        assert printed[0] == printed[1] and printed[0].startswith("task: va\nccc_mean:")

    def test_successful_run_exits_zero(self, tmp_path, capsys):
        path = self._prepare(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "macro_f1" in out and "run directory:" in out

    def test_seed_flag_changes_the_run_directory(self, tmp_path, capsys):
        path = self._prepare(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--config", str(path), "--seed", "99"]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-1] != second.splitlines()[-1]

    def test_console_script_help(self):
        script = shutil.which("affectpipe")
        if script is not None:
            # An installed console script: run it as a user would.
            argv, env = [script, "--help"], None
        else:
            # Running from source, nothing installed: run what an installer's
            # wrapper script runs for the declared `affectpipe` entry point.
            module, attr = _script_entry_point(ROOT / "pyproject.toml").split(":")
            code = (
                f"import sys; from {module} import {attr} as entry; "
                "sys.argv[0] = 'affectpipe'; sys.exit(entry())"
            )
            argv = [sys.executable, "-c", code, "--help"]
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
            )
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "{synth,kelm,fuse,run}" in proc.stdout

    def test_entry_point_line_reads_as_tomllib_reads_it(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["affectpipe"]
        assert _script_entry_point(ROOT / "pyproject.toml") == spec

    def test_readme_command_block_names_every_command(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        named = set(re.findall(r"^affectpipe (\S+)", block, re.M))
        assert named == {"synth", "run", *(stage.name for stage in pipeline.stages())}


class TestArtifactsAbTool:
    @staticmethod
    def _tool():
        path = ROOT / "tools" / "artifacts_ab.py"
        spec = importlib.util.spec_from_file_location("artifacts_ab", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    def test_diff_names_the_side_that_holds_a_one_sided_file(self):
        other = {"fused.csv": b"a", "manifest.json": b"1", "report.csv": b"r"}
        this = {"fused.npy": b"b", "manifest.json": b"2", "report.csv": b"r"}
        diff = self._tool().diff
        assert diff(other, this) == [
            "only in other: fused.csv", "only in this: fused.npy", "differs: manifest.json"]
        assert diff(this, this) == []

    def test_self_comparison_is_byte_equal(self, capsys, monkeypatch):
        tool = self._tool()
        only = ("expr-dwf", "forest", "forest-expr", "kelm")
        runs = []

        def recorded(checkout, mode, *args, _fn=tool.run_child):
            runs.append((mode, _fn(checkout, mode, *args)))
            return runs[-1][1]

        monkeypatch.setattr(tool, "run_child", recorded)
        assert tool.compare(tool.ROOT, only=only, videos=3, frames=60, forest=(200, 3, 2),
                            forest_expr=(200, 16, 2), kelm=(60, 20, 6), pairs=1) == 0
        out = capsys.readouterr().out
        assert out.count("equal: True") == 5
        lines = tool.source_lines(tool.ROOT)
        assert lines > 0 and out.splitlines()[-2:] == [
            f"src/affectpipe/*.py lines: other {lines:,}, this {lines:,}, net +0",
            "everything equal"]
        assert "expr-dwf pair 0: staged equals single-shot in this checkout: True" in out
        # a pipeline pair prints each side's bytes; single-shot adds config and manifest
        sizes = re.findall(r"^expr-dwf (single|staged) pair 0: other .* MB ([\d,]+) B, "
                           r"this .* MB ([\d,]+) B, \d+ made, equal: True$", out, re.M)
        [(_, single, same), (_, staged, same_staged)] = sizes
        assert single == same and staged == same_staged
        assert int(single.replace(",", "")) > int(staged.replace(",", "")) > 0
        # forest: the bootstrap, the OOB curve and 5 arrays per tree; kelm: C, dev score, beta
        assert re.search(r"^forest pair 0: .*, 12 made, equal: True$", out, re.M)
        assert re.search(r"^forest-expr pair 0: .*, 12 made, equal: True$", out, re.M)
        assert re.search(r"^kelm pair 0: .*, 3 made, equal: True$", out, re.M)
        # each pipeline run also hashes the fused table it held in memory
        pipeline_runs = [run for mode, run in runs if mode in ("single", "staged")]
        assert len(pipeline_runs) == 4
        assert all("fused (in memory)" in run["made"] for run in pipeline_runs)

    def test_ci_compares_every_pipeline_case(self):
        workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
        [command] = [step["run"] for step in workflow["jobs"]["tier1"]["steps"]
                     if "tools/artifacts_ab.py" in step.get("run", "")]
        program, tool, checkout, *cases = command.split()
        assert (program, tool, checkout) == ("python3", "tools/artifacts_ab.py", ".")
        assert cases == self._tool().PIPELINE

    def test_a_last_bit_change_in_the_fused_table_differs(self, tmp_path, capsys):
        # expr's predictions.csv holds labels alone, so a one-ulp change to
        # the fused scores shows in the hash of the in-memory table only
        tool = self._tool()
        other = tmp_path / "other"
        shutil.copytree(ROOT / "src", other / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = other / "src" / "affectpipe" / "pipeline.py"
        split = "np.split(fused, ends[:-1])"
        text = source.read_text(encoding="utf-8")
        assert text.count(split) == 1
        source.write_text(text.replace(split, "np.split(np.nextafter(fused, np.inf), "
                                              "ends[:-1])"), encoding="utf-8")
        assert tool.compare(other, only=("expr-mean",), videos=3, frames=60, pairs=1) == 1
        out = capsys.readouterr().out
        pairs = re.findall(r"^expr-mean (\w+) pair 0: .*equal: (\w+)\n((?:  .*\n)*)", out, re.M)
        assert pairs == [(mode, "False", "  differs: fused (in memory)\n")
                         for mode in ("single", "staged")]
        assert "staged equals single-shot in this checkout: True" in out

    def test_staged_files_that_differ_from_single_shot_count_as_a_difference(
        self, monkeypatch, capsys
    ):
        # both checkouts stage alike, so only the staged-against-single-shot
        # comparison within one checkout can see the changed predictions
        tool = self._tool()
        single = {f"run-x/{name}": name[0] for name in
                  ("config.json", "manifest.json", "predictions.csv", "report.csv")}
        staged = {"run-x/predictions.csv": "q", "run-x/report.csv": "r", "run-x/stray.csv": "s"}

        def run_child(checkout, mode, data, out, pair):
            return {"s": 0.0, "rss_mb": 0.0, "made": single if mode == "single" else staged}

        monkeypatch.setattr(tool, "run_child", run_child)
        assert tool.compare(tool.ROOT, only=("expr-dwf",), videos=3, frames=60) == 1
        out = capsys.readouterr().out
        assert out.count("equal: True") == 2
        assert "expr-dwf pair 0: staged equals single-shot in this checkout: False" in out
        assert re.findall(r"^  staged differs: (.*)$", out, re.M) == [
            "run-x/predictions.csv", "run-x/stray.csv"]
        assert "1 pair(s) differ" in out

    def test_a_failed_run_prints_its_last_stderr_line_and_differs(self, tmp_path, capsys):
        tool = self._tool()
        package = tmp_path / "src" / "affectpipe"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("raise ImportError('broken checkout')\n")
        assert tool.compare(tmp_path, only=("kelm",), kelm=(60, 20, 6), pairs=1) == 1
        out = capsys.readouterr().out
        assert "equal: False" in out and out.endswith("\n1 pair(s) differ\n")
        assert "  other failed: ImportError: broken checkout" in out
        # the broken checkout's one source line against this checkout's
        lines = tool.source_lines(tool.ROOT)
        assert (f"src/affectpipe/*.py lines: other 1, this {lines:,}, net +{lines - 1:,}\n"
                in out)

    def test_unknown_case_or_checkout_exits_2(self, tmp_path, capsys):
        tool = self._tool()
        assert tool.main([str(tool.ROOT), "expr_dwf", "kelm"]) == 2
        err = capsys.readouterr().err
        assert "unknown case(s) expr_dwf;" in err
        assert all(name in err for name in tool.CASES)
        assert tool.main([str(tmp_path), "kelm"]) == 2
        assert "holds no src/affectpipe" in capsys.readouterr().err
