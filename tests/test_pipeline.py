"""Synthetic data, config handling, staged runs, CLI, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from affectpipe import pipeline, synth
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
from affectpipe.metrics import classification_report, va_report
from affectpipe.pipeline import (
    config_hash,
    evaluate_files,
    load_config,
    run_pipeline,
    stage_window,
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


def _write_base_predictions(config, seed=0):
    """Random score tracks over the synthetic videos at the working rate."""
    rng = np.random.default_rng(seed)
    spec = config.synth
    vids = [f"v{i:03d}" for i in range(spec.n_videos)]
    width = 8 if config.task == "expr" else 2
    for path in config.paths.base_predictions:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        write_track_csv(path, [
            FrameTrack(vid, config.fps_target,
                       np.clip(rng.normal(scale=0.5, size=(spec.frames_per_video, width)),
                               -1, 1),
                       kind=config.track_kind)
            for vid in vids
        ])


def _write_va_fusion_only(tmp_path, method, b_frames=None, a_origin=0):
    """A fusion-only va config over bases a.csv and b.csv, dev v001 and v002.

    Videos v000-v002 have 200 labelled frames. Base b has b_frames[vid]
    frames where given, 200 elsewhere; base a numbers its frames from
    a_origin.
    """
    rng = np.random.default_rng(9)
    vids, n = ["v000", "v001", "v002"], 200
    labels = {vid: dict(enumerate(np.clip(rng.normal(scale=0.5, size=(n, 2)), -1, 1)))
              for vid in vids}
    write_label_csv(tmp_path / "labels.csv", labels, task="va")
    for name, origin, frames in (("a", a_origin, {}), ("b", 0, b_frames or {})):
        write_track_csv(tmp_path / f"{name}.csv", [
            FrameTrack(vid, 5.0,
                       np.clip(rng.normal(scale=0.5, size=(frames.get(vid, n), 2)), -1, 1),
                       kind="va", frame_index_origin=origin)
            for vid in vids
        ])
    cfg = {
        "task": "va",
        "paths": {"labels": str(tmp_path / "labels.csv"),
                  "base_predictions": [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]},
        "kelm": {"enabled": False},
        "split": {"dev_videos": ["v001", "v002"]},
        "fusion": {"method": method, "pool_size": 50, "tree_grid": [2, 3]},
        "output": {"dir": str(tmp_path / "runs")},
    }
    path = tmp_path / f"{method}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _rename_videos(config, names):
    """Rewrite the synthetic inputs with the videos renamed by `names`."""
    paths = config.paths
    tracks = read_track_csv(paths.embeddings, fps=config.fps_target)
    write_track_csv(paths.embeddings, [replace(t, video_id=names.get(vid, vid))
                                       for vid, t in tracks.items()])
    labels = read_label_csv(paths.labels, config.task)
    write_label_csv(paths.labels, {names.get(vid, vid): rows
                                   for vid, rows in labels.items()}, task=config.task)
    write_vad_csv(paths.vad, [VadMask(names.get(vid, vid), mask.voiced)
                              for vid, mask in read_vad_csv(paths.vad).items()])


def _file_digests(run_dir):
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def _truncate_features(run_dir):
    path = run_dir / "features.npy"
    path.write_bytes(path.read_bytes()[:-8])


def _float32_features(run_dir):
    path = run_dir / "features.npy"
    np.save(path, np.load(path).astype(np.float32))


def _object_beta(run_dir):
    path = run_dir / "kelm_beta.npy"
    np.save(path, np.load(path).astype(object), allow_pickle=True)


def _set_first_row_field(path, j, value):
    """Replace field j of the first data row of a CSV file."""
    lines = Path(path).read_text().split("\n")
    row = lines[1].split(",")
    row[j] = value
    lines[1] = ",".join(row)
    Path(path).write_text("\n".join(lines))


def _windows_start_x(run_dir):
    _set_first_row_field(run_dir / "windows.csv", 2, "x")


def _targets_one_row_short(run_dir):
    path = run_dir / "window_targets.npy"
    np.save(path, np.load(path)[:-1])


def _no_features(run_dir):
    (run_dir / "features.npy").unlink()


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


class TestRunPipeline:
    def test_expr_run_reports_in_range_and_writes_manifest(self, tmp_path):
        config = load_config(_write_config(tmp_path, synth={"noise": 1.0}))
        _synth_from(config)
        result = run_pipeline(config)
        assert 0.0 <= result.report.macro_f1 <= 1.0
        manifest = json.loads((result.run_dir / "manifest.json").read_text())
        assert manifest["outputs_hash"] == result.manifest["outputs_hash"]
        assert "windows.csv" in manifest["outputs"]

    def test_windows_csv_indexes_the_vad_gated_windows(self, tmp_path):
        config = load_config(_write_config(tmp_path, synth={"voiced_fraction": 0.7}))
        _synth_from(config)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        stage_window(config, run_dir, {})
        tracks = read_track_csv(config.paths.embeddings, fps=config.fps_target,
                                kind="embedding")
        vad = read_vad_csv(config.paths.vad)
        expected = ["video_id,window_index,start,n_real"]
        padded = 0
        for vid in sorted(tracks):
            batch = slice_windows(tracks[vid], config.window_spec,
                                  segments=voiced_segments(vad[vid]))
            expected += [f"{vid},{i},{start},{batch.pad_mask[i].sum()}"
                         for i, start in enumerate(batch.starts)]
            padded += int((~batch.pad_mask).any(axis=1).sum())
        assert padded > 0
        assert (run_dir / "windows.csv").read_text().splitlines() == expected

    def test_run_parses_each_input_file_once(self, tmp_path, monkeypatch):
        bases = _base_paths(tmp_path, 2)
        config = load_config(_write_config(
            tmp_path, fusion={"method": "dwf", "pool_size": 200},
            paths={"base_predictions": bases}))
        _synth_from(config)
        _write_base_predictions(config)
        calls = {}
        for name in ("read_label_csv", "read_track_csv", "read_vad_csv",
                     "_read_windows_csv", "_load_rows"):
            def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        run_pipeline(config)
        assert calls == {"read_label_csv": 1, "read_track_csv": 1 + len(bases),
                         "read_vad_csv": 1}

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
        shortcut = run_pipeline(config).run_dir
        monkeypatch.setattr(pipeline, "dwf_search", reference_dwf_search)
        loop = run_pipeline(load_config(path, out_dir=str(tmp_path / "loop"))).run_dir
        for rel in ("pool_scores.csv", "fusion_matrix.csv", "fused.csv"):
            assert (shortcut / rel).read_bytes() == (loop / rel).read_bytes()

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
            if method == "dwf":
                assert (result.run_dir / "pool_scores.csv").exists()
            else:
                rows = (result.run_dir / "rf_info.csv").read_text().splitlines()
                keys = [row.partition(",")[0] for row in rows]
                assert keys == ["metric", "n_trees", "oob_score", "oob_macro_f1",
                                "dev_score", "overfit_gap"]


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

    def _staged_equals_single_shot(self, tmp_path, path):
        """Run `path` in one shot and stage by stage; compare every output."""
        method = load_config(path).fusion.method
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "single")]) == 0
        stage_cmds = ["window", "features", "train-kelm", "predict-kelm",
                      f"fuse-{method}", "postprocess", "evaluate"]
        for cmd in stage_cmds:
            assert main([cmd, "--config", str(path),
                         "--out-dir", str(tmp_path / "staged")]) == 0
        run_a = next((tmp_path / "single").iterdir())
        run_b = next((tmp_path / "staged").iterdir())
        assert run_a.name == run_b.name
        outputs = json.loads((run_a / "manifest.json").read_text())["outputs"]
        del outputs["config.json"]  # written by `run` alone
        assert outputs == _file_digests(run_b)
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
        self, tmp_path, overrides, n_bases
    ):
        path = _write_config(
            tmp_path, paths={"base_predictions": _base_paths(tmp_path, n_bases)}, **overrides
        )
        assert main(["synth", "--config", str(path)]) == 0
        _write_base_predictions(load_config(path))
        outputs = self._staged_equals_single_shot(tmp_path, path)
        assert {"windows.csv", "window_targets.npy", "features.npy", "selection.csv",
                "kelm_beta.npy", "models/kelm.csv", "fused.csv", "predictions.csv",
                "report.csv"} <= set(outputs)

    @pytest.mark.parametrize("overrides", [{}, _VA], ids=["expr", "va"])
    def test_repeated_and_invalid_label_rows_stage_like_the_single_shot(
        self, tmp_path, overrides
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
        outputs = self._staged_equals_single_shot(tmp_path, path)
        assert {"predictions.csv", "report.csv"} <= set(outputs)
        task = load_config(path).task
        truth, dropped = dict_read_label_csv(labels, task)
        assert dropped == 2
        run_dir = next((tmp_path / "single").iterdir())
        pred, _ = dict_read_label_csv(run_dir / "predictions.csv", task)
        expected = _per_frame_join(pred, truth, task)
        assert evaluate_files(run_dir / "predictions.csv", labels, task) == expected

    def test_any_video_id_survives_the_staged_run(self, tmp_path):
        path = self._prepare(tmp_path)
        # v003 stays: it is the dev video the config names
        _rename_videos(load_config(path), {"v000": "a b", "v001": 'q"u,o', "v002": "l\nf"})
        outputs = self._staged_equals_single_shot(tmp_path, path)
        assert "features.npy" in outputs

    @pytest.mark.parametrize(
        "command, damage, code, message",
        [
            ("train-kelm", _truncate_features, 6, "not a loadable .npy array"),
            ("train-kelm", _float32_features, 6, "expected float64"),
            ("predict-kelm", _object_beta, 6, "not a loadable .npy array"),
            ("train-kelm", _windows_start_x, 6, "windows.csv:2: "),
            ("train-kelm", _targets_one_row_short, 4, "rerun the window stage"),
            ("train-kelm", _no_features, 3, "features stage output not found"),
        ],
        ids=["truncated-features", "float32-features", "object-beta", "windows-start-x",
             "targets-one-row-short", "no-features"],
    )
    def test_damaged_intermediate_exits_with_its_family(
        self, tmp_path, capsys, command, damage, code, message
    ):
        path = self._prepare(tmp_path)
        for cmd in ("window", "features", "train-kelm"):
            assert main([cmd, "--config", str(path)]) == 0
        run_dir = load_config(path).run_dir()
        damage(run_dir)
        assert main([command, "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert str(run_dir) in err and message in err

    def test_staged_predict_kelm_needs_no_selection_csv(self, tmp_path):
        path = self._prepare(tmp_path)
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "single")]) == 0
        staged = ["--config", str(path), "--out-dir", str(tmp_path / "staged")]
        for cmd in ("window", "features", "train-kelm"):
            assert main([cmd, *staged]) == 0
        run_b = next((tmp_path / "staged").iterdir())
        (run_b / "selection.csv").unlink()
        assert main(["predict-kelm", *staged]) == 0
        run_a = next((tmp_path / "single").iterdir())
        kelm_csv = Path("models", "kelm.csv")
        assert (run_b / kelm_csv).read_bytes() == (run_a / kelm_csv).read_bytes()

    def test_features_exits_4_when_the_vad_changed_since_the_window_stage(self, tmp_path):
        path = self._prepare(tmp_path)
        assert main(["window", "--config", str(path)]) == 0
        vad_path = load_config(path).paths.vad
        write_vad_csv(vad_path, [
            VadMask(vid, np.concatenate([[False], mask.voiced[1:]]))
            for vid, mask in read_vad_csv(vad_path).items()
        ])
        assert main(["features", "--config", str(path)]) == 4

    def test_features_exits_3_without_the_embeddings(self, tmp_path):
        path = self._prepare(tmp_path)
        assert main(["window", "--config", str(path)]) == 0
        Path(load_config(path).paths.embeddings).unlink()
        assert main(["features", "--config", str(path)]) == 3

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
        _set_first_row_field(bases[0], 2, "1.5")
        assert main(["run", "--config", str(path)]) == 6
        assert f"{bases[0]}: video 'v000'" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mean", "dwf", "rf"])
    def test_fuse_exits_4_on_a_base_off_model_0s_frames(self, tmp_path, capsys, method):
        path = _write_va_fusion_only(tmp_path, method, b_frames={"v001": 203, "v002": 197})
        assert main(["run", "--config", str(path)]) == 4
        assert ("fuse stage: model 'b' has 203 frames for 'v001', model 'a' has 200"
                in capsys.readouterr().err)
        run_dir = load_config(path).run_dir()
        for name in ("pool_scores.csv", "rf_info.csv", "fused.csv"):
            assert not (run_dir / name).exists()

    @pytest.mark.parametrize("method", ["mean", "dwf", "rf"])
    def test_fused_frames_are_numbered_from_model_0s_first_frame(self, tmp_path, method):
        path = _write_va_fusion_only(tmp_path, method, a_origin=4)
        assert main(["run", "--config", str(path)]) == 0
        fused = read_track_csv(load_config(path).run_dir() / "fused.csv", fps=5.0, kind="va")
        assert sorted(fused) == ["v001", "v002"]
        assert all(track.frame_index_origin == 4 for track in fused.values())

    def test_fuse_with_another_method_leaves_the_config_run_alone(self, tmp_path):
        path = self._prepare(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        run_dir = load_config(path).run_dir()
        before = json.loads((run_dir / "manifest.json").read_text())["outputs_hash"]
        # fuse-dwf on this mean config works in the dwf config's run
        # directory, which has no predict-kelm output yet
        assert main(["fuse-dwf", "--config", str(path)]) == 3
        assert not (run_dir / "pool_scores.csv").exists()
        assert main(["run", "--config", str(path)]) == 0
        after = json.loads((run_dir / "manifest.json").read_text())["outputs_hash"]
        assert after == before

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
            tomllib = pytest.importorskip("tomllib")
            with open(ROOT / "pyproject.toml", "rb") as fh:
                spec = tomllib.load(fh)["project"]["scripts"]["affectpipe"]
            module, attr = spec.split(":")
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
        for cmd in ("synth", "train-kelm", "fuse-dwf", "postprocess", "run"):
            assert cmd in proc.stdout
