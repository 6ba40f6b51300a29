"""Whole-run invariants: input changes that must not change a run's files.

Each transform rewrites the text of a KELM run's input CSVs (the
embeddings, the labels, the VAD and one base track) and reruns it. Every
run file but `config.json`, `manifest.json` and `timings.json` must keep
its bytes, once `predictions.csv` is mapped back where the transform
renames ids or renumbers frames. So the window slicing of both commands,
the training order and the fusion depend on none of these changes. See
Chen et al. 2018, "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys 51(1).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from affectpipe.cli import main
from affectpipe.pipeline import load_config
from test_pipeline import _base_paths, _synth_from, _write_base_predictions, _write_config

_TASKS = {
    "expr": {"fusion": {"method": "dwf", "pool_size": 50}},
    "va": {"task": "va", "fusion": {"method": "rf", "tree_grid": [2, 3]},
           "split": {"dev_videos": ["v002"]}},
}
_UNCOMPARED = {"config.json", "manifest.json", "timings.json"}
_TRACKS = ("embeddings", "vad", "base")  # one row per frame, video by video


def _fields(row: str) -> list[str]:
    return row.split(",")


def _rename(files):
    """Every id v<n> becomes w<n>, which keeps their sorted order."""
    return {name: [rows[0], *("w" + row[1:] for row in rows[1:])]
            for name, rows in files.items()}


def _interleave(files):
    """The track files' rows taken one video at a time, round robin."""
    out = dict(files)
    for name in _TRACKS:
        header, *rows = files[name]
        videos: dict[str, list[str]] = {}
        for row in rows:
            videos.setdefault(_fields(row)[0], []).append(row)
        longest = max(map(len, videos.values()))
        out[name] = [header, *(rows[i] for i in range(longest)
                               for rows in videos.values() if i < len(rows))]
    return out


def _shuffle_labels(files):
    header, *rows = files["labels"]
    order = np.random.default_rng(3).permutation(len(rows))
    return {**files, "labels": [header, *(rows[i] for i in order)]}


def _shift(files):
    """Every frame number 7 higher."""
    def shifted(row):
        vid, frame, *rest = _fields(row)
        return ",".join([vid, str(int(frame) + 7), *rest])

    return {name: [rows[0], *map(shifted, rows[1:])] for name, rows in files.items()}


def _unshift(row: str) -> str:
    vid, frame, *rest = _fields(row)
    return ",".join([vid, str(int(frame) - 7), *rest])


# name -> (change to the input rows, line end, map of a predictions.csv row back)
_TRANSFORMS = {
    "rename-ids": (_rename, "\n", lambda row: "v" + row[1:]),
    "interleave-videos": (_interleave, "\n", None),
    "shuffle-labels": (_shuffle_labels, "\n", None),
    "crlf": (None, "\r\n", None),
    "shift-frames": (_shift, "\n", _unshift),
}


def _run(tmp_path: Path, task: str, transform: str | None) -> dict[str, bytes]:
    """The compared files of a run of the task's config on small VAD-gated
    synthetic inputs, after the transform; predictions.csv mapped back."""
    overrides = dict(_TASKS[task])
    dev = overrides.pop("split", {"dev_videos": ["v003"]})["dev_videos"]
    if transform == "rename-ids":  # the config names the renamed dev video
        dev = ["w" + vid[1:] for vid in dev]
    path = _write_config(tmp_path, paths={"base_predictions": _base_paths(tmp_path, 1)},
                         split={"dev_videos": dev},
                         synth={"n_videos": 4, "frames_per_video": 120, "embedding_dim": 4,
                                "noise": 0.5, "voiced_fraction": 0.7}, **overrides)
    config = load_config(path)
    _synth_from(config)
    _write_base_predictions(config)
    change, eol, back = _TRANSFORMS[transform] if transform else (None, "\n", None)
    files = {name: Path(getattr(config.paths, name)) for name in ("embeddings", "labels",
                                                                  "vad")}
    files["base"] = Path(config.paths.base_predictions[0])
    before = {name: f.read_bytes() for name, f in files.items()}
    rows = {name: data.decode("utf-8").splitlines() for name, data in before.items()}
    for name, lines in (change(rows) if change else rows).items():
        files[name].write_bytes("".join(line + eol for line in lines).encode("utf-8"))
    if transform:  # the transform changed the inputs
        assert any(f.read_bytes() != before[name] for name, f in files.items())
    assert main(["run", "--config", str(path)]) == 0
    run_dir = load_config(path).run_dir()
    out = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
           if p.name not in _UNCOMPARED}
    if back:
        header, *lines = out["predictions.csv"].decode("utf-8").splitlines()
        out["predictions.csv"] = "".join(
            line + "\n" for line in [header, *map(back, lines)]).encode("utf-8")
    return out


@pytest.fixture(scope="module")
def untransformed(tmp_path_factory):
    runs = {}

    def get(task):
        if task not in runs:
            runs[task] = _run(tmp_path_factory.mktemp(f"plain-{task}"), task, None)
        return runs[task]

    return get


@pytest.mark.parametrize("transform", list(_TRANSFORMS))
@pytest.mark.parametrize("task", list(_TASKS))
def test_a_run_does_not_depend_on_the_inputs_layout(tmp_path, untransformed, task,
                                                    transform):
    plain = untransformed(task)
    assert {"kelm_scores.npy", "predictions.csv"} <= set(plain)
    got = _run(tmp_path, task, transform)
    assert sorted(got) == sorted(plain)
    assert [name for name in plain if got[name] != plain[name]] == []
