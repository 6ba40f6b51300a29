"""Seeded input mutations: every bad input exits in its error family.

Each case makes 1-3 seeded edits to one input CSV of a small run and
runs `affectpipe run` on it: a byte replaced, inserted or deleted, a line
deleted or duplicated, the last field of every line deleted, or a
truncation. The runs are KELM + DWF, expr or va, over the embeddings,
labels, VAD and a base-predictions file, and expr DWF without the KELM
over the labels and the base file. The config itself is never edited: a
digit inserted into `smooth_seconds` can ask for gigabytes.
The cases run in one child process, so a crash in numpy's text parser
fails this test instead of the test session. See Miller, Fredriksen &
So 1990, "An Empirical Study of the Reliability of UNIX Utilities".
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N_CASES = 200
INPUTS = ("embeddings", "labels", "vad", "base")
# 0xff is not UTF-8; the rest are what a CSV row is made of
BYTES = b"\xff0123456789,.-e \n\r\""
EDITS = ("replace", "insert", "delete", "line-delete", "line-duplicate", "field-delete",
         "truncate")


def _write_inputs(workdir: Path, task: str) -> Path:
    """The inputs of one task's run and its config; the config's path."""
    import yaml

    from affectpipe.pipeline import load_config
    from affectpipe.synth import synth_generate
    from affectpipe.timeline import FrameTrack, write_track_csv

    data = workdir / task
    data.mkdir(parents=True)
    paths = {name: str(data / f"{name}.csv") for name in INPUTS}
    cfg = {
        "task": task,
        "seed": 3,
        "paths": {"embeddings": paths["embeddings"], "labels": paths["labels"],
                  "vad": paths["vad"], "base_predictions": [paths["base"]]},
        "split": {"dev_videos": ["v003"]},
        "window": {"window_seconds": 4.0, "hop_seconds": 2.0},
        "fusion": {"method": "dwf", "pool_size": 50},
        "synth": {"n_videos": 4, "frames_per_video": 120, "embedding_dim": 4,
                  "noise": 0.5, "block_seconds": 8.0, "voiced_fraction": 0.8},
    }
    config_path = data / "config.yaml"
    config_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    if task == "expr":  # the base file, fused without the KELM
        fusion_paths = {"labels": paths["labels"], "base_predictions": [paths["base"]]}
        (data / "fusion-only.yaml").write_text(yaml.safe_dump(
            {**cfg, "kelm": {"enabled": False}, "paths": fusion_paths}), encoding="utf-8")
    config = load_config(config_path)
    synth_generate(config.synth, paths["embeddings"], paths["labels"], paths["vad"])
    rng = np.random.default_rng(0)
    width = 8 if task == "expr" else 2
    write_track_csv(paths["base"], [
        FrameTrack(f"v{i:03d}", config.fps_target,
                   np.clip(rng.normal(scale=0.5, size=(120, width)), -1, 1),
                   kind=config.track_kind)
        for i in range(4)
    ])
    return config_path


def _mutate(rng, data: bytes) -> tuple[bytes, list[str]]:
    """`data` after 1-3 seeded edits, and a description of each."""
    edits = []
    for _ in range(int(rng.integers(1, 4))):
        kind = EDITS[int(rng.integers(len(EDITS)))]
        at = int(rng.integers(len(data) + 1))
        byte = BYTES[int(rng.integers(len(BYTES))):][:1]
        if kind == "replace":
            data = data[:at] + byte + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + byte + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "field-delete":  # every line's, so the column count changes
            data = re.sub(rb",[^,\r\n]*(?=\r?$)", b"", data, flags=re.M)
        elif kind.startswith("line-"):
            lines = data.splitlines(keepends=True)
            if not lines:
                continue
            at = int(rng.integers(len(lines)))
            lines[at:at + 1] = [lines[at]] * (2 if kind == "line-duplicate" else 0)
            data = b"".join(lines)
        where = "" if kind == "field-delete" else f"@{at}"
        edits.append(kind + where + (f"={byte!r}" if kind in ("replace", "insert") else ""))
    return data, edits


def _run_cases(workdir: str, n_cases: int) -> None:
    """Run the cases, printing one JSON line per case before and after it."""
    from affectpipe import cli

    workdir = Path(workdir)
    configs = {task: _write_inputs(workdir, task) for task in ("expr", "va")}
    configs["expr-fusion-only"] = configs["expr"].parent / "fusion-only.yaml"
    for seed in range(n_cases):
        rng = np.random.default_rng([seed, 36])
        task = list(configs)[seed % len(configs)]
        inputs = ("labels", "base") if task == "expr-fusion-only" else INPUTS
        name = inputs[int(rng.integers(len(inputs)))]
        path = configs[task].parent / f"{name}.csv"
        original = path.read_bytes()
        mutated, edits = _mutate(rng, original)
        case = {"seed": seed, "task": task, "file": name, "edits": edits}
        print(json.dumps(case), flush=True)
        out_dir = workdir / "out" / str(seed)
        path.write_bytes(mutated)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code, error = cli.main(["run", "--config", str(configs[task]),
                                        "--out-dir", str(out_dir)]), None
        except Exception:  # noqa: BLE001 - an escape is what is recorded
            code, error = 1, traceback.format_exc()
        finally:
            path.write_bytes(original)
        left = sorted(p.name for p in out_dir.glob("*run-*")) if out_dir.exists() else []
        print(json.dumps({**case, "exit": code, "error": error, "left": left}), flush=True)


def test_mutated_inputs_exit_in_their_error_family(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # a run's own warning filters: the pytest ones do not reach the child
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import test_fuzz; test_fuzz._run_cases({str(tmp_path)!r}, {N_CASES})"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0, (
        f"the child died ({proc.returncode}) in case {lines[-1] if lines else None}:\n"
        + proc.stderr[-3000:])
    results = [case for case in lines if "exit" in case]
    assert len(results) == N_CASES
    bad = [case for case in results
           if case["exit"] not in (0, 2, 3, 4, 5, 6, 7) or case["error"]
           or (case["exit"] and case["left"])]
    assert not bad, "\n".join(
        f"seed {c['seed']} {c['task']} {c['file']} {c['edits']}: exit {c['exit']}, "
        f"left {c['left']}\n{c['error'] or ''}" for c in bad)
    # the edits reach the readers: most cases fail, and not all in one family
    assert len({case["exit"] for case in results}) >= 3
