"""Compare every file this checkout's pipeline writes with another checkout's.

    python3 tools/artifacts_ab.py OTHER_CHECKOUT

Synthesises one small dataset per task once (expr and va embeddings,
labels and VAD, and a noisy base prediction track per task), then runs
{expr, va} x {dwf, rf, mean} with the KELM over 2 s windows that do not
overlap, expr dwf again over the default 4 s / 2 s windows, which do,
and one fusion-only va dwf config over two base tracks, in each
checkout. Every KELM case gates its windows by the VAD. Each config runs
twice: single-shot (`run`) and stage by stage (the stage commands of its
run, as that checkout's `planned_stages` lists them), each of the two in
a fresh process that imports that checkout's `src/affectpipe`. Both
checkouts read the same input paths, so `manifest.json` does not depend
on where a checkout lives.
Every file of the run directories but `timings.json` is compared byte
for byte, and each file that is not equal prints as `differs: REL`, or
as `only in other: REL` / `only in this: REL` when one checkout alone
wrote it; such a file, or a command that fails in either checkout,
exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
FUSION = {"dwf": {"pool_size": 100}, "rf": {"tree_grid": [3, 5]}, "mean": {}}

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from affectpipe.cli import main
from affectpipe.pipeline import load_config, planned_stages
config, out, mode = sys.argv[2:]
commands = (["run"] if mode == "single"
            else [stage.name for stage in planned_stages(load_config(config))])
print(json.dumps([main([cmd, "--config", config, "--out-dir", out]) for cmd in commands]))
"""


def write_inputs(data: Path, videos: int, frames: int) -> dict:
    """Each task's input paths, made with this checkout's package."""
    sys.path.insert(0, str(ROOT / "src"))
    from affectpipe.synth import SyntheticSpec, synth_generate
    from affectpipe.timeline import FrameTrack, write_track_csv
    from affectpipe.windowing import read_label_csv

    rng = np.random.default_rng(0)
    paths = {}
    for task in ("expr", "va"):
        p = {k: data / f"{task}_{k}.csv" for k in ("embeddings", "labels", "vad")}
        spec = SyntheticSpec(n_videos=videos, frames_per_video=frames, embedding_dim=6,
                             task=task, class_count=4, noise=1.0, block_seconds=8.0,
                             voiced_fraction=0.8)
        synth_generate(spec, p["embeddings"], p["labels"], p["vad"])
        bases = []
        for m in range(2):
            tracks = []
            for vid, rows in read_label_csv(p["labels"], task).items():
                if task == "expr":
                    values = np.eye(8)[rows.values[:, 0].astype(np.int64)]
                    kind = "class_scores"
                else:
                    values, kind = rows.values, "va"
                noisy = values + 0.5 * rng.normal(size=values.shape)
                tracks.append(FrameTrack(vid, 5.0, np.clip(noisy, -1, 1) if task == "va"
                                         else noisy, kind=kind))
            bases.append(data / f"{task}_base_{m}.csv")
            write_track_csv(bases[-1], tracks)
        paths[task] = {**{k: str(v) for k, v in p.items()},
                       "base_predictions": [str(b) for b in bases]}
    return paths


def cases(paths: dict, videos: int) -> dict:
    """Each case's config."""
    dev = [f"v{videos - 1:03d}"]
    out = {}
    for task in ("expr", "va"):
        for method, extra in FUSION.items():
            out[f"{task}-{method}"] = {
                "task": task, "seed": 3, "split": {"dev_videos": dev},
                "paths": {**paths[task], "base_predictions": paths[task]["base_predictions"][:1]},
                "window": {"window_seconds": 2.0, "hop_seconds": 2.0},
                "fusion": {"method": method, **extra},
            }
    # the default 4 s / 2 s windows overlap, and short voiced segments give short windows
    out["expr-dwf-overlap"] = {k: v for k, v in out["expr-dwf"].items() if k != "window"}
    out["va-fusion-only-dwf"] = {
        "task": "va", "seed": 3, "split": {"dev_videos": dev},
        "paths": {"labels": paths["va"]["labels"],
                  "base_predictions": paths["va"]["base_predictions"]},
        "kelm": {"enabled": False},
        "fusion": {"method": "dwf", **FUSION["dwf"]},
    }
    return out


def run_child(checkout: Path, config: Path, out: Path, mode: str) -> list:
    """The exit codes of the checkout's commands for `mode` ("single" or "staged")."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), str(config),
                           str(out), mode], capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"crashed: {proc.stderr.strip().splitlines()[-1:]}"]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def files(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file() and p.name != "timings.json"}


def diff(other: dict[str, bytes], this: dict[str, bytes]) -> list[str]:
    """One line per file that the two maps of run-directory files do not share byte for byte."""
    lines = []
    for rel in sorted(set(other) | set(this)):
        if rel not in this:
            lines.append(f"only in other: {rel}")
        elif rel not in other:
            lines.append(f"only in this: {rel}")
        elif other[rel] != this[rel]:
            lines.append(f"differs: {rel}")
    return lines


def compare(other: Path, videos: int = 4, frames: int = 200, only=None) -> int:
    """Run every case, or the ones named in `only`, in both checkouts; 1 on a difference."""
    checkouts = {"other": other.resolve(), "this": ROOT}
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = write_inputs(tmp / "data", videos, frames)
        for name, config in cases(paths, videos).items():
            if only is not None and name not in only:
                continue
            config_path = tmp / f"{name}.yaml"
            config_path.write_text(yaml.safe_dump(config))
            for mode in ("single", "staged"):
                got = {}
                for side, checkout in checkouts.items():
                    out = tmp / side / name / mode
                    codes = run_child(checkout, config_path, out, mode)
                    got[side] = (codes, files(out) if out.exists() else {})
                (codes_a, a), (codes_b, b) = got["other"], got["this"]
                ok = set(codes_a) == set(codes_b) == {0}
                bad = diff(a, b)
                print(f"{name} {mode}: {len(b)} files, exit codes other {codes_a} "
                      f"this {codes_b}, equal: {ok and not bad}")
                for line in bad:
                    print(f"  {line}")
                differ += not ok or bool(bad)
    print("every file equal" if not differ else f"{differ} run(s) differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="checkout to compare against")
    return compare(parser.parse_args(argv).other)


if __name__ == "__main__":
    sys.exit(main())
