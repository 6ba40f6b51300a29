"""Compare what this checkout makes with another checkout's: bytes, time and peak RSS.

    python3 tools/artifacts_ab.py OTHER_CHECKOUT [CASE ...]

CASE is one of the names in CASES; with none given, every case runs.
The pipeline cases synthesise one small dataset per task once (expr and
va embeddings, labels and VAD, and two noisy base prediction tracks per
task) and run {expr, va} x {dwf, rf, mean} with the KELM over 2 s
windows that do not overlap, expr dwf again over the default 4 s / 2 s
windows, which do (`expr-dwf-overlap`), and with two dev videos listed
out of sorted order (`expr-dwf-two-dev`), the one case whose
`kelm_scores.npy` holds more than one video, and two fusion-only va
configs over both base tracks: dwf (`va-fusion-only-dwf`), and mean
with no dev split (`va-fusion-only-mean`), the one case that fuses
every video rather than the dev videos alone. Every KELM case
gates its windows by the VAD. Each runs twice: single-shot (`run`) and
stage by stage (the stage commands of its run, as that checkout's
`planned_stages` lists them). Both checkouts read the same input paths,
so `manifest.json` does not depend on where a checkout lives; every
file of the run directory but `timings.json` is compared, and so is the
fused table that `fuse` hands `stage_postprocess` in memory and no file
holds: the item `fused (in memory)` hashes each fused track's video id,
first frame, shape and values, in sorted video order, as a wrapper of
`pipeline.interpolate_to` captures them from its first argument, once
per fused video; it leans on no stage function's signature, so it works
on checkouts whose stages pass their values differently. Each pair of a pipeline case also
compares this checkout's staged files and fused table with its
single-shot ones, leaving out `config.json` and `manifest.json`, which
only `run` writes; a thing that differs prints as `staged differs: NAME`.
`forest` trains a regression forest of 6 trees on one seeded 9,000 x 4
set whose features and targets lie on a 0.01 grid, so there are ties
and -0.0 targets, and compares every tree array, the bootstrap
membership, the OOB curve, and `predict_forest` and `predict_oob` of
the training rows; its time is the training and both predictions.
`forest-expr` does the same for a
classification forest of 6 trees over 8 classes, on 9,000 rows of two
noisy one-hot score vectors, 16 columns on a 0.01 grid. `stack-rf`
runs `fusion.stack_and_fuse_rf` on a seeded va stack of the `va-rf`
benchmark workload's dev shape (3 models x 600 frames x 2 columns,
`grid=(2, 4, 12)`, two regression heads), with the dev rows as the
target, and compares the fused table and every field of its
`RfFusionInfo`; its time is the call's. `kelm` runs
the C search and training of the kelm command at the bench shape,
`select_c` over the default C grid on 3,887 weighted 8-class training
rows and 897 dev rows of 192 min-max scaled columns, then `train_kelm`
at the chosen C, and compares C, its dev score and beta. `writers`
writes, with each checkout's `write_track_csv`, `write_label_csv` and
`write_vad_csv`, the input files of the `expr-dwf` benchmark workload at
its shapes (8 videos of 2,000 frames: 8-d embeddings, two sets of
8-column base tracks, expr labels as {frame: row} dicts and a VAD) and
the predictions of `va-late-fusion` (12 videos of 3,000 va rows), from
arrays the tool seeds, and compares every file; its time is the writes'.

Each run is a fresh process per checkout that imports that checkout's
`src/affectpipe`, in pairs that alternate which checkout runs first.
Each pair prints both processes' time and peak RSS, for a pipeline case
or `writers` the bytes of the files it compares (for a pipeline case the
run directory without `timings.json`, so a change in size shows without
the benchmark), and whether the sha256 of everything they made is
equal; a thing that is not prints as `differs: NAME`, or as
`only in other: NAME` / `only in this: NAME` when one checkout alone
made it, and a process that fails prints its last stderr line. A case of more than one pair ends
with the medians. Before the verdict, the last line, the tool prints the
lines of `src/affectpipe/*.py` in each checkout and the net change. Any
difference or failure exits 1; an unknown case, or an OTHER without
`src/affectpipe`, exits 2. The processes inherit the environment, so
`OPENBLAS_NUM_THREADS=1` compares the two at one BLAS thread.

Peak RSS is the process's `VmHWM` where Linux has one: `ru_maxrss`
survives fork and exec, so it would read at least this tool's own RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
FUSION = {"dwf": {"pool_size": 100}, "rf": {"tree_grid": [3, 5]}, "mean": {}}
PIPELINE = ([f"{task}-{method}" for task in ("expr", "va") for method in FUSION]
            + ["expr-dwf-overlap", "expr-dwf-two-dev", "va-fusion-only-dwf",
               "va-fusion-only-mean"])
# each case's child modes and pairs of runs
CASES = {**{name: (("single", "staged"), 1) for name in PIPELINE},
         "forest": (("forest",), 5), "forest-expr": (("forest",), 5),
         "stack-rf": (("stack-rf",), 5), "kelm": (("kelm",), 5), "writers": (("writers",), 5)}
CLASSES = 8

CHILD = """
import hashlib, json, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
mode, data, out, pair = sys.argv[2], sys.argv[3], Path(sys.argv[4]), int(sys.argv[5])
if mode == "forest":
    from affectpipe.forest import ForestSpec, predict_forest, predict_oob, train_forest
    d = np.load(data)
    start = time.perf_counter()
    model = train_forest(d["x"], d["y"], ForestSpec(n_trees=int(d["trees"]), seed=pair),
                         task=str(d["task"]),
                         n_classes=int(d["n_classes"]) if "n_classes" in d else None)
    made = {"in_bag": model.in_bag, "oob_curve": model.oob_curve,
            "predict_forest": predict_forest(model, d["x"]),
            "predict_oob": predict_oob(model, d["x"])}
    made.update((f"tree {t} {field}", array) for t, tree in enumerate(model.trees)
                for field, array in zip(tree._fields, tree))
elif mode == "stack-rf":
    from dataclasses import fields
    from affectpipe.forest import ForestSpec
    from affectpipe.fusion import stack_and_fuse_rf
    d = np.load(data)
    preds = list(d["preds"])
    start = time.perf_counter()
    fused, info = stack_and_fuse_rf(preds, d["truth"], preds, "va",
                                    ForestSpec(n_trees=10, seed=pair), grid=(2, 4, 12))
    made = {"fused": fused}
    made.update((f.name, repr(getattr(info, f.name))) for f in fields(info))
elif mode == "kelm":
    from affectpipe.kelm import (DEFAULT_C_GRID, KernelSpec, class_weights,
                                 encode_classification_targets, select_c, train_kelm)
    d = np.load(data)
    enc = encode_classification_targets(d["y"], int(d["y"].max()) + 1)
    weights, spec = class_weights(d["y"]), KernelSpec("rbf")
    start = time.perf_counter()
    c, score = select_c(d["x"], enc, DEFAULT_C_GRID, d["dev_x"], d["dev_y"], "macro_f1",
                        kernel=spec, weights=weights)
    model = train_kelm(d["x"], enc, c, kernel=spec, weights=weights, task="classification")
    made = {"c": np.float64(c), "dev score": np.float64(score), "beta": model.beta}
elif mode == "writers":
    from affectpipe.timeline import FrameTrack, write_track_csv
    from affectpipe.windowing import LabelRows, VadMask, write_label_csv, write_vad_csv
    d = np.load(data)
    embeddings = [FrameTrack(f"v{i:03d}", 5.0, x) for i, x in enumerate(d["embeddings"])]
    bases = [[FrameTrack(f"v{i:03d}", 5.0, x, kind="class_scores") for i, x in enumerate(s)]
             for s in d["scores"]]
    # the labels as synth_tracks gives them, the predictions as stage_postprocess does
    labels = {f"v{i:03d}": {t: np.array([float(y)]) for t, y in enumerate(ys)}
              for i, ys in enumerate(d["labels"])}
    vad = [VadMask(f"v{i:03d}", voiced) for i, voiced in enumerate(d["voiced"])]
    predictions = {f"v{i:03d}": LabelRows(np.arange(len(va)), va) for i, va in enumerate(d["va"])}
    out.mkdir(parents=True)
    start = time.perf_counter()
    write_track_csv(out / "embeddings.csv", embeddings)
    for m, base in enumerate(bases):
        write_track_csv(out / f"base_{m}.csv", base)
    write_label_csv(out / "labels.csv", labels, task="expr")
    write_vad_csv(out / "vad.csv", vad)
    write_label_csv(out / "predictions.csv", predictions, task="va")
    made = {p.name: p for p in sorted(out.iterdir())}
else:
    from affectpipe import pipeline
    from affectpipe.cli import main
    from affectpipe.pipeline import load_config, planned_stages
    fused = []

    def interpolate_to(track, *args, _fn=pipeline.interpolate_to, **kwargs):
        fused.append(track)  # postprocess interpolates each fused track once
        return _fn(track, *args, **kwargs)

    pipeline.interpolate_to = interpolate_to
    commands = (["run"] if mode == "single"
                else [stage.name for stage in planned_stages(load_config(data))])
    start = time.perf_counter()
    codes = [main([cmd, "--config", data, "--out-dir", str(out)]) for cmd in commands]
    if any(codes):
        sys.exit(f"exit codes {codes}")
    made = {str(p.relative_to(out)): p for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "timings.json"}
    tracks = {t.video_id: t for t in fused}
    if len(tracks) != len(fused):
        sys.exit("a fused track was interpolated more than once")
    made["fused (in memory)"] = np.frombuffer(b"".join(
        json.dumps([vid, t.frame_index_origin, t.values.shape]).encode() + t.values.tobytes()
        for vid, t in sorted(tracks.items())), dtype=np.uint8)
seconds = time.perf_counter() - start
files = [v for v in made.values() if isinstance(v, Path)]  # a run's files
status = Path("/proc/self/status")
hwm = [line.split()[1] for line in (status.read_text().splitlines() if status.exists() else ())
       if line.startswith("VmHWM:")]
print(json.dumps({
    "s": seconds,
    "rss_mb": int(hwm[0] if hwm else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024,
    "bytes": sum(f.stat().st_size for f in files) if files else None,
    "made": {k: hashlib.sha256(v.read_bytes() if isinstance(v, Path) else np.asarray(v).tobytes())
             .hexdigest() for k, v in made.items()},
}))
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


def pipeline_configs(paths: dict, videos: int) -> dict:
    """Each pipeline case's config."""
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
    # kelm_scores.npy holds the dev videos in sorted order, whatever order the config lists
    out["expr-dwf-two-dev"] = {**out["expr-dwf"], "split": {"dev_videos": [*dev, "v001"]}}
    fusion_only = {
        "task": "va", "seed": 3, "kelm": {"enabled": False},
        "paths": {"labels": paths["va"]["labels"],
                  "base_predictions": paths["va"]["base_predictions"]},
    }
    out["va-fusion-only-dwf"] = {**fusion_only, "split": {"dev_videos": dev},
                                 "fusion": {"method": "dwf", **FUSION["dwf"]}}
    out["va-fusion-only-mean"] = {**fusion_only, "fusion": {"method": "mean"}}
    return out


def forest_data(rows: int, columns: int, trees: int) -> dict:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(rows, columns)).round(2)
    y = np.sin(2 * x[:, 0]) + x[:, 1] * x[:, -1] + 0.3 * rng.normal(size=rows)
    return {"x": x, "y": np.clip(y, -1, 1).round(2), "trees": trees, "task": "regression"}


def forest_expr_data(rows: int, columns: int, trees: int) -> dict:
    """Class labels, and as features `columns` // CLASSES noisy one-hot score vectors."""
    rng = np.random.default_rng(0)
    y = rng.integers(0, CLASSES, size=rows)
    x = np.tile(np.eye(CLASSES)[y], columns // CLASSES)
    x = (x + 0.5 * rng.normal(size=x.shape)).round(2)
    return {"x": x, "y": y, "trees": trees, "task": "classification", "n_classes": CLASSES}


def stack_rf_data(models: int, frames: int) -> dict:
    """A va truth that drifts in [-1, 1], and `models` noisier copies of it."""
    rng = np.random.default_rng(0)
    t = np.arange(frames) / 15.0
    truth = np.stack([np.sin(t / 3), np.cos(t / 5)], axis=1) + 0.2 * rng.normal(size=(frames, 2))
    noise = 0.3 + 0.1 * np.arange(models)
    preds = truth + noise[:, None, None] * rng.normal(size=(models, frames, 2))
    return {"truth": np.clip(truth, -1, 1), "preds": np.clip(preds, -1, 1)}


def kelm_data(train: int, dev: int, columns: int) -> dict:
    """Labelled features in [0, 1] whose classes overlap, unequal in size."""
    rng = np.random.default_rng(0)
    n = train + dev
    y = rng.choice(CLASSES, size=n, p=np.arange(1, CLASSES + 1) / 36)
    y[:CLASSES] = np.arange(CLASSES)  # every class trains
    # class means a fifth of the noise apart per column: at the bench shape
    # the dev macro-F1 is about 0.8 and moves with C
    x = rng.normal(size=(n, columns)) + 0.2 * rng.normal(size=(CLASSES, columns))[y]
    x = (x - x.min(axis=0)) / (x.max(axis=0) - x.min(axis=0))
    return {"x": x[:train], "y": y[:train], "dev_x": x[train:], "dev_y": y[train:]}


def writers_data(videos: int, frames: int, dim: int, va_videos: int, va_frames: int) -> dict:
    """Embeddings, two sets of base scores, expr labels and voiced flags for
    `videos` videos of `frames` frames, and va predictions for `va_videos`."""
    rng = np.random.default_rng(0)
    return {"embeddings": rng.normal(size=(videos, frames, dim)),
            "scores": rng.normal(size=(2, videos, frames, CLASSES)),
            "labels": rng.integers(0, CLASSES, size=(videos, frames)),
            "voiced": rng.random((videos, frames)) < 0.8,
            "va": rng.uniform(-1, 1, size=(va_videos, va_frames, 2))}


def write_cases(names, tmp: Path, videos: int, frames: int, forest, forest_expr,
                stack_rf, kelm, writers) -> dict[str, Path]:
    """Each named case's input: a pipeline config, or the arrays of another case."""
    inputs = {}
    pipeline = [name for name in names if name in PIPELINE]
    if pipeline:
        configs = pipeline_configs(write_inputs(tmp / "data", videos, frames), videos)
        for name in pipeline:
            inputs[name] = tmp / f"{name}.yaml"
            inputs[name].write_text(yaml.safe_dump(configs[name]))
    for name, make, sizes in (("forest", forest_data, forest),
                              ("forest-expr", forest_expr_data, forest_expr),
                              ("stack-rf", stack_rf_data, stack_rf),
                              ("kelm", kelm_data, kelm),
                              ("writers", writers_data, writers)):
        if name in names:
            inputs[name] = tmp / f"{name}.npz"
            np.savez(inputs[name], **make(*sizes))
    return inputs


def run_child(checkout: Path, mode: str, data: Path, out: Path, pair: int) -> dict | str:
    """The run's time, peak RSS and hashes, or the last stderr line of a failed run."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), mode,
                           str(data), str(out), str(pair)], capture_output=True, text=True)
    if proc.returncode != 0:
        return (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def diff(other: dict, this: dict) -> list[str]:
    """One line per name that the two maps of made things do not share equal."""
    lines = []
    for rel in sorted(set(other) | set(this)):
        if rel not in this:
            lines.append(f"only in other: {rel}")
        elif rel not in other:
            lines.append(f"only in this: {rel}")
        elif other[rel] != this[rel]:
            lines.append(f"differs: {rel}")
    return lines


def usage(run: dict | str) -> str:
    if isinstance(run, str):
        return "failed"
    size = "" if run.get("bytes") is None else f" {run['bytes']:,} B"
    return f"{run['s']:.3f} s {run['rss_mb']:.1f} MB{size}"


def run_pairs(label: str, mode: str, data: Path, checkouts, pairs: int,
              out: Path) -> tuple[int, list]:
    """Print one case's pairs of runs, their medians if all are equal; the
    count that differ, and this checkout's runs."""
    runs = {"other": [], "this": []}
    differ = 0
    for pair in range(pairs):
        for side, checkout in checkouts[::-1] if pair % 2 else checkouts:
            runs[side].append(run_child(checkout, mode, data, out / f"{side}-{pair}", pair))
        a, b = runs["other"][-1], runs["this"][-1]
        bad = [f"{side} failed: {run}" for side, run in (("other", a), ("this", b))
               if isinstance(run, str)] or diff(a["made"], b["made"])
        made = "" if isinstance(b, str) else f", {len(b['made'])} made"
        print(f"{label} pair {pair}: other {usage(a)}, this {usage(b)}{made}, equal: {not bad}")
        for line in bad:
            print(f"  {line}")
        differ += bool(bad)
    if pairs > 1 and not differ:
        med = {side: {k: statistics.median(r[k] for r in rs) for k in ("s", "rss_mb")}
               for side, rs in runs.items()}
        print(f"{label}: median other {usage(med['other'])}, this {usage(med['this'])}")
    return differ, runs["this"]


def staged_vs_single(name: str, single: list, staged: list) -> int:
    """Print whether each pair's staged run of this checkout made the files
    its single-shot run did, apart from the two only `run` writes; the
    count of pairs that differ. A failed run was counted where it failed."""
    differ = 0
    for pair, (a, b) in enumerate(zip(single, staged)):
        if isinstance(a, str) or isinstance(b, str):
            continue
        names = sorted(rel for rel in set(a["made"]) | set(b["made"])
                       if Path(rel).name not in ("config.json", "manifest.json"))
        bad = [rel for rel in names if a["made"].get(rel) != b["made"].get(rel)]
        print(f"{name} pair {pair}: staged equals single-shot in this checkout: {not bad}")
        for rel in bad:
            print(f"  staged differs: {rel}")
        differ += bool(bad)
    return differ


def compare(other: Path, only=None, videos: int = 4, frames: int = 200,
            forest=(9000, 4, 6), forest_expr=(9000, 16, 6), stack_rf=(3, 600),
            kelm=(3887, 897, 192), writers=(8, 2000, 8, 12, 3000),
            pairs: int | None = None) -> int:
    """Run every case, or the ones named in `only`, in both checkouts; 1 on a difference.

    `pairs` overrides each case's own count of pairs.
    """
    names = [name for name in CASES if not only or name in only]
    unknown = sorted(set(only or ()) - set(CASES))
    if unknown:
        print(f"unknown case(s) {' '.join(unknown)}; known: {' '.join(CASES)}",
              file=sys.stderr)
        return 2
    if not (other / "src" / "affectpipe").is_dir():  # else PYTHONPATH could stand in for it
        print(f"{other} holds no src/affectpipe", file=sys.stderr)
        return 2
    checkouts = [("other", other.resolve()), ("this", ROOT)]
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = write_cases(names, tmp, videos, frames, forest, forest_expr, stack_rf, kelm,
                             writers)
        for name in names:
            modes, case_pairs = CASES[name]
            made = {}
            for mode in modes:
                label = name if len(modes) == 1 else f"{name} {mode}"
                case_differ, made[mode] = run_pairs(label, mode, inputs[name], checkouts,
                                                    pairs or case_pairs, tmp / name / mode)
                differ += case_differ
            if name in PIPELINE:
                differ += staged_vs_single(name, made["single"], made["staged"])
    lines = {side: source_lines(checkout) for side, checkout in checkouts}
    print(f"src/affectpipe/*.py lines: other {lines['other']:,}, this {lines['this']:,}, "
          f"net {lines['this'] - lines['other']:+,}")
    print("everything equal" if not differ else f"{differ} pair(s) differ")
    return 1 if differ else 0


def source_lines(checkout: Path) -> int:
    """The lines of the checkout's src/affectpipe/*.py, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "affectpipe").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="checkout to compare against")
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help=f"cases to run (default all): {' '.join(CASES)}")
    args = parser.parse_args(argv)
    return compare(args.other, only=args.cases)


if __name__ == "__main__":
    sys.exit(main())
