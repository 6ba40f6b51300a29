"""Benchmark harness for the affectpipe pipeline.

    python3 benchmarks/run.py --workload expr-dwf --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout that has `src/affectpipe`. One
invocation:

1. builds the workload's inputs from the seed several times, the first
   before and the rest between the repetitions (`setup_s` is the
   median), and checks that the builds are byte-identical;
2. runs the pipeline in a fresh process with a fresh output directory,
   again and again for `--seconds` (at least three repetitions), and
   checks every repetition's outputs against the reference;
3. with `--trace 1`, runs it once more with spans around the program's
   public functions and reports the per-layer metrics instead.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the metric names and units come from
BENCHMARK.json. Diagnostics go to stderr. `--smoke` runs each
workload's shrunk variant, which finishes in seconds.
"""

from __future__ import annotations

import os

# One BLAS thread: outputs (and so the pinned digests) depend on the BLAS
# thread count, and 1 x workers stays within the cores of a 2-core box.
BLAS_THREADS = 1
BLAS_ENV = {k: str(BLAS_THREADS) for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # set-up builds per invocation, at least ...
SETUP_SHARE = 0.15  # ... and kept at this share of the elapsed run, so a fast
SETUP_MAX = 60  # set-up is sampled often, and all along the run
MIN_REPS = 3
DEADLINE_S = 170.0  # an invocation must end within 180 s

DEFAULT_SEED = 0
# The pins hold for this numpy/BLAS build on this CPU family: the BLAS
# kernels (chosen per CPU) decide the last bits of the KELM solve.
PINNED_ON = {"nproc": 2, "machine": "x86_64", "cpu": "Intel(R) Xeon(R) Processor",
             "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
             "blas_threads": 1}
# sha256 of predictions.csv and report.csv and the score, at DEFAULT_SEED
PINS = {
    "expr-dwf": {
        "predictions": "e4fcc5f2ce037c26d7d4b0169382c522c60062aa403e72b05bb3ad6a6ce1fec0",
        "report": "ef2804a745eee9f6c5f999e5a9a60faf712eb468b8c3799f403323c4596e12cb",
        "score": 0.9149660526836675,
    },
    "va-rf": {
        "predictions": "52289809a41c0e1d94527c7c0f690745bec8532e2278213830c61c74e5010f9e",
        "report": "f8cd3e831c97d6b9ea028089e186005b9d3d7cb0a01bc8cde27ca9d6bedd931d",
        "score": 0.9963284582603722,
    },
    "va-late-fusion": {
        "predictions": "7d85f219424841b029532673dac3d4ae80c77e90b31a4ccb937ed50e9e494993",
        "report": "b979aac44d6c7252b0861aa34fb4fbf50d7e8d47c9e738e108167f2224552b08",
        "score": 0.9769268033093137,
    },
    "expr-dwf/smoke": {
        "predictions": "9f63a87491adb15edb643a282fdbe178ea7b568b4b7d41262595720571a863dd",
        "report": "24c4f51ded531df9dbf9868dbb85ae1f202eb05fa5c9e3637e34f5d1a2de126c",
        "score": 0.9363959149319292,
    },
    "va-rf/smoke": {
        "predictions": "9023b4c1474764c28e71f4a56c2c7a4616b69b3bed8152f6a42db0b91f301515",
        "report": "d5868178a1dcfe4b928ec77d9dc798ade70d57a1176736db2dddc67a708b3a45",
        "score": 0.9889049717738709,
    },
    "va-late-fusion/smoke": {
        "predictions": "b4460ddc6097c0a7282370449319bfc0a09a46dc8fca4ca84388243326847aad",
        "report": "9286348a1a56035ee9bfaa26f76f3a8a303b95b866f19480fc903fd671c608e8",
        "score": 0.97858664427899,
    },
}

RUN_FILES = {  # per-layer byte counts of intermediates in the run directory
    "windows_csv": "windows.csv",
    "features_csv": "features.csv",
    "kelm_model_txt": "kelm_model.txt",
    "models_kelm_csv": "models/kelm.csv",
    "fused_csv": "fused.csv",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "machine": platform.machine(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


def run_child(config: Path, out_dir: Path, deadline: float, trace=False, workers=None):
    """One repetition in a fresh process; returns (record, error)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(config),
           "--out-dir", str(out_dir)]
    if trace:
        cmd.append("--trace")
    if workers is not None:
        cmd += ["--workers", str(workers)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env={**os.environ, **BLAS_ENV},
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}"
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"no result line from the child: {lines[-1][:200]!r}"
    if record["rc"] != 0:
        return None, f"pipeline exit code {record['rc']}: {proc.stderr.strip()[-600:]}"
    runs = [p for p in out_dir.iterdir() if p.is_dir()]
    if len(runs) != 1:
        return None, f"expected one run directory in {out_dir}, found {len(runs)}"
    run_dir = runs[0]
    try:
        report = run_dir / "report.csv"
        score = None
        for line in report.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(",")
            if key in ("macro_f1", "ccc_mean"):
                score = float(value)
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        total = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
        record.update(
            wall_s=wall,
            total_bytes=total,
            run_dir_mb=total / 1e6,
            bytes={key: (run_dir / rel).stat().st_size if (run_dir / rel).exists() else 0
                   for key, rel in RUN_FILES.items()},
            digests={"predictions": sha256(run_dir / "predictions.csv"),
                     "report": sha256(report), "score": score},
            outputs_hash=manifest["outputs_hash"],
            n_trees=read_n_trees(run_dir),
        )
    except (OSError, KeyError, ValueError) as exc:
        return None, f"run directory {run_dir} lacks an expected output: {exc}"
    shutil.rmtree(out_dir)
    return record, None


def check_output(record, reference, label: str, pinned: bool) -> bool:
    if record["digests"] != reference:
        log(f"{label}: outputs disagree with the reference\n"
            f"  got      {record['digests']}\n  expected {reference}")
        if pinned:
            # the last bits of the KELM solve depend on the BLAS kernels
            log(f"  the pins were made on {json.dumps(PINNED_ON)}; "
                f"this run: {json.dumps(environment())}")
        return False
    return True


def read_n_trees(run_dir: Path):
    """The forest size rf_info.csv reports, or None without forest stacking."""
    path = run_dir / "rf_info.csv"
    if not path.exists():
        return None
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(",")
        if key == "n_trees":
            return int(value)
    return None


def check_coverage(spans: dict, w) -> list[str]:
    """Prefixes the workload must call but did not, or must bypass but called."""
    def calls(prefix):
        return sum(v["calls"] for k, v in spans.items() if k.startswith(prefix))

    problems = [f"{p} never called" for p in w.expect_called if calls(p) == 0]
    problems += [f"{p} called {calls(p)} times but should be bypassed"
                 for p in w.expect_bypassed if calls(p) != 0]
    return problems


def per_layer(spans: dict, traced: dict, reps: list, setups: list) -> dict:
    from tracing import STAGES

    def g(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    m = {}
    for stage in STAGES:
        for q in ("s", "self_s", "cpu_s"):
            m[f"pipeline.{stage}.{q}"] = g(f"pipeline.{stage}", q)
    m["pipeline.other.s"] = g("pipeline.run") - sum(g(f"pipeline.{s}") for s in STAGES)
    m["pipeline.evaluate_files.self_s"] = g("pipeline.evaluate_files", "self_s")
    for key in RUN_FILES:
        m[f"pipeline.bytes.{key}"] = traced["bytes"][key]
    m["pipeline.bytes.total"] = traced["total_bytes"]
    m["pipeline.run.cpu_s"] = statistics.median(r["cpu_s"] for r in reps)
    for name, keys in (
        ("timeline.read_track_csv", ("s", "calls", "rows")),
        ("timeline.write_track_csv", ("s", "rows")),
        ("timeline.resample_track", ("s",)),
        ("timeline.interpolate_to", ("s",)),
        ("timeline.hamming_smooth", ("s",)),
        ("windowing.slice_windows", ("s", "windows", "padded_windows")),
        ("windowing.read_label_csv", ("s", "rows")),
        ("windowing.write_label_csv", ("s", "rows")),
        ("windowing.read_vad_csv", ("s",)),
        ("features.batch_functionals", ("s", "rows")),
        ("kelm.kernel_matrix", ("s", "calls", "entries")),
        ("kelm.train_kelm", ("s", "self_s", "calls", "flops_computed")),
        ("kelm.select_c", ("s",)),
        ("kelm.predict_kelm", ("s", "calls")),
        ("forest.train_forest", ("s", "calls", "trees")),
        ("forest.select_n_trees", ("s", "self_s")),
        ("forest.predict_forest", ("s", "calls")),
        ("fusion.sample_pool", ("s",)),
        ("fusion.dwf_search", ("s", "self_s")),
        ("fusion.apply_fusion", ("s", "calls")),
        ("fusion.mean_fusion", ("s",)),
        ("fusion.stack_and_fuse_rf", ("s", "self_s")),
        ("metrics.classification_report", ("s", "calls")),
        ("metrics.ccc", ("s", "calls")),
        ("metrics.write_report", ("s",)),
    ):
        for key in keys:
            m[f"{name}.{key}"] = g(name, key)
    m["windowing.window_targets.s"] = g("windowing.window_labels") + g("windowing.window_va_means")
    m["features.minmax.s"] = sum(g(f"features.{f}") for f in (
        "fit_minmax", "apply_minmax", "per_video_minmax"))
    m["kelm.save_load.s"] = g("kelm.save_kelm_model") + g("kelm.load_kelm_model")
    trees = g("forest.train_forest", "trees")
    m["forest.trees_used_ratio"] = (
        g("forest.select_n_trees", "chosen_trees") / trees if trees else 0)
    m["fusion.pool_matrices"] = g("fusion.sample_pool", "matrices")
    dwf_s = g("fusion.dwf_search")
    m["fusion.dwf_matrices_per_s"] = m["fusion.pool_matrices"] / dwf_s if dwf_s else 0
    m["synth.synth_tracks.s"] = statistics.median(s["synth_s"] for s in setups)
    m["setup.write_inputs.s"] = statistics.median(s["write_s"] for s in setups)
    m["trace_overhead_s"] = traced["run_s"] - statistics.median(r["run_s"] for r in reps)
    return m


def input_digests(d: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(d.iterdir())
            if p.is_file() and p.name != "config.yaml"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's shrunk variant")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "affectpipe" / "__init__.py").is_file():
        log(f"error: no src/affectpipe under {ROOT}; run inside a checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import affectpipe
    from workloads import WORKLOADS, make_inputs

    if Path(affectpipe.__file__).resolve().parent != ROOT / "src" / "affectpipe":
        log(f"error: affectpipe imported from {affectpipe.__file__}, not {ROOT / 'src'}")
        return 2
    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = WORKLOADS[args.workload]
    variant = args.workload
    if args.smoke:
        w, variant = w.shrunk(), f"{variant}/smoke"
    deadline = time.monotonic() + DEADLINE_S
    log(f"{variant} seed={args.seed} env={json.dumps(environment())}")

    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # set-up: the first build feeds the repetitions; the others are
        # spread between repetitions, so that setup_s samples the machine
        # over the whole run rather than one moment of it
        config, timing = make_inputs(w, args.seed, work / "inputs0")
        setups = [timing]
        first_inputs = input_digests(config.parent)
        setup_ok = True

        def rebuild() -> None:
            nonlocal setup_ok
            cfg, timing = make_inputs(w, args.seed, work / f"inputs{len(setups)}")
            setups.append(timing)
            if input_digests(cfg.parent) != first_inputs:
                setup_ok = False
                log("set-up is not deterministic: input files differ between builds")
            shutil.rmtree(cfg.parent)

        def more_setups(elapsed: float) -> bool:
            share = min(elapsed / args.seconds, 1.0)
            return len(setups) < SETUP_MAX and (
                len(setups) < SETUP_REPEATS * share
                or sum(t["total_s"] for t in setups) < SETUP_SHARE * elapsed)

        # measured repetitions, untraced
        reference = PINS.get(variant) if args.seed == DEFAULT_SEED else None
        pinned = reference is not None
        reps, attempted, failed = [], 0, 0
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            if attempted >= MIN_REPS:
                typical = statistics.median(r["wall_s"] for r in reps) if reps else 0
                if elapsed + typical > args.seconds or time.monotonic() + typical > deadline:
                    break
            attempted += 1
            record, error = run_child(config, work / f"rep{attempted}", deadline)
            while more_setups(time.perf_counter() - t_start):
                rebuild()
            if error is None:
                # a run that completed was measured, whatever its output
                reps.append(record)
                log(f"rep {attempted}: run_s={record['run_s']:.3f} "
                    f"peak_rss_mb={record['peak_rss_mb']:.1f} "
                    f"score={record['digests']['score']}")
                reference = reference or record["digests"]
            if error is not None or not check_output(record, reference, f"rep {attempted}",
                                                     pinned):
                failed += 1
                log(f"rep {attempted} failed: {error or 'wrong output'}")
                if failed >= MIN_REPS or time.monotonic() > deadline:
                    break
        while more_setups(args.seconds):
            rebuild()
        if reference is not None:
            log(f"reference digests: {json.dumps(reference)}")

        # the forest must grow as many trees for every seed, or seeds
        # would differ in the amount of work and not only in the data
        shape_ok = True
        if w.expect_n_trees is not None and reps:
            seen = sorted({r["n_trees"] for r in reps}, key=str)
            log(f"rf_info.csv n_trees: {seen}")
            if seen != [w.expect_n_trees]:
                shape_ok = False
                log(f"workload shape: n_trees {seen}, expected {w.expect_n_trees}")

        extra_ok = True
        if args.smoke and w.workers > 1 and reps:
            # the worker count must not change a single output byte
            attempted += 1
            record, error = run_child(config, work / "workers1", deadline, workers=1)
            if error is not None or record["outputs_hash"] != reps[0]["outputs_hash"]:
                failed += 1
                extra_ok = False
                log(f"workers=1 run disagrees with workers={w.workers}: {error}")

        metrics = {}
        coverage_ok = True
        if args.trace:
            attempted += 1
            traced, error = run_child(config, work / "traced", deadline, trace=True)
            if error is not None or not check_output(traced, reference, "traced run", pinned):
                failed += 1
                log(f"traced run failed: {error or 'wrong output'}")
            if error is None and reps:
                if traced["absent"]:
                    log(f"absent spans (no such public name): {traced['absent']}")
                problems = check_coverage(traced["spans"], w)
                for p in problems:
                    log(f"coverage: {p}")
                coverage_ok = not problems
                metrics = per_layer(traced["spans"], traced, reps, setups)
        elif reps:
            metrics = {
                "run_s": statistics.median(r["run_s"] for r in reps),
                "setup_s": statistics.median(s["total_s"] for s in setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
                "run_dir_mb": statistics.median(r["run_dir_mb"] for r in reps),
                "score": statistics.median(r["digests"]["score"] for r in reps),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if not metrics:
        log("error: no repetition succeeded")
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"error: BENCHMARK.json lists metrics this harness does not compute: {missing}")
        return 1
    result = {
        "correct": failed == 0 and setup_ok and coverage_ok and extra_ok and shape_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
