"""Self-tests of the benchmark harness, on the shrunk workload variants.

    python3 -m pytest benchmarks -q

Each smoke variant goes through the same set-up, output and coverage
checks as the full workload and finishes in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_variant_passes_every_check(name, trace):
    proc = bench("--workload", name, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m for m in result["metrics"]] == [m["name"] for m in listed]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_workload_in_benchmark_json_exists():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "expr-dwf", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (0, "parent", None, 0.0, 10.0, None, {}),
        (1, "child", 0, 1.0, 4.0, None, {}),
        (2, "child", 0, 3.0, 6.0, None, {}),  # overlaps the first child
        (3, "grandchild", 2, 3.0, 4.0, None, {"rows": 5}),
    ]
    out = summarize(spans)
    assert out["parent"]["self_s"] == pytest.approx(5.0)
    assert out["child"]["calls"] == 2
    assert out["child"]["self_s"] == pytest.approx(5.0)
    assert out["grandchild"]["rows"] == 5


def test_missing_public_name_is_reported_absent():
    import affectpipe.timeline  # noqa: F401

    tracer = Tracer()
    tracer.install(["timeline.no_such_function"])
    assert tracer.absent == ["timeline.no_such_function"]
