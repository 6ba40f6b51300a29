"""Smoke tests: every demo, which exercises public APIs, runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, pytestconfig):
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp_path)  # demos that write files put them here
    # the pytest warning filters do not reach a subprocess; pass them on
    env["PYTHONWARNINGS"] = ",".join(pytestconfig.getini("filterwarnings"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
