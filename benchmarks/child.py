"""One measured repetition: `affectpipe.cli.main(["run", ...])` in its own process.

    python3 benchmarks/child.py --config CFG --out-dir DIR [--trace] [--workers N]

The process imports the package from `src/` of the checkout, runs the
pipeline once and prints, as its last stdout line, a JSON object with
the exit code, the wall and CPU time of the run call and the process's
peak RSS. With --trace, the program's public functions are wrapped
first (see tracing.py) and the line also carries the per-name span
summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workers", default=None, help="override the config's workers")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from affectpipe import cli

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["run", "--config", args.config, "--out-dir", args.out_dir]
    if args.workers is not None:
        argv += ["--workers", args.workers]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    rc = tracer.root(cli.main, argv) if tracer else cli.main(argv)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    result = {
        "rc": rc,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        from tracing import summarize

        result["spans"] = summarize(tracer.spans)
        result["absent"] = tracer.absent
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
