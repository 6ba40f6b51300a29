"""Compare this checkout's KELM C search with another checkout's, bytes,
time and peak memory.

    python3 tools/kelm_ab.py OTHER_CHECKOUT

Makes one seeded set of weighted 8-class features at the bench shape
(TRAIN training rows and DEV dev rows of FEATURES min-max scaled
columns) and runs what the train-kelm stage runs, `select_c` over the
default C grid and then `train_kelm` at the chosen C, with each
checkout's `src/affectpipe` in a fresh process, in PAIRS pairs that
alternate which side runs first. Each pair prints both processes' time
and peak RSS (`ru_maxrss`) and whether the chosen C, its dev score and
the beta bytes are equal; the end prints the medians. Exits 1 if any of
them differs.

The processes inherit the environment, so `OPENBLAS_NUM_THREADS=1`
compares the two at one BLAS thread.
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

ROOT = Path(__file__).resolve().parent.parent
TRAIN, DEV, FEATURES, CLASSES, PAIRS = 3887, 897, 192, 8, 5

CHILD = """
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from affectpipe.kelm import (DEFAULT_C_GRID, KernelSpec, class_weights,
                             encode_classification_targets, select_c, train_kelm)
data = np.load(sys.argv[2])
x, y = data["x"], data["y"]
n_classes = int(y.max()) + 1
enc = encode_classification_targets(y, n_classes)
weights = class_weights(y)
spec = KernelSpec("rbf")
start = time.perf_counter()
c, score = select_c(x, enc, DEFAULT_C_GRID, data["dev_x"], data["dev_y"],
                    "macro_f1", kernel=spec, weights=weights)
model = train_kelm(x, enc, c, kernel=spec, weights=weights, task="classification")
seconds = time.perf_counter() - start
print(json.dumps({
    "s": seconds,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "c": c.hex(),
    "score": float(score).hex(),
    "beta": hashlib.sha256(model.beta.tobytes()).hexdigest(),
}))
"""


def dataset(train: int, dev: int, features: int, seed: int = 0) -> dict:
    """Labelled features in [0, 1] whose classes overlap, unequal in size."""
    rng = np.random.default_rng(seed)
    n = train + dev
    y = rng.choice(CLASSES, size=n, p=np.arange(1, CLASSES + 1) / 36)
    y[:CLASSES] = np.arange(CLASSES)  # every class trains
    # class means a fifth of the noise apart per column: at the bench shape
    # the dev macro-F1 is about 0.8 and moves with C
    x = rng.normal(size=(n, features)) + 0.2 * rng.normal(size=(CLASSES, features))[y]
    x = (x - x.min(axis=0)) / (x.max(axis=0) - x.min(axis=0))
    return {"x": x[:train], "y": y[:train], "dev_x": x[train:], "dev_y": y[train:]}


def run_child(checkout: Path, data_path: Path) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), str(data_path)],
        check=True, capture_output=True, text=True, cwd=data_path.parent,
    )
    return json.loads(out.stdout)


def compare(other: Path, train: int = TRAIN, dev: int = DEV,
            features: int = FEATURES, pairs: int = PAIRS) -> int:
    checkouts = {"other": other.resolve(), "this": ROOT}
    runs = {name: [] for name in checkouts}
    with tempfile.TemporaryDirectory() as tmp:
        data_path = Path(tmp) / "features.npz"
        np.savez(data_path, **dataset(train, dev, features))
        for pair in range(pairs):
            order = list(checkouts.items())
            for name, checkout in order[::-1] if pair % 2 else order:
                runs[name].append(run_child(checkout, data_path))
            a, b = runs["other"][-1], runs["this"][-1]
            equal = all(a[k] == b[k] for k in ("c", "score", "beta"))
            print(f"pair {pair}: other {a['s']:.3f} s {a['rss_mb']:.1f} MB, "
                  f"this {b['s']:.3f} s {b['rss_mb']:.1f} MB, "
                  f"C {float.fromhex(b['c']):g}, equal: {equal}")
            if not equal:
                print(f"other {a}\nthis  {b}")
                return 1
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    med = {name: {k: statistics.median(r[k] for r in runs[name])
                  for k in ("s", "rss_mb")} for name in runs}
    print(f"{train} + {dev} rows x {features}, OPENBLAS_NUM_THREADS={threads}, "
          f"beta sha256 {runs['this'][-1]['beta'][:12]}: median other "
          f"{med['other']['s']:.3f} s {med['other']['rss_mb']:.1f} MB, "
          f"this {med['this']['s']:.3f} s {med['this']['rss_mb']:.1f} MB")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="checkout to compare against")
    return compare(parser.parse_args(argv).other)


if __name__ == "__main__":
    sys.exit(main())
