"""Compare this checkout's forest with another checkout's, bytes and time.

    python3 tools/forest_ab.py OTHER_CHECKOUT

Loads `src/affectpipe/forest.py` of both checkouts side by side and
trains regression forests of TREES trees on one seeded synthetic set of
ROWS x FEATURES: features and targets on a 0.01 grid, so there are ties
and -0.0 targets. It checks that every tree array, the bootstrap
membership and the OOB curve are byte-equal, then times `train_forest`
in PAIRS alternating pairs and prints each pair and the medians. Exits
1 if any byte differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROWS, FEATURES, TREES, PAIRS = 9000, 4, 6, 5


def load_forest(checkout: Path, name: str):
    spec = importlib.util.spec_from_file_location(
        name, checkout / "src" / "affectpipe" / "forest.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def dataset(rows: int, features: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, features)).round(2)
    y = np.sin(2 * x[:, 0]) + x[:, 1] * x[:, -1] + 0.3 * rng.normal(size=rows)
    return x, np.clip(y, -1, 1).round(2)


def model_bytes(model) -> list[bytes]:
    out = [model.in_bag.tobytes(), model.oob_curve.tobytes()]
    for tree in model.trees:
        out.extend(a.tobytes() for a in tree)
    return out


def compare(other: Path, rows: int = ROWS, features: int = FEATURES,
            trees: int = TREES, pairs: int = PAIRS) -> int:
    forests = {
        "other": load_forest(other.resolve(), "forest_other"),
        "this": load_forest(ROOT, "forest_this"),
    }
    x, y = dataset(rows, features)
    times = {name: [] for name in forests}
    models = {}
    for pair in range(pairs):
        for name, forest in forests.items():
            spec = forest.ForestSpec(n_trees=trees, seed=pair)
            start = time.perf_counter()
            model = forest.train_forest(x, y, spec, task="regression")
            times[name].append(time.perf_counter() - start)
            models[name] = model_bytes(model)
        equal = models["other"] == models["this"]
        print(f"pair {pair}: other {times['other'][-1]:.3f} s, "
              f"this {times['this'][-1]:.3f} s, bytes equal: {equal}")
        if not equal:
            return 1
    print(f"{rows} x {features}, {trees} trees: median other "
          f"{statistics.median(times['other']):.3f} s, "
          f"this {statistics.median(times['this']):.3f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="checkout to compare against")
    return compare(parser.parse_args(argv).other)


if __name__ == "__main__":
    sys.exit(main())
