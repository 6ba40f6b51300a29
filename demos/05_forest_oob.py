"""
The random forest and its out-of-bag thermometer
================================================

Each tree trains on a bootstrap resample, so about 1/e ~ 37% of the
rows never reach it. Scoring every row with only the trees that missed
it gives a free validation estimate — and picking the tree count by
that estimate avoids a separate held-out split.
"""

import numpy as np

from affectpipe import ForestSpec, predict_forest_labels, select_n_trees, train_forest

rng = np.random.default_rng(11)

# four classes, only 4 of 10 features informative
n = 600
y = rng.integers(0, 4, size=n)
x = rng.normal(size=(n, 10))
x[:, :4] += 1.2 * np.eye(4)[y]

model = train_forest(x, y, ForestSpec(n_trees=30, seed=0), task="classification")
in_bag = np.asarray(model.in_bag)
print("out-of-bag row fraction per tree: "
      f"min {1 - in_bag.mean(axis=1).max():.3f}, "
      f"max {1 - in_bag.mean(axis=1).min():.3f} (expect ~0.37)")

train_acc = float((predict_forest_labels(model, x) == y).mean())
print(f"training accuracy {train_acc:.3f} vs out-of-bag {model.oob_score:.3f} "
      f"-> the gap is the memorization the OOB view catches")

# tree-count selection grows one forest of max(grid) trees and reads every
# grid score off its out-of-bag curve; the chosen prefix is the model
grid = [10, 20, 50, 100]
best_n, scores, chosen = select_n_trees(x, y, grid, ForestSpec(n_trees=10, seed=0),
                                        task="classification")
for n_trees, score in zip(grid, scores):
    marker = " <- chosen" if n_trees == best_n else ""
    print(f"  {n_trees:>4} trees: oob {score:.3f}{marker}")
print(f"chosen model: {chosen.n_trees} trees, training accuracy "
      f"{float((predict_forest_labels(chosen, x) == y).mean()):.3f}")
