"""
Late fusion: random weight search, forest stacking, and the mean
================================================================

Three base models emit per-frame class scores of different quality.
A large pool of random per-model-per-class weight matrices is scored
on a development set and the best matrix wins. Because the pool always
contains the pure single-model selectors, the search can never do
worse on dev than the best base model.
"""

import numpy as np

from affectpipe import (
    apply_fusion,
    classification_report,
    dwf_search,
    mean_fusion,
    sample_pool,
    stack_and_fuse_rf,
)

rng = np.random.default_rng(2)
n_classes, n_dev, n_eval = 8, 400, 400

y_dev = rng.integers(0, n_classes, size=n_dev)
y_eval = rng.integers(0, n_classes, size=n_eval)


def noisy_scores(y, strength):
    return strength * np.eye(n_classes)[y] + rng.normal(size=(len(y), n_classes))


dev_preds, eval_preds = [], []
for strength in (0.6, 1.0, 1.4):     # weak, medium, strong base model
    dev_preds.append(noisy_scores(y_dev, strength))
    eval_preds.append(noisy_scores(y_eval, strength))


def macro(y, scores):
    return classification_report(y, scores.argmax(axis=1), n_classes=n_classes).macro_f1


for m, scores in enumerate(dev_preds):
    print(f"model {m}: dev macro-F1 {macro(y_dev, scores):.3f}")

pool = sample_pool(n_models=3, n_outputs=n_classes, pool_size=2000, seed=0)
matrix, dev_score, _ = dwf_search(pool, dev_preds, y_dev, metric="macro_f1")
print(f"\nsearched fusion: dev {dev_score:.3f}, "
      f"eval {macro(y_eval, apply_fusion(eval_preds, matrix, task='expr')):.3f}")
print("winning weights per model (averaged over classes):",
      matrix.weights.mean(axis=1).round(3))

print(f"mean baseline:   eval {macro(y_eval, mean_fusion(eval_preds, task='expr')):.3f}")

# forest stacking treats the concatenated score vectors as features;
# its own out-of-bag estimate exposes how much it overfits the dev split
fused, info = stack_and_fuse_rf(dev_preds, y_dev, eval_preds, task="expr")
print(f"forest stacking: eval {macro(y_eval, fused):.3f} "
      f"({info.n_trees} trees, dev {info.dev_score:.3f}, "
      f"oob {info.oob_metric_score:.3f}, overfit gap {info.overfit_gap:+.3f})")
