"""Random forest (bagged decision trees) with out-of-bag model selection.

Built for stacked decision fusion: inputs are concatenated base-model
score vectors, so features are continuous and low-dimensional. Trees
are grown greedily (Gini decrease for classification, variance
reduction for regression) on bootstrap samples, with a random feature
subset considered at every split. Each tree draws its randomness from
a generator derived as (root_seed, tree_index), so tree t is identical
no matter how many trees the forest has: the first k trees of a larger
forest *are* the k-tree forest. Training applies each tree once to the
rows its bootstrap left out and records the out-of-bag score of every
prefix length, so `select_n_trees` grows one forest of max(grid) trees,
reads every grid score off that curve and returns the chosen prefix as
the trained model.

A tree is five preorder node arrays (feature, threshold, left, right,
value), as in scikit-learn's `Tree`. Growth keeps the nodes in Python
lists and each leaf's rows, and fills the leaf values once the tree is
grown; prediction descends all rows one level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

DEFAULT_TREE_GRID = (10, 20, 50, 100, 200)


@dataclass(frozen=True)
class ForestSpec:
    """Forest shape and randomness.

    features_per_split=None resolves to "sqrt" for classification and
    "third" for regression when training starts.
    """

    n_trees: int
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: str | None = None  # "sqrt" | "third" | "all"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.features_per_split not in (None, "sqrt", "third", "all"):
            raise ValueError(
                f"unknown features_per_split {self.features_per_split!r}"
            )

    def resolve_mtry(self, d: int, task: str) -> int:
        mode = self.features_per_split
        if mode is None:
            mode = "sqrt" if task == "classification" else "third"
        if mode == "sqrt":
            return max(1, int(np.sqrt(d)))
        if mode == "third":
            return max(1, d // 3)
        return d


class Tree(NamedTuple):
    """One tree as preorder node arrays; node 0 is the root.

    A split node sends rows with x[feature] <= threshold to `left`
    (the next node, in grown trees) and the rest to `right`; both
    children come after their parent. Leaves have feature, left and
    right all -1. value is (n_nodes, n_outputs): class frequencies or
    the mean target on leaves, zeros on split nodes.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class ForestModel:
    """Trained forest. oob_score is accuracy for classification and
    negative mean squared error for regression, so larger is always
    better; oob_curve[k - 1] is that score for the first k trees. in_bag
    records each tree's bootstrap membership. Both may be None on a model
    built from trees alone, which only predicts.
    """

    trees: list = field(repr=False)
    oob_score: float
    task: str
    n_outputs: int
    spec: ForestSpec | None = None
    in_bag: np.ndarray | None = field(default=None, repr=False)
    oob_curve: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def oob_fractions(self) -> np.ndarray | None:
        """Per-tree fraction of training rows left out of the bootstrap."""
        if self.in_bag is None:
            return None
        return (~self.in_bag).mean(axis=1)


def _best_for_feature(col, src, min_leaf, task):
    """Best (score, threshold) for one feature, or None if unsplittable.

    src is the node's one-hot classes or targets. Scores are comparable
    across features of the same node: larger is better, and the first
    position of the maximum (ascending threshold order) wins within the
    feature.
    """
    order = col.argsort(kind="stable")
    xs = col[order]
    n, m = xs.shape[0], min_leaf
    # boundary b splits after sorted row b; both sides keep min_leaf rows
    boundary = (xs[m : n - m + 1] != xs[m - 1 : n - m]).nonzero()[0]
    if boundary.size == 0:
        return None
    boundary += m - 1
    n_left = boundary + 1.0
    n_right = n - n_left
    if task == "classification":
        cum = src[order].cumsum(axis=0)
        left = cum[boundary]
        right = cum[-1] - left
        # maximizing sum(counts^2)/size over both children is equivalent
        # to maximizing the Gini decrease for a fixed parent
        score = (left * left).sum(axis=1) / n_left + (right * right).sum(
            axis=1
        ) / n_right
    else:
        ys = src[order]
        cy = ys.cumsum()
        cy2 = (ys * ys).cumsum()
        sum_l, sq_l = cy[boundary], cy2[boundary]
        sum_r, sq_r = cy[-1] - sum_l, cy2[-1] - sq_l
        sse = (sq_l - sum_l * sum_l / n_left) + (sq_r - sum_r * sum_r / n_right)
        score = -sse  # minimizing child SSE maximizes variance reduction
    j = score.argmax()
    b = boundary[j]
    return float(score[j]), 0.5 * (float(xs[b]) + float(xs[b + 1]))


def _grow_tree(x, y_int, onehot, y_float, boot_idx, rng, spec, task, n_outputs) -> Tree:
    """Grow one tree iteratively in preorder (stack-based, no recursion)."""
    d = x.shape[1]
    mtry = spec.resolve_mtry(d, task)
    max_depth = np.inf if spec.max_depth is None else spec.max_depth
    y = y_float if onehot is None else y_int
    cols = list(x.T.copy())  # one contiguous array per feature
    nodes = []  # [feature, threshold, left, right] in preorder
    leaves = {}  # leaf node -> its rows
    # (rows, depth, node whose right child this is, or -1)
    stack = [(boot_idx, 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        candidates = []
        if idx.size >= 2 * spec.min_leaf and depth < max_depth:
            yi = y[idx]
            if not (yi == yi[0]).all():
                src = yi if onehot is None else onehot[idx]
                # random feature subset: walk a permutation until mtry features
                # produced a usable boundary (constant features do not count)
                for f in rng.permutation(d).tolist():
                    col = cols[f][idx]
                    found = _best_for_feature(col, src, spec.min_leaf, task)
                    if found is None:
                        continue
                    candidates.append((found[0], f, found[1], col))
                    if len(candidates) >= mtry:
                        break
        if not candidates:
            leaves[node] = idx
            nodes.append([-1, 0.0, -1, -1])
            continue
        # zero-gain splits are accepted while the node is impure: a split
        # never increases weighted impurity, and always shrinks both
        # sides, so growth terminates and distinct rows separate fully
        _, feat, thr, col = max(candidates, key=lambda c: (c[0], -c[1], -c[2]))
        # the right child index is filled in when that child is popped
        nodes.append([feat, thr, node + 1, -1])
        mask = col <= thr
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, -1))
    value = np.zeros((len(nodes), n_outputs))
    for node, rows in leaves.items():
        if onehot is not None:
            value[node] = np.bincount(y[rows], minlength=n_outputs) / rows.size
        elif rows.size > 1:
            value[node, 0] = y[rows].mean()
        else:  # what mean() gives: its sum starts at 0.0, so -0.0 becomes 0.0
            value[node, 0] = y[rows[0]] + 0.0
    feature, threshold, left, right = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=value,
    )


def _tree_apply(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf values for every row of x, shape (q, n_outputs).

    All rows descend together, one level per iteration; since children
    come after their parent, the loop ends within n_nodes iterations.
    """
    node = np.zeros(x.shape[0], dtype=np.int64)
    rows = np.arange(x.shape[0])
    while True:
        rows = rows[tree.left[node[rows]] >= 0]  # rows still at a split node
        if rows.size == 0:
            return tree.value[node]
        at = node[rows]
        node[rows] = np.where(
            x[rows, tree.feature[at]] <= tree.threshold[at], tree.left[at], tree.right[at]
        )


def _add_oob(total, hits, tree: Tree, bag: np.ndarray, x: np.ndarray) -> None:
    """Add one tree's predictions to the running sums of the rows it left out."""
    oob = ~bag
    if oob.any():
        total[oob] += _tree_apply(tree, x[oob])
        hits[oob] += 1


def _oob_score(total, hits, y_int, y_float, task) -> float:
    """Score the out-of-bag sums accumulated so far.

    Rows in every bootstrap are skipped; NaN when no row was ever
    left out.
    """
    seen = hits > 0
    if not seen.any():
        return float("nan")
    if task == "classification":
        pred = total[seen].argmax(axis=1)
        return float((pred == y_int[seen]).mean())
    pred = total[seen, 0] / hits[seen]
    return float(-np.mean((pred - y_float[seen]) ** 2))


def train_forest(
    x: np.ndarray,
    y: np.ndarray,
    spec: ForestSpec,
    task: str = "classification",
    n_classes: int | None = None,
) -> ForestModel:
    """Bagged trees with per-tree derived seeds and an OOB score curve.

    Classification leaves hold class-frequency vectors; regression
    leaves hold the mean target. Each tree is applied once to the rows
    it left out, and the sums accumulate in tree order, so oob_curve[k-1]
    equals the oob_score of a k-tree forest trained with the same seed.
    Retraining with the same spec and data reproduces the model exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or not np.isfinite(x).all():
        raise ValueError("training data must be a finite 2-d matrix with n >= 2 rows")
    if task not in ("classification", "regression"):
        raise ValueError(f"unknown task {task!r}")
    if task == "classification":
        y_int = np.asarray(y, dtype=np.int64).ravel()
        if y_int.shape[0] != x.shape[0]:
            raise ValueError("y must have one entry per row")
        if y_int.min() < 0:
            raise ValueError("class labels must be nonnegative")
        n_outputs = int(y_int.max()) + 1 if n_classes is None else int(n_classes)
        if y_int.max() >= n_outputs:
            raise ValueError("labels exceed n_classes")
        onehot = np.zeros((x.shape[0], n_outputs))
        onehot[np.arange(x.shape[0]), y_int] = 1.0
        y_float = None
    else:
        y_float = np.asarray(y, dtype=np.float64).ravel()
        if y_float.shape[0] != x.shape[0]:
            raise ValueError("y must have one entry per row")
        if not np.all(np.isfinite(y_float)):
            raise ValueError("regression targets must be finite")
        y_int = None
        onehot = None
        n_outputs = 1
    n = x.shape[0]
    trees = []
    in_bag = np.zeros((spec.n_trees, n), dtype=bool)
    total = np.zeros((n, n_outputs))
    hits = np.zeros(n, dtype=np.int64)
    curve = np.empty(spec.n_trees)
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed, t])
        boot = rng.integers(0, n, size=n)
        in_bag[t] = np.bincount(boot, minlength=n) > 0
        tree = _grow_tree(x, y_int, onehot, y_float, boot, rng, spec, task, n_outputs)
        trees.append(tree)
        _add_oob(total, hits, tree, in_bag[t], x)
        curve[t] = _oob_score(total, hits, y_int, y_float, task)
    return ForestModel(
        trees=trees,
        oob_score=float(curve[-1]),
        task=task,
        n_outputs=n_outputs,
        spec=spec,
        in_bag=in_bag,
        oob_curve=curve,
    )


def predict_forest(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Averaged leaf frequencies (q, n_classes) or mean tree output (q,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or not np.isfinite(x).all():
        raise ValueError("prediction input must be a finite 2-d matrix")
    total = np.zeros((x.shape[0], model.n_outputs))
    for tree in model.trees:
        total += _tree_apply(tree, x)
    total /= model.n_trees
    return total if model.task == "classification" else total[:, 0]


def predict_forest_labels(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the smallest index."""
    if model.task != "classification":
        raise ValueError("labels are only defined for classification forests")
    return predict_forest(model, x).argmax(axis=1)


def predict_oob(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Out-of-bag prediction for each training row, shaped like predict_forest.

    Each row averages only the trees whose bootstrap left it out; rows
    that every tree saw are NaN. x must be the training matrix.
    """
    if model.in_bag is None:
        raise ValueError("out-of-bag predictions need the bootstrap membership")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != model.in_bag.shape[1] or not np.isfinite(x).all():
        raise ValueError("x must be the finite matrix the forest was trained on")
    total = np.zeros((x.shape[0], model.n_outputs))
    hits = np.zeros(x.shape[0], dtype=np.int64)
    for tree, bag in zip(model.trees, model.in_bag):
        _add_oob(total, hits, tree, bag, x)
    with np.errstate(invalid="ignore"):
        total /= hits[:, None]
    return total if model.task == "classification" else total[:, 0]


def select_n_trees(
    x: np.ndarray,
    y: np.ndarray,
    grid,
    base_spec: ForestSpec,
    task: str = "classification",
    n_classes: int | None = None,
) -> tuple[int, list[float], ForestModel]:
    """OOB score per grid point from one forest of max(grid) trees.

    Each grid point's score is the forest's OOB curve at that length,
    identical to training k trees from scratch by the per-tree seed
    derivation. Returns the count with the best OOB score (ties going
    to the fewest trees), the grid scores, and the first that-many
    trees as the trained model, equal to train_forest with
    n_trees=count.
    """
    grid = [int(k) for k in grid]
    if not grid or min(grid) < 1:
        raise ValueError("grid must be a nonempty list of positive counts")
    full = train_forest(
        x, y, replace(base_spec, n_trees=max(grid)), task=task, n_classes=n_classes
    )
    scores = {k: float(full.oob_curve[k - 1]) for k in grid}
    best_k = None
    best_score = None
    for k in sorted(scores):
        s = scores[k]
        if best_k is None or (not np.isnan(s) and (np.isnan(best_score) or s > best_score)):
            best_k, best_score = k, s
    model = ForestModel(
        trees=full.trees[:best_k],
        oob_score=best_score,
        task=full.task,
        n_outputs=full.n_outputs,
        spec=replace(base_spec, n_trees=best_k),
        in_bag=full.in_bag[:best_k],
        oob_curve=full.oob_curve[:best_k],
    )
    return best_k, [scores[k] for k in grid], model
