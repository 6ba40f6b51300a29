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
value), as in scikit-learn's `Tree`. Growth keeps the nodes and the
leaf values in Python lists and a dict, and fills the arrays once the
tree is grown; prediction descends all rows one level at a time.

Regression nodes grow on one of two paths, chosen by size. A node of
more than SMALL_NODE rows holds them as an index array and scores its
features with a few numpy calls each; `_grow_tree` keeps such nodes on
a stack. A smaller node copies its own rows of the columns and targets
into Python lists, and `_grow_small` grows its whole subtree on those,
recursively: there numpy's per-call overhead outweighs the arithmetic.
The copies hold at most SMALL_NODE rows, so they stay small whatever
the training set's size, and the recursion is at most that deep. Both
paths give the same bytes. The list path sorts with the stable `sorted`,
as `argsort(kind="stable")` is stable; builds cumulative sums with
`itertools.accumulate`, which adds in order from the first element as
`np.cumsum` does; and scores each boundary with the same operations in
the same order, the first maximum winning.
A leaf of fewer than 8 rows sums its targets in order from +0.0, which
is what `mean()` does below its 8-element pairwise block; larger leaves
take `mean()`. Each splittable node, on either path, takes the next
feature order of its tree in preorder: the next `permutation(d)` of
the tree's generator, drawn _ORDER_CHUNK at a time by one `permuted`
call, which gives the same orders.
Classification nodes always take the numpy path: their Gini row sums
over 8 or more classes use numpy's pairwise sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .metrics import first_best

DEFAULT_TREE_GRID = (10, 20, 50, 100, 200)
SMALL_NODE = 64  # regression nodes of at most this many rows grow on lists
_ORDER_CHUNK = 64  # feature orders drawn per call


@dataclass(frozen=True)
class ForestSpec:
    """Forest shape and randomness. A node of two or more rows may split
    between any two distinct values of a feature, so a leaf holds one row
    or more. A split weighs the first resolve_mtry features of a random
    order that can split the node: floor(sqrt(d)) of the d features for
    classification, floor(d / 3) for regression, and at least one."""

    n_trees: int
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def resolve_mtry(self, d: int, task: str) -> int:
        return max(1, int(np.sqrt(d)) if task == "classification" else d // 3)


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
    records each tree's bootstrap membership.
    """

    trees: list = field(repr=False)
    oob_score: float
    task: str
    n_outputs: int
    in_bag: np.ndarray = field(repr=False)
    oob_curve: np.ndarray = field(repr=False)

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _best_for_feature(col, src, task):
    """Best (score, threshold) for one feature, or None if unsplittable.

    src is the node's one-hot classes or targets. Scores are comparable
    across features of the same node: larger is better, and the first
    position of the maximum (ascending threshold order) wins within the
    feature.
    """
    order = col.argsort(kind="stable")
    xs = col[order]
    n = xs.shape[0]
    # boundary b splits after sorted row b
    boundary = (xs[1:] != xs[:-1]).nonzero()[0]
    if boundary.size == 0:
        return None
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


def _short_mean(values):
    """mean() of fewer than 8 floats, to the bit.

    Below its 8-element pairwise block numpy adds the values in order,
    starting at +0.0 (so a lone -0.0 gives 0.0). Python's sum() is not
    that sum: since 3.12 it compensates rounding.
    """
    acc = 0.0
    for v in values:
        acc += v
    return acc / len(values)


def _best_for_small_node(xf, rows, y, y2):
    """_best_for_feature for a regression node held as a list of rows.

    xf, y and y2 are the feature column, the targets and the squared
    targets as Python lists. Sort, sums and scores take the numpy
    version's operations in its order, so the result has its bytes.
    """
    rows = sorted(rows, key=xf.__getitem__)
    xs = [xf[i] for i in rows]
    cy = list(accumulate([y[i] for i in rows]))
    cy2 = list(accumulate([y2[i] for i in rows]))
    n = len(rows)
    total, total2 = cy[-1], cy2[-1]
    best, at = None, -1
    for b in range(n - 1):
        if xs[b] == xs[b + 1]:
            continue
        n_left = b + 1.0
        sum_l, sq_l = cy[b], cy2[b]
        sum_r, sq_r = total - sum_l, total2 - sq_l
        score = -((sq_l - sum_l * sum_l / n_left) + (sq_r - sum_r * sum_r / (n - n_left)))
        if best is None or score > best:
            best, at = score, b
    if best is None:
        return None
    return best, 0.5 * (xs[at] + xs[at + 1])


def _feature_orders(rng, d):
    """Successive rng.permutation(d) draws, as lists, drawn _ORDER_CHUNK at a time.

    numpy's Generator shuffles each row of permuted(axis=1) with the
    draws of one permutation call, so the rows are the calls' results in
    order (a test pins this). Nothing draws from a tree's generator after
    the tree is grown, so orders drawn and never used change no draw.
    """
    base = np.tile(np.arange(d), (_ORDER_CHUNK, 1))
    while True:
        yield from rng.permuted(base, axis=1).tolist()


def _grow_small(lists, rows, depth, mtry, max_depth, orders, nodes, values):
    """Grow the subtree of a regression node held as lists, in preorder.

    lists holds the node's feature columns, targets and squared targets
    as Python lists, and rows the ids into them of the subtree's rows.
    The subtree's nodes and leaf values go into nodes and values, as in
    _grow_tree.
    """
    x_lists, y_list, y2_list = lists
    node = len(nodes)
    ys = [y_list[i] for i in rows]
    candidates = []
    if len(rows) >= 2 and depth < max_depth and min(ys) != max(ys):
        for f in next(orders):
            found = _best_for_small_node(x_lists[f], rows, y_list, y2_list)
            if found is not None:
                candidates.append((found[0], f, found[1]))
                if len(candidates) >= mtry:
                    break
    if not candidates:
        nodes.append([-1, 0.0, -1, -1])
        values[node] = _short_mean(ys) if len(ys) < 8 else np.mean(ys)
        return
    _, feat, thr = max(candidates, key=lambda c: (c[0], -c[1], -c[2]))
    nodes.append([feat, thr, node + 1, -1])
    xf = x_lists[feat]
    _grow_small(lists, [i for i in rows if xf[i] <= thr], depth + 1, mtry, max_depth,
                orders, nodes, values)
    nodes[node][3] = len(nodes)
    _grow_small(lists, [i for i in rows if xf[i] > thr], depth + 1, mtry, max_depth,
                orders, nodes, values)


def _grow_tree(
    x, cols, y_int, onehot, y_float, boot_idx, rng, spec, task, n_outputs
) -> Tree:
    """Grow one tree in preorder: a stack of numpy-path nodes, and one
    _grow_small call for each regression node of at most SMALL_NODE rows.

    x is the training matrix and cols holds one contiguous array per
    feature. Such a small node copies its rows of x and y into Python
    lists, and its whole subtree grows on those, with row ids local to
    the copy.
    """
    d = len(cols)
    mtry = spec.resolve_mtry(d, task)
    max_depth = np.inf if spec.max_depth is None else spec.max_depth
    orders = _feature_orders(rng, d)
    y = y_float if onehot is None else y_int
    small = SMALL_NODE if onehot is None else -1
    nodes = []  # [feature, threshold, left, right] in preorder
    values = {}  # leaf node -> its value
    stack = [(boot_idx, 0, -1)]  # (rows, depth, node whose right child this is or -1)
    while stack:
        idx, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        ys = y[idx]
        if len(idx) <= small:
            lists = (x[idx].T.tolist(), ys.tolist(), (ys * ys).tolist())
            _grow_small(lists, range(len(idx)), depth, mtry, max_depth, orders, nodes,
                        values)
            continue
        candidates = []
        if len(idx) >= 2 and depth < max_depth and not (ys == ys[0]).all():
            src = ys if onehot is None else onehot[idx]
            # random feature subset: walk a permutation until mtry features
            # produced a usable boundary (constant features do not count)
            for f in next(orders):
                found = _best_for_feature(cols[f][idx], src, task)
                if found is not None:
                    candidates.append((found[0], f, found[1]))
                    if len(candidates) >= mtry:
                        break
        if not candidates:
            nodes.append([-1, 0.0, -1, -1])
            # a regression leaf here holds more than SMALL_NODE rows
            values[node] = (np.mean(ys) if onehot is None
                            else np.bincount(ys, minlength=n_outputs) / len(ys))
            continue
        # zero-gain splits are accepted while the node is impure: a split
        # never increases weighted impurity, and always shrinks both
        # sides, so growth terminates and distinct rows separate fully
        _, feat, thr = max(candidates, key=lambda c: (c[0], -c[1], -c[2]))
        # the right child index is filled in when that child is popped
        nodes.append([feat, thr, node + 1, -1])
        mask = cols[feat][idx] <= thr
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, -1))
    value = np.zeros((len(nodes), n_outputs))
    for node, v in values.items():
        value[node] = v
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
        # a node's sum of y over the bootstrap, which repeats rows, is at
        # most n * max|y|; with that doubled and squared finite, no split
        # score meets inf - inf (a NaN numpy's argmax would pick)
        bound = 2.0 * x.shape[0] * float(np.abs(y_float).max())
        if not np.isfinite(bound * bound):
            raise ValueError("regression targets too large for finite split scores")
        y_int = None
        onehot = None
        n_outputs = 1
    n = x.shape[0]
    cols = list(x.T.copy())  # one contiguous array per feature
    trees = []
    in_bag = np.zeros((spec.n_trees, n), dtype=bool)
    total = np.zeros((n, n_outputs))
    hits = np.zeros(n, dtype=np.int64)
    curve = np.empty(spec.n_trees)
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed, t])
        boot = rng.integers(0, n, size=n)
        in_bag[t] = np.bincount(boot, minlength=n) > 0
        tree = _grow_tree(
            x, cols, y_int, onehot, y_float, boot, rng, spec, task, n_outputs
        )
        trees.append(tree)
        _add_oob(total, hits, tree, in_bag[t], x)
        curve[t] = _oob_score(total, hits, y_int, y_float, task)
    return ForestModel(
        trees=trees,
        oob_score=float(curve[-1]),
        task=task,
        n_outputs=n_outputs,
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
    derivation. Returns the count metrics.first_best picks over the
    sorted distinct grid (ties go to the fewest trees), the grid scores,
    and the first that-many trees as the trained model, equal to
    train_forest with n_trees=count.
    """
    grid = [int(k) for k in grid]
    if not grid or min(grid) < 1:
        raise ValueError("grid must be a nonempty list of positive counts")
    full = train_forest(
        x, y, replace(base_spec, n_trees=max(grid)), task=task, n_classes=n_classes
    )
    scores = {k: float(full.oob_curve[k - 1]) for k in grid}
    counts = sorted(scores)
    best_k = counts[first_best([scores[k] for k in counts])]
    model = ForestModel(
        trees=full.trees[:best_k],
        oob_score=scores[best_k],
        task=full.task,
        n_outputs=full.n_outputs,
        in_bag=full.in_bag[:best_k],
        oob_curve=full.oob_curve[:best_k],
    )
    return best_k, [scores[k] for k in grid], model
