"""Forest training, OOB scoring and tree-count selection."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from affectpipe.forest import (
    ForestModel,
    ForestSpec,
    Tree,
    _add_oob,
    _oob_score,
    _tree_apply,
    predict_forest,
    predict_forest_labels,
    predict_oob,
    select_n_trees,
    train_forest,
)


def _noisy_stack(rng, n, n_classes=4):
    """Stacked-probability-style features with label noise."""
    y = rng.integers(0, n_classes, size=n)
    x = rng.dirichlet(np.ones(n_classes), size=n)
    x[np.arange(n), y] += 0.5
    x /= x.sum(axis=1, keepdims=True)
    flip = rng.random(n) < 0.3
    y[flip] = rng.integers(0, n_classes, size=int(flip.sum()))
    return x, y


class TestTrainForest:
    def test_single_label_predicts_it_with_perfect_oob(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 3))
        y = np.full(30, 2)
        model = train_forest(x, y, ForestSpec(n_trees=5, seed=1), n_classes=4)
        assert np.all(predict_forest_labels(model, x) == 2)
        assert model.oob_score == 1.0

    def test_sign_separable_data_fits_exactly(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(50, 1))
        x = x[np.abs(x[:, 0]) > 1e-3]
        y = (x[:, 0] > 0).astype(int)
        model = train_forest(x, y, ForestSpec(n_trees=7, seed=3))
        assert np.all(predict_forest_labels(model, x) == y)

    def test_root_split_matches_brute_force_greedy(self):
        # independent exhaustive scan over all midpoint thresholds
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 1))
        y = (x[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
        model = train_forest(
            x, y, ForestSpec(n_trees=1, max_depth=1, features_per_split="all", seed=5)
        )
        tree = model.trees[0]
        assert tree.left[0] != -1  # the root is a split node

        boot = np.random.default_rng([5, 0]).integers(0, 40, size=40)
        xs = np.sort(x[boot, 0])
        ys = y[boot]

        def weighted_gini(thr):
            left = ys[x[boot, 0] <= thr]
            right = ys[x[boot, 0] > thr]
            out = 0.0
            for part in (left, right):
                p = np.bincount(part, minlength=2) / part.size
                out += part.size / ys.size * (1.0 - (p**2).sum())
            return out

        mids = [(a + b) / 2 for a, b in zip(xs, xs[1:]) if a != b]
        best = min(mids, key=weighted_gini)
        np.testing.assert_allclose(tree.threshold[0], best)

    def test_constant_regression_target(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 2))
        model = train_forest(
            x, np.full(25, 0.7), ForestSpec(n_trees=4, seed=9), task="regression"
        )
        np.testing.assert_allclose(predict_forest(model, x), 0.7, atol=1e-12)
        assert abs(model.oob_score) < 1e-15  # negative MSE of a perfect fit

    def test_all_constant_features_give_single_leaf_trees(self):
        x = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        model = train_forest(x, y, ForestSpec(n_trees=3, seed=0))
        # a lone root leaf: one node, no children
        assert all(
            tree.feature.tolist() == [-1] and tree.left.tolist() == [-1]
            for tree in model.trees
        )
        probs = predict_forest(model, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            train_forest(np.ones((1, 2)), [0], ForestSpec(n_trees=1))

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        model = train_forest(x, y, ForestSpec(n_trees=1, max_depth=1, seed=2))
        tree = model.trees[0]
        assert tree.left[0] != -1
        assert tree.left[tree.left[0]] == -1 and tree.left[tree.right[0]] == -1

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        model = train_forest(x, y, ForestSpec(n_trees=3, min_leaf=5, seed=6))

        def smallest_leaf(tree, node, idx):
            if tree.left[node] == -1:
                return idx.size
            mask = x[idx, tree.feature[node]] <= tree.threshold[node]
            return min(
                smallest_leaf(tree, tree.left[node], idx[mask]),
                smallest_leaf(tree, tree.right[node], idx[~mask]),
            )

        # leaf sizes are measured on the bootstrap sample each tree saw
        for t, tree in enumerate(model.trees):
            boot = np.random.default_rng([6, t]).integers(0, 40, size=40)
            assert smallest_leaf(tree, 0, boot) >= 5


class TestPredictForest:
    def test_single_tree_equals_its_leaf_values(self):
        rng = np.random.default_rng(7)
        x, y = _noisy_stack(rng, 50)
        model = train_forest(x, y, ForestSpec(n_trees=1, seed=11), n_classes=4)
        np.testing.assert_array_equal(
            predict_forest(model, x), _tree_apply(model.trees[0], x)
        )

    def test_vectorised_apply_matches_per_row_descent(self):
        rng = np.random.default_rng(22)
        x, y = _noisy_stack(rng, 120)
        model = train_forest(x, y, ForestSpec(n_trees=4, seed=14), n_classes=4)
        z = np.vstack([rng.dirichlet(np.ones(4), size=60), x[:20]])
        for tree in model.trees:
            expected = []
            for row in z:
                node = 0
                while tree.left[node] != -1:
                    go_left = row[tree.feature[node]] <= tree.threshold[node]
                    node = tree.left[node] if go_left else tree.right[node]
                expected.append(tree.value[node])
            np.testing.assert_array_equal(_tree_apply(tree, z), np.array(expected))

    def test_duplicated_tree_leaves_average_unchanged(self):
        rng = np.random.default_rng(8)
        x, y = _noisy_stack(rng, 40)
        model = train_forest(x, y, ForestSpec(n_trees=1, seed=12), n_classes=4)
        doubled = ForestModel(
            trees=model.trees * 2,
            oob_score=model.oob_score,
            task=model.task,
            n_outputs=model.n_outputs,
        )
        np.testing.assert_allclose(
            predict_forest(doubled, x), predict_forest(model, x), atol=1e-12
        )

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        x, y = _noisy_stack(rng, 80)
        model = train_forest(x, y, ForestSpec(n_trees=6, seed=13), n_classes=4)
        probs = predict_forest(model, rng.dirichlet(np.ones(4), size=30))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)


class TestDeterminismAndOob:
    def test_retraining_reproduces_predictions(self):
        rng = np.random.default_rng(10)
        x, y = _noisy_stack(rng, 120)
        spec = ForestSpec(n_trees=8, seed=21)
        a = train_forest(x, y, spec, n_classes=4)
        b = train_forest(x, y, spec, n_classes=4)
        np.testing.assert_array_equal(predict_forest(a, x), predict_forest(b, x))
        assert a.oob_score == b.oob_score

    def test_oob_fraction_near_one_over_e(self):
        rng = np.random.default_rng(11)
        x, y = _noisy_stack(rng, 400)
        model = train_forest(x, y, ForestSpec(n_trees=10, seed=31), n_classes=4)
        fracs = (~model.in_bag).mean(axis=1)
        assert fracs.shape == (10,)
        assert np.all(fracs > 0.30) and np.all(fracs < 0.44)

    def test_overfitting_gap_on_noisy_data(self):
        rng = np.random.default_rng(12)
        x, y = _noisy_stack(rng, 300)
        model = train_forest(x, y, ForestSpec(n_trees=10, seed=41), n_classes=4)
        train_acc = (predict_forest_labels(model, x) == y).mean()
        assert train_acc - model.oob_score > 0

    def test_distinct_rows_reach_training_accuracy_one(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(90, 3))  # distinct rows almost surely
        y = rng.integers(0, 3, size=90)  # pure noise labels
        model = train_forest(x, y, ForestSpec(n_trees=15, seed=51), n_classes=3)
        assert (predict_forest_labels(model, x) == y).mean() == 1.0


class TestSelectNTrees:
    def test_single_point_grid(self):
        rng = np.random.default_rng(14)
        x, y = _noisy_stack(rng, 60)
        best, scores, _ = select_n_trees(x, y, [10], ForestSpec(n_trees=1, seed=61))
        assert best == 10 and len(scores) == 1

    def test_duplicate_grid_points_agree(self):
        rng = np.random.default_rng(15)
        x, y = _noisy_stack(rng, 60)
        best, scores, _ = select_n_trees(x, y, [10, 10], ForestSpec(n_trees=1, seed=62))
        assert best == 10
        assert scores[0] == scores[1]

    def test_incremental_scores_match_from_scratch_training(self):
        # the oracle: training k trees independently must give the same
        # OOB score the incremental sweep reports for grid point k
        rng = np.random.default_rng(16)
        x, y = _noisy_stack(rng, 150)
        grid = [2, 5, 9]
        base = ForestSpec(n_trees=1, seed=63)
        _, scores, _ = select_n_trees(x, y, grid, base, n_classes=4)
        for k, reported in zip(grid, scores):
            solo = train_forest(
                x, y, ForestSpec(n_trees=k, seed=63), n_classes=4
            )
            assert solo.oob_score == reported, f"grid point {k}"

    def test_returned_count_dominates_grid(self):
        rng = np.random.default_rng(17)
        x, y = _noisy_stack(rng, 500)
        grid = [5, 10, 25, 50]
        best, scores, _ = select_n_trees(x, y, grid, ForestSpec(n_trees=1, seed=64))
        assert max(scores) == scores[grid.index(best)]
        # ties go to the fewest trees
        for k, s in zip(grid, scores):
            if s == max(scores):
                assert best <= k

    def test_regression_selection_uses_negative_mse(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(120, 3))
        y = x[:, 0] + 0.1 * rng.normal(size=120)
        best, scores, _ = select_n_trees(
            x, y, [3, 12], ForestSpec(n_trees=1, seed=65), task="regression"
        )
        assert all(s <= 0 for s in scores)
        assert best in (3, 12)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_returned_prefix_matches_from_scratch_training(self, task):
        # the oracle for the reuse: the first `best` trees of the grown
        # forest must be the forest train_forest grows for n_trees=best
        x, y, grid, base = _prefix_case(task)
        best, _, model = select_n_trees(x, y, grid, base, task=task)
        assert best < max(grid)
        solo = train_forest(x, y, replace(base, n_trees=best), task=task)
        z = np.random.default_rng(30).normal(size=(50, x.shape[1]))
        for points in (x, z):
            np.testing.assert_array_equal(
                predict_forest(model, points), predict_forest(solo, points)
            )
        assert model.oob_score == solo.oob_score
        np.testing.assert_array_equal(model.in_bag, solo.in_bag)
        np.testing.assert_array_equal(model.oob_curve, solo.oob_curve)
        assert model.spec == solo.spec and model.n_trees == best


def _prefix_case(task):
    """Noise data whose OOB choice falls below the largest grid point."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(80, 4))
    y = rng.integers(0, 3, size=80)
    if task == "classification":
        return x, y, [1, 4, 16], ForestSpec(n_trees=1, seed=3)
    x = rng.normal(size=(40, 3))
    return x, rng.normal(size=40), [4, 8], ForestSpec(n_trees=1, seed=5)


class TestPredictOob:
    def test_matches_per_row_average_over_trees_that_left_it_out(self):
        rng = np.random.default_rng(24)
        x, y = _noisy_stack(rng, 60)
        model = train_forest(x, y, ForestSpec(n_trees=3, seed=15), n_classes=4)
        oob = predict_oob(model, x)
        for i in range(x.shape[0]):
            trees = [t for t, bag in zip(model.trees, model.in_bag) if not bag[i]]
            if not trees:
                assert np.all(np.isnan(oob[i]))
                continue
            rows = [_tree_apply(t, x[i : i + 1])[0] for t in trees]
            np.testing.assert_allclose(oob[i], np.mean(rows, axis=0), rtol=1e-12)
        assert np.isnan(oob[:, 0]).any()  # 3 trees leave some rows always in-bag

    def test_curve_ends_at_the_oob_score(self):
        rng = np.random.default_rng(25)
        x, y = _noisy_stack(rng, 90)
        model = train_forest(x, y, ForestSpec(n_trees=6, seed=16), n_classes=4)
        assert model.oob_curve.shape == (6,)
        assert model.oob_curve[-1] == model.oob_score
        seen = ~np.isnan(predict_oob(model, x)[:, 0])
        assert model.oob_score == (predict_oob(model, x)[seen].argmax(axis=1) == y[seen]).mean()


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_train_forest_rejects_them(self, bad, task):
        x, y = _noisy_stack(np.random.default_rng(26), 40)
        x[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            train_forest(x, y, ForestSpec(n_trees=2, seed=1), task=task)

    def test_predict_forest_rejects_them(self):
        x, y = _noisy_stack(np.random.default_rng(27), 40)
        model = train_forest(x, y, ForestSpec(n_trees=2, seed=1))
        x[3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            predict_forest(model, x)

    def test_predict_oob_rejects_them(self):
        x, y = _noisy_stack(np.random.default_rng(28), 40)
        model = train_forest(x, y, ForestSpec(n_trees=2, seed=1))
        x[3, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            predict_oob(model, x)


def test_spec_validation():
    with pytest.raises(ValueError):
        ForestSpec(n_trees=0)
    with pytest.raises(ValueError):
        ForestSpec(n_trees=1, min_leaf=0)
    with pytest.raises(ValueError):
        ForestSpec(n_trees=1, features_per_split="half")


# Reference grower: a plain per-node version (leaf values computed as
# each leaf is reached) that _grow_tree must reproduce byte for byte.
# It is compared in-process rather than against stored hashes, because
# the numpy build is not pinned.


def _ref_best_for_feature(col, onehot_src, y_float, min_leaf, task):
    """Best (score, threshold) for one feature, or None if unsplittable.

    Scores are comparable across features of the same node: larger is
    better, and the first position of the maximum (ascending threshold
    order) wins within the feature.
    """
    order = np.argsort(col, kind="stable")
    xs = col[order]
    boundary = np.nonzero(xs[1:] != xs[:-1])[0]
    if boundary.size == 0:
        return None
    n = xs.shape[0]
    keep = (boundary + 1 >= min_leaf) & (n - boundary - 1 >= min_leaf)
    boundary = boundary[keep]
    if boundary.size == 0:
        return None
    n_left = boundary + 1.0
    n_right = n - n_left
    if task == "classification":
        cum = np.cumsum(onehot_src[order], axis=0)
        left = cum[boundary]
        right = cum[-1] - left
        # maximizing sum(counts^2)/size over both children is equivalent
        # to maximizing the Gini decrease for a fixed parent
        score = (left * left).sum(axis=1) / n_left + (right * right).sum(
            axis=1
        ) / n_right
    else:
        ys = y_float[order]
        cy = np.cumsum(ys)
        cy2 = np.cumsum(ys * ys)
        sum_l, sq_l = cy[boundary], cy2[boundary]
        sum_r, sq_r = cy[-1] - sum_l, cy2[-1] - sq_l
        sse = (sq_l - sum_l * sum_l / n_left) + (sq_r - sum_r * sum_r / n_right)
        score = -sse  # minimizing child SSE maximizes variance reduction
    j = int(np.argmax(score))
    b = boundary[j]
    return float(score[j]), float(0.5 * (xs[b] + xs[b + 1]))


def _ref_leaf_value(y_int, y_float, idx, task, n_outputs) -> np.ndarray:
    if task == "classification":
        return np.bincount(y_int[idx], minlength=n_outputs) / idx.size
    return np.array([float(y_float[idx].mean())])


def _ref_grow_tree(x, y_int, onehot, y_float, boot_idx, rng, spec, task, n_outputs) -> Tree:
    """Grow one tree iteratively in preorder (stack-based, no recursion)."""
    d = x.shape[1]
    mtry = spec.resolve_mtry(d, task)
    nodes = []  # [feature, threshold, left, right, value] in preorder
    # (rows, depth, node whose right child this is, or -1)
    stack = [(boot_idx, 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        pure = (
            np.all(y_int[idx] == y_int[idx[0]])
            if task == "classification"
            else np.all(y_float[idx] == y_float[idx[0]])
        )
        candidates = []
        if not (
            pure
            or idx.size < 2 * spec.min_leaf
            or (spec.max_depth is not None and depth >= spec.max_depth)
        ):
            # random feature subset: walk a permutation until mtry features
            # produced a usable boundary (constant features do not count)
            for f in rng.permutation(d):
                found = _ref_best_for_feature(
                    x[idx, f],
                    None if onehot is None else onehot[idx],
                    None if y_float is None else y_float[idx],
                    spec.min_leaf,
                    task,
                )
                if found is None:
                    continue
                candidates.append((found[0], int(f), found[1]))
                if len(candidates) >= mtry:
                    break
        if not candidates:
            nodes.append([-1, 0.0, -1, -1, _ref_leaf_value(y_int, y_float, idx, task, n_outputs)])
            continue
        # zero-gain splits are accepted while the node is impure: a split
        # never increases weighted impurity, and always shrinks both
        # sides, so growth terminates and distinct rows separate fully
        _, feat, thr = max(candidates, key=lambda c: (c[0], -c[1], -c[2]))
        # the right child index is filled in when that child is popped
        nodes.append([feat, thr, node + 1, -1, np.zeros(n_outputs)])
        mask = x[idx, feat] <= thr
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, -1))
    feature, threshold, left, right, value = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


def _ref_forest(x, y, spec, task):
    """train_forest's bootstrap and OOB loop around the reference grower."""
    n = x.shape[0]
    if task == "classification":
        y_int, y_float = y, None
        n_outputs = int(y.max()) + 1
        onehot = np.eye(n_outputs)[y]
    else:
        y_int, y_float, onehot, n_outputs = None, y, None, 1
    trees, curve = [], []
    in_bag = np.zeros((spec.n_trees, n), dtype=bool)
    total = np.zeros((n, n_outputs))
    hits = np.zeros(n, dtype=np.int64)
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed, t])
        boot = rng.integers(0, n, size=n)
        in_bag[t] = np.bincount(boot, minlength=n) > 0
        trees.append(
            _ref_grow_tree(x, y_int, onehot, y_float, boot, rng, spec, task, n_outputs)
        )
        _add_oob(total, hits, trees[-1], in_bag[t], x)
        curve.append(_oob_score(total, hits, y_int, y_float, task))
    return trees, in_bag, np.array(curve)


def _reference_case(task, seed):
    """Ties (x on a 0.1 grid), one constant column, and for regression
    targets rounded to 0.1, so that -0.0 is among them and sums depend
    on their order."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(90, 5)).round(1)
    x[:, 3] = 0.5
    if task == "classification":
        y = (x[:, 0] > 0).astype(np.int64) + rng.integers(0, 3, size=90)
    else:
        y = np.round(0.5 * (x[:, 1] + 0.3 * rng.normal(size=90)), 1)
        assert np.any((y == 0) & np.signbit(y))
    return x, y


class TestMatchesReferenceGrower:
    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    @pytest.mark.parametrize("max_depth", [None, 4])
    @pytest.mark.parametrize("features_per_split", [None, "all", "sqrt"])
    def test_trees_and_oob_curve_are_byte_equal(
        self, task, min_leaf, max_depth, features_per_split
    ):
        x, y = _reference_case(task, seed=min_leaf)
        spec = ForestSpec(
            n_trees=6, max_depth=max_depth, min_leaf=min_leaf,
            features_per_split=features_per_split, seed=7,
        )
        model = train_forest(x, y, spec, task=task)
        trees, in_bag, curve = _ref_forest(x, y, spec, task)
        assert len(model.trees) == len(trees)
        for got, want in zip(model.trees, trees):
            for name in Tree._fields:
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
        assert model.in_bag.tobytes() == in_bag.tobytes()
        assert model.oob_curve.tobytes() == curve.tobytes()
