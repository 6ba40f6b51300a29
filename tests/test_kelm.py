"""Kernel ELM: closed-form solve, weighting, selection."""

from __future__ import annotations

import numpy as np
import pytest

from affectpipe import metrics
from affectpipe.errors import SolverError
from affectpipe.kelm import (
    KernelSpec,
    class_weights,
    encode_classification_targets,
    kernel_matrix,
    predict_kelm,
    regularizer_ok,
    select_c,
    train_kelm,
)


class TestKernelMatrix:
    def test_linear_is_inner_products(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([[1.0, 0.0]])
        k = kernel_matrix(x, y, KernelSpec(kind="linear"))
        np.testing.assert_allclose(k, [[1.0], [3.0]])

    def test_rbf_unit_distance(self):
        # exp(-gamma * ||0 - 1||^2) with gamma=1
        k = kernel_matrix(
            np.array([[0.0]]), np.array([[1.0]]), KernelSpec(kind="rbf", gamma=1.0)
        )
        np.testing.assert_allclose(k[0, 0], 0.36787944117144233, rtol=0, atol=1e-15)

    def test_rbf_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 6))
        k = kernel_matrix(x, x, KernelSpec(kind="rbf", gamma=0.3))
        np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-12)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        assert np.all(k > 0) and np.all(k <= 1 + 1e-12)

    def test_gamma_default_is_one_over_d(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        got = kernel_matrix(x, x, KernelSpec(kind="rbf"))
        want = kernel_matrix(x, x, KernelSpec(kind="rbf", gamma=0.25))
        np.testing.assert_allclose(got, want, atol=0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            kernel_matrix(np.zeros((2, 3)), np.zeros((2, 4)), KernelSpec())

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="poly")
        with pytest.raises(ValueError):
            KernelSpec(gamma=-1.0)


class TestTargetsAndWeights:
    def test_encoding_is_plus_minus_one(self):
        t = encode_classification_targets([2, 0], n_classes=3)
        np.testing.assert_array_equal(t, [[-1, -1, 1], [1, -1, -1]])

    def test_encoding_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_classification_targets([0, 3], n_classes=3)

    def test_weights_inverse_class_counts(self):
        w = class_weights([0, 0, 0, 1])
        np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3, 1.0])


class TestTrainKelm:
    def test_identity_kernel_halves_targets(self):
        # Linear kernel on orthonormal rows gives K = I, so with C = 1
        # the system is 2 I beta = T and beta = T / 2.
        x = np.eye(2)
        t = np.array([[1.0, -1.0], [-1.0, 1.0]])
        model = train_kelm(x, t, c=1.0, kernel=KernelSpec(kind="linear"))
        np.testing.assert_allclose(model.beta, t / 2.0, atol=1e-12)

    def test_solve_residual_small(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 8))
            m = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            t = rng.normal(size=(n, m))
            c = float(10.0 ** rng.uniform(-2, 2))
            model = train_kelm(x, t, c)
            k = kernel_matrix(x, x, model.kernel)
            residual = (np.eye(n) / c + k) @ model.beta - t
            assert np.abs(residual).max() < 1e-8, f"trial {trial}"

    def test_weighted_solve_residual_small(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            n = int(rng.integers(4, 40))
            x = rng.normal(size=(n, 5))
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]  # every class present
            t = encode_classification_targets(labels, 3)
            w = class_weights(labels)
            model = train_kelm(x, t, c=10.0, weights=w, task="classification")
            k = kernel_matrix(x, x, model.kernel)
            lhs = (np.eye(n) / 10.0 + w[:, None] * k) @ model.beta
            assert np.abs(lhs - w[:, None] * t).max() < 1e-8, f"trial {trial}"

    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 4))
        t = rng.normal(size=(30, 2))
        plain = train_kelm(x, t, c=5.0)
        unit = train_kelm(x, t, c=5.0, weights=np.ones(30))
        np.testing.assert_allclose(unit.beta, plain.beta, atol=1e-10)

    def test_linear_kernel_matches_primal_ridge(self):
        # The dual solution with a linear kernel predicts identically to
        # ridge regression solved in weight space with lambda = 1/C.
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 6))
        t = rng.normal(size=(40, 2))
        c = 3.0
        model = train_kelm(x, t, c, kernel=KernelSpec(kind="linear"))
        w = np.linalg.solve(x.T @ x + np.eye(6) / c, x.T @ t)
        z = rng.normal(size=(15, 6))
        np.testing.assert_allclose(predict_kelm(model, z), z @ w, atol=1e-6)

    def test_row_permutation_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(25, 3))
        t = rng.normal(size=(25, 2))
        perm = rng.permutation(25)
        z = rng.normal(size=(8, 3))
        base = predict_kelm(train_kelm(x, t, 2.0), z)
        shuffled = predict_kelm(train_kelm(x[perm], t[perm], 2.0), z)
        np.testing.assert_allclose(shuffled, base, atol=1e-10)

    def test_larger_c_fits_training_targets_tighter(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 4))
        t = rng.normal(size=(30, 1))
        errs = []
        for c in (0.01, 1.0, 100.0):
            model = train_kelm(x, t, c)
            k = kernel_matrix(x, x, model.kernel)
            errs.append(float(np.abs(k @ model.beta - t).max()))
        assert errs[0] > errs[1] > errs[2]

    def test_non_finite_features_raise_solver_error(self):
        x = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(SolverError):
            train_kelm(x, np.array([[1.0], [-1.0]]), c=1.0)

    def test_bad_c_rejected(self):
        with pytest.raises(ValueError):
            train_kelm(np.eye(2), np.ones((2, 1)), c=0.0)

    @pytest.mark.parametrize("c", [1e-310, 5e-324, float("nan"), -1.0])
    def test_c_without_a_finite_reciprocal_rejected(self, c):
        # at C = 1e-310, 1/C overflows: the diagonal is inf and beta all 0
        assert not regularizer_ok(c)
        x, t = np.eye(3), np.ones((3, 1))
        with pytest.raises(ValueError, match="finite 1/C"):
            train_kelm(x, t, c)
        with pytest.raises(ValueError, match="finite 1/C"):
            select_c(x, t, [1.0, c], x, t, "mean_ccc")

    def test_tiny_c_with_a_finite_reciprocal_trains(self):
        assert regularizer_ok(1e-300) and regularizer_ok(float("inf"))
        model = train_kelm(np.eye(3), np.ones((3, 1)), 1e-300)
        assert np.all(np.isfinite(model.beta)) and np.any(model.beta != 0.0)

    def test_non_finite_system_is_named_without_a_condition_number(self, monkeypatch):
        # finite features of 1e200 overflow the rbf kernel's squared
        # distances, and inf - inf leaves NaN in the system, on which
        # np.linalg.cond raises LinAlgError
        x = np.random.default_rng(3).random((6, 2)) * 1e200
        t = np.ones((6, 1))

        def cond(a):
            raise AssertionError("cond of a non-finite system")

        monkeypatch.setattr(np.linalg, "cond", cond)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="non-finite entries in the system"):
                train_kelm(x, t, 1.0)
            with pytest.raises(SolverError, match="non-finite entries in the system"):
                select_c(x, t, [1.0], x, t, "mean_ccc")

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_features_too_large_for_the_kernel_raise_without_a_warning(self, kind):
        # the kernel overflows; under this suite's warnings-as-errors filter
        # a numpy RuntimeWarning would escape before the solver's check
        x = np.random.default_rng(3).random((6, 2)) * 1e200
        with pytest.raises(SolverError, match="non-finite entries in the system"):
            train_kelm(x, np.ones((6, 1)), 1.0, kernel=KernelSpec(kind))


class TestPredict:
    def test_regression_scores_clipped(self):
        x = np.array([[1.0], [2.0]])
        t = np.array([[100.0], [-100.0]])
        model = train_kelm(x, t, c=1e6, kernel=KernelSpec(kind="linear"))
        scores = predict_kelm(model, np.array([[1.0], [2.0], [-2.0]]))
        assert scores.max() <= 1.0 and scores.min() >= -1.0

    def test_classification_labels_argmax(self):
        rng = np.random.default_rng(13)
        centers = np.array([[0.0, 0.0], [4.0, 4.0], [-4.0, 4.0]])
        labels = rng.integers(0, 3, size=90)
        x = centers[labels] + rng.normal(scale=0.3, size=(90, 2))
        t = encode_classification_targets(labels, 3)
        model = train_kelm(x, t, c=100.0, task="classification")
        pred = predict_kelm(model, x).argmax(axis=1)
        assert (pred == labels).mean() > 0.95


class TestSelectC:
    def test_picks_best_dev_score_and_smallest_on_tie(self):
        rng = np.random.default_rng(14)
        labels = np.array([0, 1] * 20)
        x = labels[:, None] * 2.0 - 1.0 + rng.normal(scale=0.05, size=(40, 1))
        t = encode_classification_targets(labels, 2)
        best_c, score = select_c(
            x, t, [0.1, 1.0, 10.0], x, labels, metric="macro_f1"
        )
        # the task is easy: several C values tie at a perfect score and
        # the smallest one wins
        assert score == 1.0
        assert best_c == 0.1

    def test_mean_ccc_metric(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(60, 3))
        t = np.tanh(x @ np.array([[0.5], [-0.2], [0.1]]))
        best_c, score = select_c(
            x, t, [0.01, 1.0, 100.0], x, t, metric="mean_ccc"
        )
        assert best_c == 100.0  # tightest fit wins on the training split
        assert score > 0.9

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            select_c(np.eye(2), np.ones((2, 1)), [1.0], np.eye(2), [0, 1], "auc")

    def test_non_finite_coefficients_quote_the_system_condition(self):
        # a rank-1 kernel with C = 1e10 puts a 1e10 gain on targets of
        # 1e300 in its null space, so beta overflows
        x = np.ones((3, 1))
        t = np.array([[1e300], [-1e300], [0.0]])
        spec = KernelSpec(kind="linear")
        with pytest.raises(SolverError, match=r"non-finite coefficients \(cond=") as got:
            select_c(x, t, [1e10], x, t, "mean_ccc", kernel=spec)
        with pytest.raises(SolverError) as want:
            train_kelm(x, t, 1e10, kernel=spec)
        assert str(got.value) == str(want.value)
        cond = np.linalg.cond(np.eye(3) / 1e10 + x @ x.T)
        assert f"(cond={cond:.3e})" in str(got.value)


def reference_kernel(x, y, spec):
    """kernel_matrix as one expression with temporaries."""
    if spec.kind == "linear":
        return x @ y.T
    sq = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(y * y, axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-spec.gamma * sq)


def reference_beta(x, targets, c, spec, weights):
    """The solution of eye/C + W K, with the system built afresh for one C."""
    k = reference_kernel(x, x, spec)
    a = np.eye(len(x)) / c
    if weights is None:
        a += k
        rhs = targets
    else:
        a += weights[:, None] * k
        rhs = weights[:, None] * targets
    return np.linalg.solve(a, rhs)


def reference_score(model, dev_x, dev_targets, metric):
    """The dev score of a trained model through the public predictors."""
    if metric == "macro_f1":
        pred = predict_kelm(model, dev_x).argmax(axis=1)
        return metrics.classification_report(
            dev_targets, pred, n_classes=model.n_outputs
        ).macro_f1
    scores = predict_kelm(model, dev_x)
    per_dim = [
        metrics.ccc(dev_targets[:, j], scores[:, j]).ccc
        for j in range(dev_targets.shape[1])
    ]
    return float(np.mean(per_dim))


def reference_select_c(x, targets, candidates, dev_x, dev_targets, metric,
                       kernel, weights):
    """The C search as a loop that trains and scores one model per C and
    keeps the best score, ties going to the smallest C. select_c must give
    the same C and score bytes."""
    task = "classification" if metric == "macro_f1" else "regression"
    scores = []
    for c in candidates:
        model = train_kelm(x, targets, c, kernel=kernel, weights=weights, task=task)
        scores.append(reference_score(model, dev_x, dev_targets, metric))
    best = max(range(len(candidates)), key=lambda i: (scores[i], -candidates[i]))
    return candidates[best], scores[best], scores


def _select_c_case(kind, weighted, metric, seed, n=60, dev=25, d=5, n_classes=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n + dev, d))
    labels = rng.integers(0, n_classes, size=n + dev)
    labels[:n_classes] = np.arange(n_classes)  # every class trains
    x[:, 0] += labels  # the first feature carries the class
    if metric == "macro_f1":
        targets = encode_classification_targets(labels[:n], n_classes)
        dev_targets = labels[n:]
    else:
        y = np.tanh(x[:, :2] * 0.5 + rng.normal(scale=0.3, size=(n + dev, 2)))
        targets, dev_targets = y[:n], y[n:]
    weights = class_weights(labels[:n]) if weighted else None
    return x[:n], targets, x[n:], dev_targets, KernelSpec(kind=kind), weights


class TestSelectCMatchesReferenceLoop:
    GRID = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)

    def check(self, x, targets, dev_x, dev_targets, metric, spec, weights, grid):
        got = select_c(x, targets, grid, dev_x, dev_targets, metric,
                       kernel=spec, weights=weights)
        want_c, want_score, scores = reference_select_c(
            x, targets, grid, dev_x, dev_targets, metric, spec, weights
        )
        assert got[0] == want_c
        assert np.float64(got[1]).tobytes() == np.float64(want_score).tobytes()
        resolved = spec.resolve(x.shape[1])
        for a, b in ((x, x), (dev_x, x)):
            assert (kernel_matrix(a, b, spec).tobytes()
                    == reference_kernel(a, b, resolved).tobytes())
        for c in grid:
            beta = train_kelm(x, targets, c, kernel=spec, weights=weights).beta
            assert beta.tobytes() == reference_beta(
                x, targets, c, resolved, weights).tobytes(), f"C={c}"
        return scores

    @pytest.mark.parametrize("metric", ["macro_f1", "mean_ccc"])
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "plain"])
    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_grid(self, kind, weighted, metric):
        seed = [kind == "rbf", weighted, metric == "macro_f1"]
        x, t, dev_x, dev_t, spec, w = _select_c_case(kind, weighted, metric, seed)
        self.check(x, t, dev_x, dev_t, metric, spec, w, self.GRID)

    def test_tied_scores_go_to_the_smallest_c(self):
        # well-separated classes: several C score a perfect dev macro-F1
        rng = np.random.default_rng(17)
        labels = np.tile(np.arange(3), 20)
        x = np.eye(3)[labels] * 4.0 + rng.normal(scale=0.1, size=(60, 3))
        t = encode_classification_targets(labels, 3)
        grid = self.GRID[::-1]
        scores = self.check(x, t, x, labels, "macro_f1", KernelSpec("rbf"),
                            class_weights(labels), grid)
        assert scores.count(max(scores)) >= 2

    def test_linear_negative_zero_products(self):
        # w * K underflows to -0.0 off the diagonal, where eye/C + W K has
        # +0.0; with a -0.0 target the sign reaches beta
        x = np.array([[-1.0], [5e-324]])
        t = np.array([[1.0], [-0.0]])
        w = np.array([0.125, 0.5])
        spec = KernelSpec("linear")
        wk = w[:, None] * kernel_matrix(x, x, spec)
        assert np.signbit(wk[0, 1]) and wk[0, 1] == 0.0
        self.check(x, t, x, t, "mean_ccc", spec, w, self.GRID)
