"""Kernel ELM: closed-form solve, weighting, selection."""

from __future__ import annotations

import numpy as np
import pytest

from affectpipe.errors import SolverError
from affectpipe.kelm import (
    KernelSpec,
    class_weights,
    encode_classification_targets,
    kernel_matrix,
    predict_kelm,
    predict_kelm_labels,
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
        pred = predict_kelm_labels(model, x)
        assert (pred == labels).mean() > 0.95

    def test_labels_require_classification_task(self):
        model = train_kelm(np.eye(2), np.ones((2, 1)), c=1.0)
        with pytest.raises(ValueError):
            predict_kelm_labels(model, np.eye(2))


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

