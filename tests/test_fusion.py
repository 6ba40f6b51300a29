"""Fusion pool sampling, weighted application, search, and RF stacking."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from affectpipe import fusion, metrics
from affectpipe.errors import AlignmentError
from affectpipe.forest import (
    ForestSpec,
    predict_forest,
    predict_oob,
    select_n_trees,
    train_forest,
)
from affectpipe.fusion import (
    FusionMatrix,
    FusionPool,
    apply_fusion,
    dwf_search,
    mean_fusion,
    sample_pool,
    stack_and_fuse_rf,
    uniform_matrix,
    _stack_features,
)


def _random_scores(rng, n_models, q, k):
    return [rng.dirichlet(np.ones(k), size=q) for _ in range(n_models)]


class TestFusionMatrix:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            FusionMatrix(np.array([[1.5], [-0.5]]))

    def test_rejects_bad_column_sums(self):
        with pytest.raises(ValueError):
            FusionMatrix(np.array([[0.5], [0.4]]))

    @pytest.mark.parametrize("cls, w", [
        (FusionMatrix, np.array([[0.5, 1.0], [0.5, 0.0]])),
        (FusionPool, np.array([[[0.5, 1.0], [0.5, 0.0]], [[0.0, 0.25], [1.0, 0.75]]])),
    ])
    def test_copies_and_leaves_the_callers_array_writeable(self, cls, w):
        original = w.copy()
        held = cls(w).weights
        assert w.flags.writeable and not held.flags.writeable
        assert not np.shares_memory(w, held)
        w[...] = 0.0
        np.testing.assert_array_equal(held, original)


class TestSamplePool:
    def test_single_model_columns_are_exactly_one(self):
        pool = sample_pool(1, 4, pool_size=50, seed=3)
        for matrix in pool.matrices:
            np.testing.assert_array_equal(matrix.weights, np.ones((1, 4)))

    def test_columns_on_simplex(self):
        pool = sample_pool(5, 3, pool_size=200, alpha=0.5, seed=4)
        for matrix in pool.matrices:
            assert np.all(matrix.weights >= 0)
            np.testing.assert_allclose(matrix.weights.sum(axis=0), 1.0, atol=1e-9)

    def test_deterministic_and_seed_sensitive(self):
        a = sample_pool(3, 2, pool_size=20, seed=7)
        b = sample_pool(3, 2, pool_size=20, seed=7)
        c = sample_pool(3, 2, pool_size=20, seed=8)
        for ma, mb in zip(a.matrices, b.matrices):
            np.testing.assert_array_equal(ma.weights, mb.weights)
        assert any(
            not np.array_equal(ma.weights, mc.weights)
            for ma, mc in zip(a.matrices, c.matrices)
        )

    def test_selectors_appended_at_end(self):
        pool = sample_pool(3, 2, pool_size=10, seed=1)
        assert len(pool) == 13
        np.testing.assert_array_equal(pool.weights[10:], [
            [[1, 1], [0, 0], [0, 0]],
            [[0, 0], [1, 1], [0, 0]],
            [[0, 0], [0, 0], [1, 1]],
        ])

    @pytest.mark.parametrize("m, k, alpha", [(3, 8, 1.0), (1, 4, 0.5), (4, 2, 1e-3)])
    def test_weights_are_normalised_gamma_draws_then_selectors(self, m, k, alpha):
        pool = sample_pool(m, k, pool_size=30, alpha=alpha, seed=9)
        g = np.random.default_rng(9).gamma(shape=alpha, scale=1.0, size=(30, m, k))
        sums = g.sum(axis=1, keepdims=True)
        g = np.where(sums == 0.0, 1.0, g)
        expected = [w / w.sum(axis=0) for w in g]
        expected += [np.outer(np.eye(m)[i], np.ones(k)) for i in range(m)]  # selectors
        assert pool.weights.shape == (30 + m, m, k) and pool.weights.dtype == np.float64
        assert pool.weights.tobytes() == np.array(expected).tobytes()
        assert not pool.weights.flags.writeable


class TestFusionPool:
    @pytest.mark.parametrize("weights", [
        np.ones((2, 3)),  # one matrix, not a pool
        np.ones((1, 1, 2, 2)),
        np.empty((0, 2, 3)),
        np.empty((2, 2, 0)),
    ], ids=["2-d", "4-d", "no-matrices", "no-outputs"])
    def test_rejects_shapes_that_are_not_a_nonempty_pool(self, weights):
        with pytest.raises(ValueError, match="nonempty P x M x K"):
            FusionPool(weights)

    def test_rejects_a_negative_weight(self):
        w = np.full((3, 2, 2), 0.5)
        w[2] = [[1.5, 0.5], [-0.5, 0.5]]
        with pytest.raises(ValueError, match="nonnegative"):
            FusionPool(w)

    def test_rejects_a_column_off_the_simplex(self):
        w = np.full((3, 2, 2), 0.5)
        w[1, 0, 1] = 0.4
        with pytest.raises(ValueError, match="sum to 1"):
            FusionPool(w)

    def test_matrices_are_the_weight_rows(self):
        pool = sample_pool(2, 3, pool_size=4, seed=5)
        assert len(pool.matrices) == len(pool) == 6
        for matrix, w in zip(pool.matrices, pool.weights):
            assert matrix.weights.tobytes() == w.tobytes()


class TestApplyFusion:
    def test_hand_worked_two_model_case(self):
        p1 = np.array([[0.6, 0.4]])
        p2 = np.array([[0.2, 0.8]])
        w = FusionMatrix(np.array([[0.5, 0.25], [0.5, 0.75]]))
        fused = apply_fusion([p1, p2], w, task="expr")
        np.testing.assert_allclose(fused, [[0.4, 0.7]], atol=1e-12)

    def test_identical_models_fuse_to_themselves(self):
        rng = np.random.default_rng(10)
        scores = rng.dirichlet(np.ones(4), size=30)
        pool = sample_pool(3, 4, pool_size=10, seed=11)
        for matrix in pool.matrices:
            fused = apply_fusion([scores] * 3, matrix, task="expr")
            np.testing.assert_allclose(fused, scores, atol=1e-9)

    def test_selector_copies_one_model_exactly(self):
        rng = np.random.default_rng(12)
        preds = _random_scores(rng, 3, 25, 8)
        fused = apply_fusion(preds, FusionMatrix([[0.0] * 8, [0.0] * 8, [1.0] * 8]),
                             task="expr")
        np.testing.assert_array_equal(fused, preds[2])

    def test_output_bounded_by_model_envelope(self):
        rng = np.random.default_rng(13)
        preds = _random_scores(rng, 4, 40, 5)
        stacked = np.stack(preds)
        pool = sample_pool(4, 5, pool_size=25, seed=14)
        for matrix in pool.matrices:
            fused = apply_fusion(preds, matrix, task="expr")
            assert np.all(fused <= stacked.max(axis=0) + 1e-12)
            assert np.all(fused >= stacked.min(axis=0) - 1e-12)

    def test_common_scaling_preserves_argmax(self):
        rng = np.random.default_rng(15)
        preds = _random_scores(rng, 3, 50, 6)
        matrix = sample_pool(3, 6, pool_size=1, seed=16).matrices[0]
        base = apply_fusion(preds, matrix, task="expr").argmax(axis=1)
        scaled = apply_fusion([7.5 * p for p in preds], matrix, task="expr").argmax(axis=1)
        np.testing.assert_array_equal(scaled, base)

    def test_va_outputs_clipped(self):
        p1 = np.array([[2.0, -3.0]])  # raw scores outside the va range
        fused = apply_fusion([p1], FusionMatrix(np.ones((1, 2))), task="va")
        np.testing.assert_array_equal(fused, [[1.0, -1.0]])

    @pytest.mark.parametrize("task", ["VA", "valence", None])
    def test_unknown_task_rejected(self, task):
        preds = [np.full((3, 2), 2.0)]
        with pytest.raises(ValueError, match="unknown task"):
            apply_fusion(preds, FusionMatrix(np.ones((1, 2))), task=task)
        with pytest.raises(ValueError, match="unknown task"):
            mean_fusion(preds, task=task)

    def test_task_defaults_to_expr(self):
        preds = [np.full((3, 2), 2.0)]
        np.testing.assert_array_equal(
            apply_fusion(preds, FusionMatrix(np.ones((1, 2)))), preds[0]
        )
        np.testing.assert_array_equal(mean_fusion(preds), preds[0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            apply_fusion(
                [np.zeros((5, 3)), np.zeros((6, 3))], uniform_matrix(2, 3)
            )

    def test_matrix_shape_must_match_tracks(self):
        with pytest.raises(ValueError):
            apply_fusion([np.zeros((5, 3))], uniform_matrix(2, 3))


class TestMeanFusion:
    def test_single_model_identity(self):
        rng = np.random.default_rng(20)
        scores = rng.dirichlet(np.ones(4), size=15)
        np.testing.assert_array_equal(mean_fusion([scores], task="expr"), scores)

    def test_equals_uniform_matrix_fusion(self):
        rng = np.random.default_rng(21)
        preds = _random_scores(rng, 3, 20, 4)
        np.testing.assert_array_equal(
            mean_fusion(preds, task="expr"),
            apply_fusion(preds, uniform_matrix(3, 4), task="expr"),
        )

    def test_midpoint_of_two_constants(self):
        fused = mean_fusion([np.array([[0.0]]), np.array([[1.0]])], task="expr")
        np.testing.assert_array_equal(fused, [[0.5]])


class TestFusionOverConcatenatedVideos:
    """The fuse stage fuses the rows of all its videos in one call, so
    that call must give each video's own fusion byte for byte."""

    @pytest.mark.parametrize("task", ["expr", "va"])
    @pytest.mark.parametrize("n_models", [1, 2, 3, 4])
    def test_equals_the_per_video_fusions_concatenated(self, task, n_models):
        rng = np.random.default_rng(n_models)
        k = 8 if task == "expr" else 2
        for _ in range(25):
            lengths = rng.integers(1, 300, size=rng.integers(2, 6))
            videos = [[rng.uniform(-1.2, 1.2, size=(n, k)) for _ in range(n_models)]
                      for n in lengths]
            matrix = FusionMatrix(rng.dirichlet(np.ones(n_models), size=k).T)
            whole = [np.concatenate([video[m] for video in videos])
                     for m in range(n_models)]
            for fuse in (lambda preds: apply_fusion(preds, matrix, task=task),
                         lambda preds: mean_fusion(preds, task=task)):
                once = fuse(whole)
                per_video = np.concatenate([fuse(video) for video in videos])
                assert once.shape == per_video.shape == (lengths.sum(), k)
                assert once.tobytes() == per_video.tobytes()


class TestDwfSearch:
    def test_single_selector_pool_returns_solo_score(self):
        rng = np.random.default_rng(30)
        preds = _random_scores(rng, 1, 40, 4)
        truth = rng.integers(0, 4, size=40)
        pool = FusionPool(np.ones((1, 1, 4)))
        matrix, score, table = dwf_search(pool, preds, truth, "macro_f1")
        solo = metrics.classification_report(
            truth, preds[0].argmax(axis=1), n_classes=4
        ).macro_f1
        assert score == solo and len(table) == 1
        np.testing.assert_array_equal(matrix.weights, pool.matrices[0].weights)

    def test_with_selectors_beats_every_single_model(self):
        rng = np.random.default_rng(31)
        truth = rng.integers(0, 4, size=60)
        preds = []
        for _ in range(3):
            scores = rng.dirichlet(np.ones(4), size=60)
            agree = rng.random(60) < 0.6
            scores[agree, truth[agree]] += 1.0
            preds.append(scores / scores.sum(axis=1, keepdims=True))
        pool = sample_pool(3, 4, pool_size=300, seed=32)
        _, best, _ = dwf_search(pool, preds, truth, "macro_f1")
        for m in range(3):
            solo = metrics.classification_report(
                truth, preds[m].argmax(axis=1), n_classes=4
            ).macro_f1
            assert best >= solo

    def test_matches_brute_force_exhaustive_loop(self):
        rng = np.random.default_rng(33)
        truth = rng.integers(0, 3, size=15)
        preds = _random_scores(rng, 2, 15, 3)
        pool = sample_pool(2, 3, pool_size=50, seed=34)

        best_i, best_s = 0, -np.inf
        for i, matrix in enumerate(pool.matrices):
            fused = apply_fusion(preds, matrix, task="expr")
            s = metrics.classification_report(
                truth, fused.argmax(axis=1), n_classes=3
            ).macro_f1
            if s > best_s:
                best_i, best_s = i, s

        matrix, score, table = dwf_search(pool, preds, truth, "macro_f1")
        assert score == best_s
        np.testing.assert_array_equal(matrix.weights, pool.matrices[best_i].weights)
        assert table[best_i] == best_s

    def test_mean_ccc_metric_on_va_tracks(self):
        rng = np.random.default_rng(35)
        truth = np.clip(rng.normal(scale=0.4, size=(50, 2)), -1, 1)
        good = np.clip(truth + rng.normal(scale=0.05, size=(50, 2)), -1, 1)
        bad = np.clip(rng.normal(scale=0.4, size=(50, 2)), -1, 1)
        pool = sample_pool(2, 2, pool_size=100, seed=36)
        matrix, score, _ = dwf_search(pool, [good, bad], truth, "mean_ccc")
        solo_good = (
            metrics.ccc(truth[:, 0], good[:, 0]).ccc
            + metrics.ccc(truth[:, 1], good[:, 1]).ccc
        ) / 2
        assert score >= solo_good  # selector for the good model is in the pool

    @pytest.mark.parametrize("alpha", [1.0, 1e-3])  # 1e-3 draws zero columns
    def test_one_model_pool_scores_every_matrix_like_the_selector(self, alpha):
        rng = np.random.default_rng(37)
        preds = _random_scores(rng, 1, 40, 4)
        truth = rng.integers(0, 4, size=40)
        pool = sample_pool(1, 4, pool_size=200, alpha=alpha, seed=38)
        matrix, score, table = dwf_search(pool, preds, truth, "macro_f1")
        solo = metrics.classification_report(
            truth, preds[0].argmax(axis=1), n_classes=4
        ).macro_f1
        assert matrix.weights.tobytes() == pool.weights[0].tobytes() and score == solo
        np.testing.assert_array_equal(table, np.full(len(pool), solo))

    def test_one_model_weights_off_one_are_each_scored(self):
        rng = np.random.default_rng(39)
        truth = np.clip(rng.normal(scale=0.4, size=(50, 2)), -1, 1)
        pred = np.clip(truth + rng.normal(scale=0.2, size=(50, 2)), -1, 1)
        w = 1.0 - 1e-9
        pool = FusionPool(np.array([[[1.0, 1.0]], [[w, 1.0]]]))
        _, _, table = dwf_search(pool, [pred], truth, "mean_ccc")
        scaled = (
            metrics.ccc(truth[:, 0], w * pred[:, 0]).ccc
            + metrics.ccc(truth[:, 1], pred[:, 1]).ccc
        ) / 2
        assert table[1] == scaled != table[0]

    def test_truth_length_mismatch_rejected(self):
        pool = sample_pool(1, 2, pool_size=1, seed=0)
        with pytest.raises(AlignmentError):
            dwf_search(pool, [np.zeros((5, 2))], np.zeros(4), "macro_f1")

    def test_unknown_metric_rejected(self):
        pool = sample_pool(1, 2, pool_size=1, seed=0)
        with pytest.raises(ValueError):
            dwf_search(pool, [np.zeros((5, 2))], np.zeros(5), "auc")

    @pytest.mark.parametrize("bad", [3, -1])
    def test_truth_labels_outside_classes_rejected(self, bad):
        rng = np.random.default_rng(41)
        preds = _random_scores(rng, 2, 20, 3)
        truth = rng.integers(0, 3, size=20)
        truth[7] = bad
        pool = sample_pool(2, 3, pool_size=5, seed=42)
        with pytest.raises(ValueError, match=r"y_true contains labels outside \[0, 3\)"):
            dwf_search(pool, preds, truth, "macro_f1")

    @pytest.mark.parametrize("metric", ["macro_f1", "mean_ccc"])
    def test_matrix_shape_must_match_predictions(self, metric):
        rng = np.random.default_rng(43)
        preds = _random_scores(rng, 3, 20, 3)
        truth = (rng.integers(0, 3, size=20) if metric == "macro_f1"
                 else rng.uniform(-1, 1, size=(20, 3)))
        pool = sample_pool(2, 3, pool_size=5, seed=44)
        with pytest.raises(ValueError, match="2x3 but tracks are 3 models x 3 outputs"):
            dwf_search(pool, preds, truth, metric)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", ["macro_f1", "mean_ccc"])
    def test_non_finite_predictions_rejected(self, metric, value):
        rng = np.random.default_rng(45)
        preds = _random_scores(rng, 2, 30, 2)
        preds[1][4, 1] = value
        truth = (rng.integers(0, 2, size=30) if metric == "macro_f1"
                 else rng.uniform(-1, 1, size=(30, 2)))
        pool = sample_pool(2, 2, pool_size=50, seed=46)
        with pytest.raises(ValueError, match="non-finite"):
            dwf_search(pool, preds, truth, metric)

    @pytest.mark.parametrize("metric", ["macro_f1", "mean_ccc"])
    def test_non_finite_truth_rejected(self, metric):
        rng = np.random.default_rng(47)
        preds = _random_scores(rng, 2, 30, 2)
        truth = (rng.integers(0, 2, size=30).astype(np.float64) if metric == "macro_f1"
                 else rng.uniform(-1, 1, size=(30, 2)))
        truth[9] = np.nan
        pool = sample_pool(2, 2, pool_size=50, seed=48)
        with pytest.raises(ValueError, match="non-finite"):
            dwf_search(pool, preds, truth, metric)


def _reference_dev_score(fused, truth, metric):
    if metric == "macro_f1":
        labels = fused.argmax(axis=1)
        report = metrics.classification_report(
            truth, labels, n_classes=fused.shape[1]
        )
        return report.macro_f1
    values = [
        metrics.ccc(truth[:, j], fused[:, j]).ccc for j in range(fused.shape[1])
    ]
    return sum(values) / len(values)


def reference_dwf_search(pool, dev_preds, dev_truth, metric):
    """The DWF search as a per-matrix loop: fuse, argmax, report, keep the
    first strict maximum. dwf_search must reproduce its score table byte
    for byte and pick the same matrix."""
    stacked = np.stack(dev_preds)
    scores = np.empty(len(pool))
    best = 0
    for i, matrix in enumerate(pool.matrices):
        fused = np.einsum("mqk,mk->qk", stacked, matrix.weights)
        scores[i] = _reference_dev_score(fused, dev_truth, metric)
        if scores[i] > scores[best]:
            best = i
    return pool.matrices[best], float(scores[best]), scores


class TestDwfSearchMatchesReferenceLoop:
    # (models, classes, frames)
    CASES = [
        (1, 8, 200), (1, 13, 50), (2, 1, 5), (2, 2, 37), (2, 13, 130),
        (3, 3, 500), (3, 8, 4000), (4, 2, 1000), (4, 8, 9), (4, 13, 300),
        (2, 130, 50),  # K > 127: the first-maximum marks outgrow int8
    ]

    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "continuous"])
    @pytest.mark.parametrize("alpha", [1.0, 1e-3])
    @pytest.mark.parametrize("metric", ["macro_f1", "mean_ccc"])
    @pytest.mark.parametrize("m, k, q", CASES)
    def test_score_table_and_winner(self, m, k, q, metric, alpha, grid):
        rng = np.random.default_rng([m, k, q, metric == "macro_f1", alpha == 1.0, grid])
        if grid:
            # a 0.25 grid makes fused classes and pool scores tie exactly
            preds = [rng.integers(-4, 5, size=(q, k)) * 0.25 for _ in range(m)]
        else:
            preds = [rng.normal(size=(q, k)) for _ in range(m)]
        if metric == "macro_f1":
            truth = rng.integers(0, k, size=q)
        elif grid:
            truth = rng.integers(-4, 5, size=(q, k)) * 0.25
        else:
            truth = rng.uniform(-1, 1, size=(q, k))
        sampled = sample_pool(m, k, pool_size=40, alpha=alpha, seed=q)
        # equal copies of earlier matrices tie with them; the first must win
        pool = FusionPool(np.concatenate([sampled.weights, sampled.weights[::5]]))

        matrix, score, table = dwf_search(pool, preds, truth, metric)
        ref_matrix, ref_score, ref_table = reference_dwf_search(
            pool, preds, truth, metric
        )
        assert table.dtype == ref_table.dtype and table.shape == ref_table.shape
        assert table.tobytes() == ref_table.tobytes()
        assert matrix.weights.tobytes() == ref_matrix.weights.tobytes()
        assert np.float64(score).tobytes() == np.float64(ref_score).tobytes()


class TestRfStacking:
    def test_stacked_width_is_models_times_outputs(self):
        rng = np.random.default_rng(40)
        preds = _random_scores(rng, 3, 12, 8)
        assert _stack_features(preds).shape == (12, 24)

    def test_informative_single_model_fits_dev_perfectly(self):
        rng = np.random.default_rng(41)
        truth = rng.integers(0, 4, size=60)
        scores = rng.dirichlet(np.ones(4), size=60) * 0.2
        scores[np.arange(60), truth] += 0.8  # argmax always equals truth
        fused, info = stack_and_fuse_rf(
            [scores], truth, [scores], task="expr",
            base_spec=ForestSpec(n_trees=10, seed=42), grid=[10, 20],
        )
        assert info.dev_score == 1.0
        assert np.all(fused.argmax(axis=1) == truth)

    def test_constant_truth_gives_constant_output(self):
        rng = np.random.default_rng(43)
        preds = _random_scores(rng, 2, 30, 3)
        fused, _ = stack_and_fuse_rf(
            preds, np.zeros(30, dtype=int), preds, task="expr",
            base_spec=ForestSpec(n_trees=5, seed=44), grid=[5],
        )
        assert np.all(fused.argmax(axis=1) == 0)
        np.testing.assert_array_equal(fused, np.tile(fused[0], (30, 1)))

    def test_va_stacking_shapes_and_range(self):
        rng = np.random.default_rng(45)
        truth = np.clip(rng.normal(scale=0.3, size=(40, 2)), -1, 1)
        preds = [np.clip(truth + rng.normal(scale=0.1, size=(40, 2)), -1, 1)
                 for _ in range(2)]
        fused, info = stack_and_fuse_rf(
            preds, truth, preds, task="va",
            base_spec=ForestSpec(n_trees=5, seed=46), grid=[5, 10],
        )
        assert fused.shape == (40, 2)
        assert fused.min() >= -1.0 and fused.max() <= 1.0
        assert info.n_trees in (5, 10)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(47)
        truth = rng.integers(0, 3, size=50)
        preds = _random_scores(rng, 2, 50, 3)
        kwargs = dict(task="expr", base_spec=ForestSpec(n_trees=5, seed=48),
                      grid=[5, 10])
        a, _ = stack_and_fuse_rf(preds, truth, preds, **kwargs)
        b, _ = stack_and_fuse_rf(preds, truth, preds, **kwargs)
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def _noise_case():
        """Uninformative scores on which expr and va dimension 0 choose
        the smaller of two tree counts."""
        rng = np.random.default_rng(61)
        truth = rng.integers(0, 3, size=60)
        preds = [rng.dirichlet(np.ones(3), size=60) for _ in range(2)]
        va_truth = np.clip(rng.normal(scale=0.4, size=(50, 2)), -1, 1)
        va_preds = [np.clip(rng.normal(scale=0.4, size=(50, 2)), -1, 1) for _ in range(2)]
        return truth, preds, va_truth, va_preds

    @staticmethod
    def _retrain_path(dev_preds, truth, target_preds, task, spec, grid):
        """Fusion as it was before the prefix reuse: choose the count,
        then grow that many trees again from scratch."""
        x_dev, x_target = _stack_features(dev_preds), _stack_features(target_preds)
        if task == "expr":
            k = dev_preds[0].shape[1]
            best, _, _ = select_n_trees(x_dev, truth, grid, spec, n_classes=k)
            model = train_forest(x_dev, truth, replace(spec, n_trees=best), n_classes=k)
            return predict_forest(model, x_target), [best]
        cols, chosen = [], []
        for j in range(truth.shape[1]):
            dim_seed = int(np.random.SeedSequence([spec.seed, j]).generate_state(1)[0])
            dim_spec = replace(spec, seed=dim_seed)
            best, _, _ = select_n_trees(x_dev, truth[:, j], grid, dim_spec, task="regression")
            model = train_forest(
                x_dev, truth[:, j], replace(dim_spec, n_trees=best), task="regression"
            )
            cols.append(np.clip(predict_forest(model, x_target), -1.0, 1.0))
            chosen.append(best)
        return np.column_stack(cols), chosen

    @pytest.mark.parametrize("task", ["expr", "va"])
    def test_fused_output_equals_the_retrain_path(self, task):
        truth, preds, va_truth, va_preds = self._noise_case()
        if task == "va":
            truth, preds = va_truth, va_preds
        rng = np.random.default_rng(62)
        target = [p[rng.permutation(p.shape[0])] for p in preds]
        spec, grid = ForestSpec(n_trees=2, seed=61), [2, 6]
        expected, chosen = self._retrain_path(preds, truth, target, task, spec, grid)
        assert min(chosen) < max(grid)  # the prefix path is exercised
        fused, info = stack_and_fuse_rf(
            preds, truth, target, task=task, base_spec=spec, grid=grid
        )
        np.testing.assert_array_equal(fused, expected)
        assert info.n_trees == max(chosen)

    @pytest.mark.parametrize("task", ["expr", "va"])
    def test_target_rows_equal_to_the_dev_rows_are_predicted_once(self, task, monkeypatch):
        truth, preds, va_truth, va_preds = self._noise_case()
        if task == "va":
            truth, preds = va_truth, va_preds
        spec, grid = ForestSpec(n_trees=2, seed=61), [2, 6]
        expected, chosen = self._retrain_path(preds, truth, preds, task, spec, grid)
        calls = []

        def counted(model, x, _fn=fusion.predict_forest):
            calls.append(x.shape)
            return _fn(model, x)

        monkeypatch.setattr(fusion, "predict_forest", counted)
        target = [p.copy() for p in preds]  # equal rows, other arrays
        fused, _ = stack_and_fuse_rf(preds, truth, target, task=task, base_spec=spec,
                                     grid=grid)
        np.testing.assert_array_equal(fused, expected)
        assert len(calls) == len(chosen)  # one prediction per head
        calls.clear()
        stack_and_fuse_rf(preds, truth, [p[::-1] for p in preds], task=task,
                          base_spec=spec, grid=grid)
        assert len(calls) == 2 * len(chosen)

    def test_expr_overfit_gap_uses_oob_macro_f1(self):
        truth, preds, _, _ = self._noise_case()
        spec, grid = ForestSpec(n_trees=2, seed=61), [2, 6]
        _, info = stack_and_fuse_rf(preds, truth, preds, task="expr",
                                    base_spec=spec, grid=grid)
        x = _stack_features(preds)
        _, _, model = select_n_trees(x, truth, grid, spec, n_classes=3)
        oob = predict_oob(model, x)
        seen = ~np.isnan(oob[:, 0])
        expected = metrics.classification_report(
            truth[seen], oob[seen].argmax(axis=1), n_classes=3
        ).macro_f1
        assert info.metric == "macro_f1"
        assert info.oob_metric_score == expected
        assert info.oob_score == model.oob_score  # accuracy stays reported
        assert info.overfit_gap == info.dev_score - expected

    @pytest.mark.parametrize("task", ["expr", "va"])
    def test_dev_score_is_taken_on_the_rows_the_oob_score_sees(self, task):
        # with two trees about 40% of the rows are in both bootstraps, unseen by OOB
        truth, preds, va_truth, va_preds = self._noise_case()
        if task == "va":
            truth, preds = va_truth, va_preds
        spec, grid = ForestSpec(n_trees=2, seed=61), (2,)
        _, info = stack_and_fuse_rf(preds, truth, preds, task=task,
                                    base_spec=spec, grid=grid)
        x = _stack_features(preds)
        heads = ([(truth, spec, "classification")] if task == "expr" else
                 [(truth[:, j], replace(spec, seed=int(
                     np.random.SeedSequence([61, j]).generate_state(1)[0])), "regression")
                  for j in range(2)])
        scores = []
        for y, head_spec, forest_task in heads:
            _, _, model = select_n_trees(x, y, grid, head_spec, task=forest_task,
                                         n_classes=3 if task == "expr" else None)
            dev_out = predict_forest(model, x).reshape(len(y), -1)
            seen = ~np.isnan(predict_oob(model, x).reshape(len(y), -1)[:, 0])
            assert 0 < seen.sum() < len(y)
            if task == "va":
                dev_out = np.clip(dev_out, -1.0, 1.0)
            scores.append(metrics.challenge_score(y[seen], dev_out[seen], info.metric))
        assert info.dev_score == sum(scores) / len(scores)
        assert info.overfit_gap == info.dev_score - info.oob_metric_score

    @pytest.mark.parametrize("task", ["expr", "va"])
    def test_info_records_each_heads_trees_rows_seen_and_grid_scores(self, task):
        truth, preds, va_truth, va_preds = self._noise_case()
        if task == "va":
            truth, preds = va_truth, va_preds
        spec, grid = ForestSpec(n_trees=2, seed=61), [6, 2, 6]
        _, info = stack_and_fuse_rf(preds, truth, preds, task=task,
                                    base_spec=spec, grid=grid)
        x = _stack_features(preds)
        heads = ([(truth, spec, "classification")] if task == "expr" else
                 [(truth[:, j], replace(spec, seed=int(
                     np.random.SeedSequence([61, j]).generate_state(1)[0])), "regression")
                  for j in range(2)])
        assert len(info.head_trees) == len(heads) and info.n_rows == len(x)
        for j, (y, head_spec, forest_task) in enumerate(heads):
            n_trees, scores, model = select_n_trees(
                x, y, grid, head_spec, task=forest_task,
                n_classes=3 if task == "expr" else None)
            seen = ~np.isnan(predict_oob(model, x).reshape(len(y), -1)[:, 0])
            assert info.head_trees[j] == n_trees
            assert info.head_rows_seen[j] == seen.sum()
            assert info.head_grid_scores[j] == {6: scores[0], 2: scores[1]}
        assert info.n_trees == max(info.head_trees)
        if task == "va":  # the noise case gives its two heads two tree counts
            assert len(set(info.head_trees)) == 2

    def test_a_head_with_too_few_oob_rows_has_no_dev_or_oob_score(self):
        truth = np.array([[0.5, -0.5], [-0.5, 0.5], [0.25, 0.0]])
        preds = [truth.copy()]
        for seed in range(50):
            _, info = stack_and_fuse_rf(preds, truth, preds, task="va",
                                        base_spec=ForestSpec(n_trees=1, seed=seed),
                                        grid=(1,))
            if np.isnan(info.dev_score):
                break
        else:
            pytest.fail("no seed left a head with fewer than two OOB rows")
        assert np.isnan(info.oob_metric_score) and np.isnan(info.overfit_gap)

    def test_va_overfit_gap_uses_oob_mean_ccc(self):
        _, _, truth, preds = self._noise_case()
        spec, grid = ForestSpec(n_trees=2, seed=61), [2, 6]
        _, info = stack_and_fuse_rf(preds, truth, preds, task="va",
                                    base_spec=spec, grid=grid)
        x = _stack_features(preds)
        cccs = []
        for j in range(2):
            dim_seed = int(np.random.SeedSequence([61, j]).generate_state(1)[0])
            _, _, model = select_n_trees(x, truth[:, j], grid,
                                         replace(spec, seed=dim_seed), task="regression")
            oob = predict_oob(model, x)
            seen = ~np.isnan(oob)
            cccs.append(metrics.ccc(truth[seen, j], np.clip(oob[seen], -1, 1)).ccc)
        assert info.metric == "mean_ccc"
        assert info.oob_metric_score == sum(cccs) / 2
        assert info.overfit_gap == info.dev_score - sum(cccs) / 2

