"""Challenge metrics: CCC, macro-F1 report, score formatting."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from affectpipe.metrics import (
    METRICS,
    ccc,
    challenge_score,
    challenge_score_va,
    classification_report,
    first_best,
    format_score,
    report_to_csv_rows,
    report_to_text,
    va_report,
    write_report,
)


class TestCcc:
    def test_perfect_agreement(self):
        assert ccc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).ccc == 1.0

    def test_perfect_disagreement_hand_case(self):
        out = ccc([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert out.mu_t == 2.0 and out.mu_p == 2.0
        np.testing.assert_allclose(out.sigma_t**2, 2.0 / 3.0)
        np.testing.assert_allclose(out.cov_tp, -2.0 / 3.0)
        assert out.ccc == -1.0

    def test_constant_vs_shifted_constant(self):
        # cov 0, denominator (mu_t - mu_p)^2 = 1 -> ccc 0
        assert ccc([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]).ccc == 0.0

    def test_identical_constants_define_perfect_agreement(self):
        assert ccc([0.4, 0.4], [0.4, 0.4]).ccc == 1.0

    def test_rejects_mismatch_and_short_series(self):
        with pytest.raises(ValueError):
            ccc([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            ccc([1.0], [1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.normal(size=30)
            p = rng.normal(size=30)
            assert ccc(t, p).ccc == ccc(p, t).ccc

    def test_never_exceeds_pearson_in_magnitude(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.normal(size=40)
            p = rng.normal(size=40) + 0.5 * t
            assert abs(ccc(t, p).ccc) <= abs(np.corrcoef(t, p)[0, 1]) + 1e-12

    def test_equals_pearson_when_moments_match(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=25)
        p = t[::-1].copy()  # same mean and variance, different pairing
        np.testing.assert_allclose(ccc(t, p).ccc, np.corrcoef(t, p)[0, 1], atol=1e-12)

    def test_invariant_to_common_shift(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=30)
        p = rng.normal(size=30)
        np.testing.assert_allclose(
            ccc(t + 2.5, p + 2.5).ccc, ccc(t, p).ccc, atol=1e-12
        )

    def test_matches_direct_formula_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            t = rng.normal(size=n)
            p = rng.normal(size=n)
            want = (
                2.0 * np.mean((t - t.mean()) * (p - p.mean()))
                / (t.var() + p.var() + (t.mean() - p.mean()) ** 2)
            )
            assert abs(ccc(t, p).ccc - want) < 1e-10

    def test_affine_rescaling_fools_correlation_but_not_ccc(self):
        t = np.array([1.0, 2.0, 3.0])
        p = 2.0 * t + 3.0
        np.testing.assert_allclose(np.corrcoef(t, p)[0, 1], 1.0, atol=1e-12)
        assert ccc(t, p).ccc < 1.0


class TestChallengeScore:
    def test_published_test_set_average(self):
        assert challenge_score_va(0.523, 0.626) == 0.5745
        assert format_score(challenge_score_va(0.523, 0.626)) == "0.574"

    def test_published_dev_set_average(self):
        assert format_score(challenge_score_va(0.398, 0.581)) == "0.489"

    def test_mean_of_equal_inputs(self):
        assert challenge_score_va(0.3, 0.3) == 0.3

    def test_range_validation(self):
        with pytest.raises(ValueError):
            challenge_score_va(1.5, 0.0)


def _bits(value):
    return np.float64(value).tobytes()


class TestChallengeScoreOfScores:
    @pytest.mark.parametrize("seed, n, k", [(0, 40, 8), (1, 7, 3), (2, 200, 2), (3, 1, 5)])
    def test_macro_f1_equals_the_report_of_the_argmax(self, seed, n, k):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, k, size=n)
        # a 0.5 grid makes rows tie, where the first maximum is the label
        scores = rng.integers(-2, 3, size=(n, k)) * 0.5
        want = classification_report(truth, scores.argmax(axis=1), n_classes=k).macro_f1
        assert _bits(challenge_score(truth, scores, "macro_f1")) == _bits(want)

    @pytest.mark.parametrize("seed, n, k", [(4, 50, 2), (5, 9, 1), (6, 300, 3)])
    def test_mean_ccc_is_the_sum_over_len_of_the_column_cccs(self, seed, n, k):
        rng = np.random.default_rng(seed)
        truth = rng.uniform(-1, 1, size=(n, k))
        planes = truth.T + rng.normal(scale=0.4, size=(k, n))
        scores = planes.T  # strided columns, as the DWF search passes them
        assert not scores.flags.c_contiguous or k == 1
        values = [ccc(truth[:, j], planes[j]).ccc for j in range(k)]
        got = challenge_score(truth, scores, "mean_ccc")
        assert _bits(got) == _bits(sum(values) / len(values))
        assert _bits(got) == _bits(np.mean(values))
        contiguous = challenge_score(truth, np.ascontiguousarray(scores), "mean_ccc")
        assert _bits(contiguous) == _bits(got)

    def test_one_dimensional_truth_is_one_column(self):
        rng = np.random.default_rng(7)
        truth = rng.uniform(-1, 1, size=30)
        scores = (truth + rng.normal(scale=0.3, size=30))[:, None]
        assert challenge_score(truth, scores, "mean_ccc") == ccc(truth, scores[:, 0]).ccc

    def test_unknown_metric_rejected(self):
        assert METRICS == ("macro_f1", "mean_ccc")
        with pytest.raises(ValueError, match="unknown metric 'auc'"):
            challenge_score([0, 1], np.eye(2), "auc")


class TestFirstBest:
    def test_first_of_tied_scores_wins(self):
        assert first_best([0.2, 0.7, 0.1, 0.7]) == 1
        assert first_best(np.array([3.0, 3.0])) == 0

    def test_nan_loses_to_any_number(self):
        nan = float("nan")
        assert first_best([nan, 0.5, nan]) == 1
        assert first_best([nan, -np.inf]) == 1
        assert first_best([-1.0, nan, -1.0]) == 0

    def test_all_nan_gives_zero(self):
        assert first_best([float("nan")] * 3) == 0


class TestFormatScore:
    def test_truncates_toward_zero(self):
        assert format_score(0.5745) == "0.574"
        assert format_score(-0.5745) == "-0.574"
        assert format_score(0.9999) == "0.999"

    def test_exact_values_unchanged(self):
        assert format_score(1.0) == "1.000"
        assert format_score(0.5) == "0.500"

    def test_decimals_parameter(self):
        assert format_score(0.56789, decimals=2) == "0.56"


class TestClassificationReport:
    def test_perfect_one_of_each(self):
        labels = list(range(5))
        report = classification_report(labels, labels, n_classes=5)
        assert report.macro_f1 == 1.0 and report.accuracy == 1.0

    def test_hand_confusion_case(self):
        report = classification_report([0, 0, 1, 1], [0, 0, 0, 0], n_classes=2)
        c0, c1 = report.per_class
        assert c0.precision == 0.5 and c0.recall == 1.0
        np.testing.assert_allclose(c0.f1, 2.0 / 3.0)
        assert c1.precision == c1.recall == c1.f1 == 0.0
        np.testing.assert_allclose(report.macro_f1, 1.0 / 3.0)
        assert report.accuracy == 0.5
        np.testing.assert_allclose(report.macro_precision, 0.25)
        np.testing.assert_allclose(report.macro_recall, 0.5)

    def test_never_correct(self):
        report = classification_report([0, 0, 0], [1, 1, 1], n_classes=2)
        assert report.accuracy == 0.0 and report.macro_f1 == 0.0

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            classification_report([0, 2], [0, 1], n_classes=2)

    def test_absent_classes_count_as_zero_by_default(self):
        report = classification_report([0, 0], [0, 0], n_classes=4)
        np.testing.assert_allclose(report.macro_f1, 0.25)

    def test_relabeling_permutation_invariance(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 4, size=100)
        pred = rng.integers(0, 4, size=100)
        base = classification_report(truth, pred, n_classes=4)
        perm = rng.permutation(4)
        swapped = classification_report(perm[truth], perm[pred], n_classes=4)
        np.testing.assert_allclose(swapped.macro_f1, base.macro_f1, atol=1e-15)
        np.testing.assert_allclose(swapped.accuracy, base.accuracy, atol=1e-15)

    def test_concatenation_accuracy_is_support_weighted_mean(self):
        rng = np.random.default_rng(6)
        parts = []
        for n in (30, 50, 20):
            truth = rng.integers(0, 3, size=n)
            pred = rng.integers(0, 3, size=n)
            parts.append((truth, pred))
        pooled_truth = np.concatenate([t for t, _ in parts])
        pooled_pred = np.concatenate([p for _, p in parts])
        pooled = classification_report(pooled_truth, pooled_pred, n_classes=3)
        weighted = sum(
            len(t) * classification_report(t, p, n_classes=3).accuracy
            for t, p in parts
        ) / len(pooled_truth)
        np.testing.assert_allclose(pooled.accuracy, weighted, atol=1e-12)


class TestVaReport:
    def test_identity_predictions(self):
        rng = np.random.default_rng(7)
        truth = np.clip(rng.normal(scale=0.4, size=(60, 2)), -1, 1)
        report = va_report(truth, truth)
        assert report.ccc_mean == 1.0
        assert report.challenge_score == 1.0

    def test_mean_of_dimensions(self):
        rng = np.random.default_rng(8)
        truth = np.clip(rng.normal(scale=0.4, size=(60, 2)), -1, 1)
        pred = np.clip(truth + rng.normal(scale=0.1, size=(60, 2)), -1, 1)
        report = va_report(truth, pred)
        np.testing.assert_allclose(
            report.ccc_mean, (report.ccc_valence + report.ccc_arousal) / 2.0
        )


class TestReportOutput:
    def test_text_names_the_scores(self):
        report = classification_report([0, 1], [0, 1], n_classes=2)
        text = report_to_text(report)
        assert "macro_f1" in text and "accuracy" in text

    def test_csv_rows_parse_back(self, tmp_path):
        report = classification_report([0, 0, 1, 1], [0, 0, 0, 0], n_classes=2)
        rows = report_to_csv_rows(report)
        assert ["metric", "value"] == rows[0]
        text_path = tmp_path / "report.txt"
        csv_path = tmp_path / "report.csv"
        write_report(report, text_path, csv_path)
        with open(csv_path, newline="") as fh:
            parsed = list(csv.reader(fh))
        lookup = {row[0]: row[1] for row in parsed if len(row) == 2}
        np.testing.assert_allclose(float(lookup["macro_f1"]), 1.0 / 3.0)
        # LF line ends; the field holding commas is quoted
        written = csv_path.read_bytes()
        assert b"\r" not in written
        assert b'\nclass,"precision,recall,f1,support"\nclass_0,' in written

    def test_va_report_text(self):
        rng = np.random.default_rng(9)
        truth = np.clip(rng.normal(scale=0.3, size=(30, 2)), -1, 1)
        text = report_to_text(va_report(truth, truth))
        assert "ccc_mean" in text and "valence" in text.lower()
