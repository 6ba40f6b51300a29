"""Challenge evaluation: concordance correlation, macro-F1, and reports.

CCC uses population (1/n) moments throughout; the sample-vs-population
choice cancels only asymptotically, and fixing it keeps the tests
exact. The challenge aggregate for dimensional emotion is the plain
mean of the valence and arousal CCCs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CccBreakdown:
    """Moments behind one CCC value (population convention)."""

    mu_t: float
    mu_p: float
    sigma_t: float
    sigma_p: float
    cov_tp: float
    ccc: float


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle for one evaluation run.

    Classification fields are None for the va task and vice versa.
    """

    task: str
    per_class: tuple[ClassScores, ...] | None = None
    macro_f1: float | None = None
    macro_precision: float | None = None
    macro_recall: float | None = None
    accuracy: float | None = None
    ccc_valence: float | None = None
    ccc_arousal: float | None = None
    ccc_mean: float | None = None

    @property
    def challenge_score(self) -> float:
        """The task's headline number: macro-F1 or mean CCC."""
        score = self.macro_f1 if self.task == "expr" else self.ccc_mean
        assert score is not None
        return score


def _as_series(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d series")
    return arr


def ccc(t, p) -> CccBreakdown:
    """Concordance correlation coefficient of truth t and prediction p.

    ccc = 2*cov(t, p) / (var(t) + var(p) + (mean(t) - mean(p))^2) with
    population moments. When both series are the same constant the
    formula is 0/0; that is perfect agreement, so 1.0 is returned.
    """
    t, p = _as_series(t, "t"), _as_series(p, "p")
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape[0]} vs {p.shape[0]}")
    if t.shape[0] < 2:
        raise ValueError("ccc needs at least 2 samples")
    mu_t, mu_p = t.mean(), p.mean()
    dt, dp = t - mu_t, p - mu_p
    var_t, var_p = (dt * dt).mean(), (dp * dp).mean()
    cov_tp = (dt * dp).mean()
    denom = var_t + var_p + (mu_t - mu_p) ** 2
    if denom == 0.0:
        value = 1.0
    else:
        value = float(np.clip(2.0 * cov_tp / denom, -1.0, 1.0))
    return CccBreakdown(
        mu_t=float(mu_t),
        mu_p=float(mu_p),
        sigma_t=float(np.sqrt(var_t)),
        sigma_p=float(np.sqrt(var_p)),
        cov_tp=float(cov_tp),
        ccc=value,
    )


def pearson(t, p) -> float:
    """Centered correlation; undefined (raises) for constant series."""
    t, p = _as_series(t, "t"), _as_series(p, "p")
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape[0]} vs {p.shape[0]}")
    if t.shape[0] < 2:
        raise ValueError("pearson needs at least 2 samples")
    dt, dp = t - t.mean(), p - p.mean()
    var_t = (dt * dt).mean()
    var_p = (dp * dp).mean()
    if var_t == 0.0 or var_p == 0.0:
        raise ValueError("pearson is undefined for constant series")
    # sqrt of the product (not the product of sqrts) keeps the
    # self-correlation exactly 1.0
    return float(np.clip((dt * dp).mean() / np.sqrt(var_t * var_p), -1.0, 1.0))


def challenge_score_va(ccc_valence: float, ccc_arousal: float) -> float:
    """Challenge aggregate for dimensional emotion: the arithmetic mean."""
    if not (-1.0 <= ccc_valence <= 1.0 and -1.0 <= ccc_arousal <= 1.0):
        raise ValueError("CCC inputs must lie in [-1, 1]")
    return (ccc_valence + ccc_arousal) / 2.0


def format_score(value: float, decimals: int = 3) -> str:
    """Format a score the way the challenge tables report it.

    Values are truncated toward zero at the given number of decimals:
    the published tables carry 0.5745 as 0.574 and 0.4895 as 0.489,
    which plain round-half-up printing would not reproduce.
    """
    scale = 10**decimals
    truncated = int(value * scale) / scale
    return f"{truncated:.{decimals}f}"


def precision_recall_f1(tp, predicted, support):
    """Per-class precision, recall and F1 from counts.

    tp, predicted and support hold the true positives, the predicted
    totals and the truth totals per class, with K last in shapes that
    broadcast together. An empty denominator gives 0.
    """
    tp = np.asarray(tp, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        precision = np.where(predicted > 0, tp / np.maximum(predicted, 1), 0.0)
        recall = np.where(support > 0, tp / np.maximum(support, 1), 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2 * precision * recall / np.maximum(pr, 1e-300), 0.0)
    return precision, recall, f1


def classification_report(y_true, y_pred, n_classes: int) -> EvalReport:
    """Per-class precision/recall/F1 plus macro averages and accuracy.

    Undefined precision, recall, or F1 (empty denominators) count as 0.
    Macro averages run over all n_classes, including classes absent
    from the data.
    """
    y_true = np.asarray(y_true, dtype=np.int64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.int64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape[0]} vs {y_pred.shape[0]}")
    if y_true.shape[0] < 1:
        raise ValueError("classification_report needs at least 1 sample")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValueError(f"{name} contains labels outside [0, {n_classes})")
    confusion = np.bincount(
        y_true * n_classes + y_pred, minlength=n_classes * n_classes
    ).reshape(n_classes, n_classes)
    support = confusion.sum(axis=1)
    precision, recall, f1 = precision_recall_f1(
        np.diag(confusion), confusion.sum(axis=0), support
    )
    per_class = tuple(
        ClassScores(float(precision[k]), float(recall[k]), float(f1[k]), int(support[k]))
        for k in range(n_classes)
    )
    return EvalReport(
        task="expr",
        per_class=per_class,
        macro_f1=float(f1.mean()),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        accuracy=float((y_true == y_pred).mean()),
    )


def va_report(truth: np.ndarray, pred: np.ndarray) -> EvalReport:
    """CCC per dimension plus the challenge mean, over pooled frames."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape or truth.ndim != 2 or truth.shape[1] != 2:
        raise ValueError("truth and pred must both have shape (n, 2)")
    ccc_v = ccc(truth[:, 0], pred[:, 0]).ccc
    ccc_a = ccc(truth[:, 1], pred[:, 1]).ccc
    return EvalReport(
        task="va",
        ccc_valence=ccc_v,
        ccc_arousal=ccc_a,
        ccc_mean=challenge_score_va(ccc_v, ccc_a),
    )


# ---------------------------------------------------------------------------
# Report emission: human-readable text and metric,value CSV.
# ---------------------------------------------------------------------------


def report_to_text(report: EvalReport) -> str:
    lines = [f"task: {report.task}"]
    if report.task == "expr":
        lines.append(f"macro_f1:        {format_score(report.macro_f1)}")
        lines.append(f"macro_precision: {format_score(report.macro_precision)}")
        lines.append(f"macro_recall:    {format_score(report.macro_recall)}")
        lines.append(f"accuracy:        {format_score(report.accuracy)}")
        lines.append("class  precision  recall  f1      support")
        for k, scores in enumerate(report.per_class):
            lines.append(
                f"{k:<6d} {scores.precision:<10.4f} {scores.recall:<7.4f} "
                f"{scores.f1:<7.4f} {scores.support}"
            )
    else:
        lines.append(f"ccc_mean:    {format_score(report.ccc_mean)}")
        lines.append(f"ccc_valence: {format_score(report.ccc_valence)}")
        lines.append(f"ccc_arousal: {format_score(report.ccc_arousal)}")
    return "\n".join(lines) + "\n"


def report_to_csv_rows(report: EvalReport) -> list[list[str]]:
    rows = [["metric", "value"]]
    if report.task == "expr":
        rows.append(["macro_f1", "%.17g" % report.macro_f1])
        rows.append(["macro_precision", "%.17g" % report.macro_precision])
        rows.append(["macro_recall", "%.17g" % report.macro_recall])
        rows.append(["accuracy", "%.17g" % report.accuracy])
        rows.append(["class", "precision,recall,f1,support"])
        for k, scores in enumerate(report.per_class):
            rows.append(
                [
                    f"class_{k}",
                    "%.17g,%.17g,%.17g,%d"
                    % (scores.precision, scores.recall, scores.f1, scores.support),
                ]
            )
    else:
        rows.append(["ccc_mean", "%.17g" % report.ccc_mean])
        rows.append(["ccc_valence", "%.17g" % report.ccc_valence])
        rows.append(["ccc_arousal", "%.17g" % report.ccc_arousal])
    return rows


def write_report(report: EvalReport, text_path: str | Path, csv_path: str | Path) -> None:
    Path(text_path).write_text(report_to_text(report), encoding="utf-8")
    with Path(csv_path).open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(report_to_csv_rows(report))
