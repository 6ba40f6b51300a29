"""Kernel Extreme Learning Machine: closed-form training and prediction.

Training solves the regularized system (I/C + K) beta = T over the
training kernel matrix, or (I/C + W K) beta = W T with a diagonal
instance-weight matrix W in the class-imbalance variant that weights
each instance inversely to its class count. The solve uses an LU
factorization, never an explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverError
from . import metrics

DEFAULT_C_GRID = tuple(10.0**k for k in range(-3, 4))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and parameters.

    gamma=None selects the 1/d default at training time.
    """

    kind: str = "rbf"  # "linear" | "rbf"
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def resolve(self, d: int) -> "KernelSpec":
        """Fill in the gamma default for a known input width."""
        if self.kind == "rbf" and self.gamma is None:
            return replace(self, gamma=1.0 / d)
        return self


def kernel_matrix(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel values K[i, j] = k(x_i, y_j).

    linear: inner products. rbf: exp(-gamma * ||x_i - y_j||^2), with
    gamma defaulting to 1/d. Symmetric positive semidefinite for x = y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("kernel inputs must be 2-d matrices")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"width mismatch: {x.shape[1]} vs {y.shape[1]}")
    if spec.kind == "linear":
        return x @ y.T
    spec = spec.resolve(x.shape[1])
    sq = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(y * y, axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    np.maximum(sq, 0.0, out=sq)  # rounding can leave tiny negatives
    return np.exp(-spec.gamma * sq)


def class_weights(labels) -> np.ndarray:
    """Instance weights inversely proportional to the class count."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.shape[0] < 1:
        raise ValueError("labels must be nonempty")
    counts = np.bincount(labels)
    return 1.0 / counts[labels]


def encode_classification_targets(labels, n_classes: int) -> np.ndarray:
    """One row per instance: +1 at the true class, -1 elsewhere."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels outside [0, {n_classes})")
    t = -np.ones((labels.shape[0], n_classes), dtype=np.float64)
    t[np.arange(labels.shape[0]), labels] = 1.0
    return t


@dataclass(frozen=True)
class KelmModel:
    """Trained model: training inputs, solved coefficients, and kernel."""

    D: np.ndarray
    beta: np.ndarray
    kernel: KernelSpec
    task: str  # "classification" | "regression"

    def __post_init__(self) -> None:
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.beta.shape[0] != self.D.shape[0]:
            raise ValueError("beta must have one row per training instance")
        if self.kernel.kind == "rbf" and self.kernel.gamma is None:
            raise ValueError("stored models must carry a resolved gamma")

    @property
    def n_outputs(self) -> int:
        return self.beta.shape[1]


def train_kelm(
    x: np.ndarray,
    targets: np.ndarray,
    c: float,
    kernel: KernelSpec = KernelSpec(),
    weights: np.ndarray | None = None,
    task: str = "regression",
) -> KelmModel:
    """Solve (I/C + K) beta = T, or (I/C + W K) beta = W T when weighted.

    The solution comes from a dense LU solve of the regularized system;
    the model keeps the training inputs for later kernel evaluation.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    n = x.shape[0]
    if n < 1 or targets.shape[0] != n:
        raise ValueError("targets must have one row per training instance")
    if c <= 0:
        raise ValueError("regularizer C must be positive")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(targets))):
        raise SolverError("non-finite values in features or targets")
    spec = kernel.resolve(x.shape[1])
    k = kernel_matrix(x, x, spec)
    a = np.eye(n) / c
    if weights is None:
        a += k
        rhs = targets
    else:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != n:
            raise ValueError("weights must have one entry per instance")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        a += weights[:, None] * k
        rhs = weights[:, None] * targets
    try:
        beta = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"regularized kernel system is singular (cond={np.linalg.cond(a):.3e}); "
            "check for non-finite features or a degenerate kernel"
        ) from exc
    if not np.all(np.isfinite(beta)):
        raise SolverError(
            f"solver produced non-finite coefficients (cond={np.linalg.cond(a):.3e})"
        )
    return KelmModel(D=x, beta=beta, kernel=spec, task=task)


def predict_kelm(model: KelmModel, x_test: np.ndarray) -> np.ndarray:
    """Scores K(x_test, D) @ beta; regression outputs clipped to [-1, 1]."""
    x_test = np.asarray(x_test, dtype=np.float64)
    if x_test.shape[1] != model.D.shape[1]:
        raise ValueError(
            f"width mismatch: test {x_test.shape[1]} vs model {model.D.shape[1]}"
        )
    scores = kernel_matrix(x_test, model.D, model.kernel) @ model.beta
    if model.task == "regression":
        scores = np.clip(scores, -1.0, 1.0)
    return scores


def predict_kelm_labels(model: KelmModel, x_test: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the smallest index."""
    if model.task != "classification":
        raise ValueError("labels are only defined for classification models")
    return predict_kelm(model, x_test).argmax(axis=1)


def select_c(
    x: np.ndarray,
    targets: np.ndarray,
    candidates,
    dev_x: np.ndarray,
    dev_targets: np.ndarray,
    metric: str,
    kernel: KernelSpec = KernelSpec(),
    weights: np.ndarray | None = None,
) -> tuple[float, float]:
    """Pick the regularizer with the best development-set score.

    metric='macro_f1' treats dev_targets as integer labels and targets
    as a +/-1 matrix; metric='mean_ccc' scores mean CCC over target
    columns. Ties resolve to the smallest C.
    """
    candidates = [float(c) for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if metric not in ("macro_f1", "mean_ccc"):
        raise ValueError(f"unknown metric {metric!r}")
    task = "classification" if metric == "macro_f1" else "regression"
    best_c = best_score = None
    for c in candidates:
        model = train_kelm(x, targets, c, kernel=kernel, weights=weights, task=task)
        score = score_predictions(model, dev_x, dev_targets, metric)
        if (
            best_score is None
            or score > best_score
            or (score == best_score and c < best_c)
        ):
            best_c, best_score = c, score
    return best_c, best_score


def score_predictions(
    model: KelmModel, dev_x: np.ndarray, dev_targets: np.ndarray, metric: str
) -> float:
    """Challenge metric of a model's predictions on a development split."""
    if metric == "macro_f1":
        pred = predict_kelm_labels(model, dev_x)
        report = metrics.classification_report(
            dev_targets, pred, n_classes=model.n_outputs
        )
        return report.macro_f1
    scores = predict_kelm(model, dev_x)
    dev_targets = np.asarray(dev_targets, dtype=np.float64)
    if dev_targets.ndim == 1:
        dev_targets = dev_targets[:, None]
    per_dim = [
        metrics.ccc(dev_targets[:, j], scores[:, j]).ccc
        for j in range(dev_targets.shape[1])
    ]
    return float(np.mean(per_dim))

