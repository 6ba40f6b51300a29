"""Kernel Extreme Learning Machine: closed-form training and prediction.

Training solves the regularized system (I/C + K) beta = T over the
training kernel matrix, or (I/C + W K) beta = W T with a diagonal
instance-weight matrix W in the class-imbalance variant that weights
each instance inversely to its class count. The solve uses an LU
factorization, never an explicit inverse.
"""

from __future__ import annotations

import math
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
    Inputs too large for the kernel give inf or NaN, which the solve refuses.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("kernel inputs must be 2-d matrices")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"width mismatch: {x.shape[1]} vs {y.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "linear":
            return x @ y.T
        spec = spec.resolve(x.shape[1])
        # the operations of exp(-gamma * (sx + sy - 2 x y')) in two n x m buffers
        sq = np.sum(x * x, axis=1)[:, None] + np.sum(y * y, axis=1)[None, :]
        g = x @ y.T
        g *= 2.0
        sq -= g
        np.maximum(sq, 0.0, out=sq)  # rounding can leave tiny negatives
        sq *= -spec.gamma
        return np.exp(sq, out=sq)


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


def _weighted_system(x, targets, kernel: KernelSpec, weights):
    """Validate the training inputs and build the system W K in place.

    Returns the float64 inputs, the resolved kernel, the system matrix,
    its diagonal and the right-hand side W T (T when unweighted). Adding
    1/C to the diagonal then gives the matrix I/C + W K.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    n = x.shape[0]
    if n < 1 or targets.shape[0] != n:
        raise ValueError("targets must have one row per training instance")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != n:
            raise ValueError("weights must have one entry per instance")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(targets))):
        raise SolverError("non-finite values in features or targets")
    spec = kernel.resolve(x.shape[1])
    a = kernel_matrix(x, x, spec)
    rhs = targets
    if weights is not None:
        a *= weights[:, None]
        rhs = weights[:, None] * targets
    if spec.kind == "linear":
        # I/C + W K turns an off-diagonal -0.0 into +0.0; exp never gives one
        a += 0.0
    return x, spec, a, a.diagonal().copy(), rhs


def regularizer_ok(c: float) -> bool:
    """Whether C > 0 and 1/C, the shift of the system's diagonal, is finite."""
    return c > 0 and math.isfinite(1.0 / float(c))


def _solve(a: np.ndarray, diag: np.ndarray, rhs: np.ndarray, c: float) -> np.ndarray:
    """beta of (I/C + W K) beta = W T, with 1/C + diag written into a."""
    np.fill_diagonal(a, 1.0 / c + diag)
    try:
        beta = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"regularized kernel system is singular ({_condition(a)}); "
            "check for non-finite features or a degenerate kernel"
        ) from exc
    if not np.all(np.isfinite(beta)):
        raise SolverError(f"solver produced non-finite coefficients ({_condition(a)})")
    return beta


def _condition(a: np.ndarray) -> str:
    """`a`'s condition number for an error message; cond needs a finite `a`."""
    if np.all(np.isfinite(a)):
        return f"cond={np.linalg.cond(a):.3e}"
    return "non-finite entries in the system, as from features too large for the kernel"


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
    if not regularizer_ok(c):
        raise ValueError(f"regularizer C must be positive with a finite 1/C, got {c!r}")
    x, spec, a, diag, rhs = _weighted_system(x, targets, kernel, weights)
    return KelmModel(D=x, beta=_solve(a, diag, rhs, c), kernel=spec, task=task)


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
    columns, of dev scores clipped to [-1, 1] as predict_kelm clips
    them. Each C scores with metrics.challenge_score; ties go to the
    smallest C (metrics.first_best over the sorted candidates).

    The train and dev kernels are built once; each C rewrites the
    system's diagonal and solves, so every score equals that of a model
    train_kelm fits at that C.
    """
    candidates = sorted(float(c) for c in candidates)
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if metric not in metrics.METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    bad = [c for c in candidates if not regularizer_ok(c)]
    if bad:
        raise ValueError(f"regularizer C must be positive with a finite 1/C, got {bad}")
    x, spec, a, diag, rhs = _weighted_system(x, targets, kernel, weights)
    dev_kernel = kernel_matrix(dev_x, x, spec)
    dev_scores = []
    for c in candidates:
        scores = dev_kernel @ _solve(a, diag, rhs, c)
        if metric == "mean_ccc":
            scores = np.clip(scores, -1.0, 1.0)  # as predict_kelm clips them
        dev_scores.append(metrics.challenge_score(dev_targets, scores, metric))
    best = metrics.first_best(dev_scores)
    return candidates[best], dev_scores[best]
