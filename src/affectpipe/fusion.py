"""Late fusion of aligned base-model scores.

Three strategies over M models, each giving a (q, K) score array (q
frames; K = 8 class scores or 2 valence/arousal dimensions); every
function takes and returns plain arrays:

* random weighted fusion — a large pool of per-model-per-output weight
  matrices with simplex columns is sampled from a Dirichlet
  distribution, every matrix is scored on a development set, and the
  best one wins;
* random-forest stacking — the concatenated score vectors become
  features for a forest fit on the development split, with the tree
  count chosen by out-of-bag score;
* an unweighted mean baseline.

Pure single-model selector matrices are always appended to sampled
pools, so the searched fusion can never score below the best single
model on the development set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics
from .errors import AlignmentError
from .forest import ForestSpec, predict_forest, predict_oob, select_n_trees

SIMPLEX_ATOL = 1e-9


def _simplex_weights(weights, ndim: int, shape: str) -> np.ndarray:
    """A read-only float64 copy of weights whose columns (axis -2) lie on
    the simplex, checked for all of them at once."""
    w = np.array(weights, dtype=np.float64)
    if w.ndim != ndim or w.size == 0:
        raise ValueError(f"weights must be a nonempty {shape} array")
    if np.any(w < -SIMPLEX_ATOL):
        raise ValueError("weights must be nonnegative")
    if np.any(np.abs(w.sum(axis=-2) - 1.0) > SIMPLEX_ATOL):
        raise ValueError("every weight column must sum to 1")
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class FusionMatrix:
    """Per-model, per-output weights; every column lives on the simplex."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _simplex_weights(self.weights, 2, "M x K"))

    @property
    def n_models(self) -> int:
        return self.weights.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[1]


def selector_matrix(model_index: int, n_models: int, n_outputs: int) -> FusionMatrix:
    """The matrix that copies one model's scores through unchanged."""
    if not 0 <= model_index < n_models:
        raise ValueError("model_index out of range")
    w = np.zeros((n_models, n_outputs))
    w[model_index] = 1.0
    return FusionMatrix(w)


def uniform_matrix(n_models: int, n_outputs: int) -> FusionMatrix:
    return FusionMatrix(np.full((n_models, n_outputs), 1.0 / n_models))


@dataclass(frozen=True)
class FusionPool:
    """P fusion matrices as one read-only (P, M, K) weight array."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _simplex_weights(self.weights, 3, "P x M x K"))

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def matrices(self) -> tuple:
        """The pool's rows as FusionMatrix objects, built on each access."""
        return tuple(FusionMatrix(w) for w in self.weights)


def sample_pool(
    n_models: int,
    n_outputs: int,
    pool_size: int = 10_000,
    alpha: float = 1.0,
    seed: int = 0,
) -> FusionPool:
    """pool_size Dirichlet-sampled matrices plus the M selectors.

    Columns are drawn independently as normalized Gamma(alpha) vectors,
    the standard Dirichlet construction. Deterministic given the seed.
    """
    if n_models < 1 or n_outputs < 1:
        raise ValueError("model and output counts must be positive")
    if pool_size < 1:
        raise ValueError("pool_size must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    g = rng.gamma(shape=alpha, scale=1.0, size=(pool_size, n_models, n_outputs))
    sums = g.sum(axis=1, keepdims=True)
    # a column of all-zero draws (possible only for tiny alpha) falls
    # back to uniform weights instead of dividing by zero
    degenerate = sums == 0.0
    if degenerate.any():
        g = np.where(np.broadcast_to(degenerate, g.shape), 1.0, g)
        sums = g.sum(axis=1, keepdims=True)
    g /= sums
    selectors = np.repeat(np.eye(n_models)[:, :, None], n_outputs, axis=2)
    return FusionPool(np.concatenate([g, selectors]))


def _aligned_arrays(preds) -> list[np.ndarray]:
    """Validate that M (frames x outputs) score arrays share one shape."""
    if not preds:
        raise ValueError("need at least one prediction track")
    arrays = [np.asarray(pred, dtype=np.float64) for pred in preds]
    shape = arrays[0].shape
    for i, arr in enumerate(arrays):
        if arr.ndim != 2:
            raise ValueError("prediction tracks must be 2-d (frames x outputs)")
        if arr.shape != shape:
            raise AlignmentError(
                f"model {i} track has shape {arr.shape}, expected {shape}"
            )
    return arrays


def apply_fusion(preds, matrix: FusionMatrix, task: str = "expr") -> np.ndarray:
    """fused[t, k] = sum_m weights[m, k] * preds_m[t, k].

    Class scores (task 'expr') are left unnormalized, since the argmax
    is unchanged either way; valence/arousal outputs (task 'va') are
    clipped to [-1, 1].
    """
    if task not in ("expr", "va"):
        raise ValueError(f"unknown task {task!r}")
    stacked = np.stack(_aligned_arrays(preds))
    if stacked.shape[0] != matrix.n_models or stacked.shape[2] != matrix.n_outputs:
        raise ValueError(
            f"matrix is {matrix.n_models}x{matrix.n_outputs} but tracks are "
            f"{stacked.shape[0]} models x {stacked.shape[2]} outputs"
        )
    fused = np.einsum("mqk,mk->qk", stacked, matrix.weights)
    return np.clip(fused, -1.0, 1.0) if task == "va" else fused


def mean_fusion(preds, task: str = "expr") -> np.ndarray:
    """Unweighted mean of all models, as fusion with uniform weights."""
    arrays = _aligned_arrays(preds)
    return apply_fusion(
        arrays, uniform_matrix(len(arrays), arrays[0].shape[1]), task=task
    )


def _mean_ccc(truth: np.ndarray, outputs) -> float:
    """Mean over outputs of metrics.ccc; outputs[j] is output j's series."""
    values = [metrics.ccc(truth[:, j], p).ccc for j, p in enumerate(outputs)]
    return sum(values) / len(values)


def _pool_scores(planes: np.ndarray, truth: np.ndarray, metric: str, weights):
    """The dev score of every (M, K) weight row from the (M, K, q) class planes."""
    if metric == "mean_ccc":
        return np.array([
            _mean_ccc(truth, np.einsum("mkq,mk->kq", planes, w)) for w in weights
        ])
    n_classes, q = planes.shape[1:]
    tp = np.empty((len(weights), n_classes), dtype=np.int64)
    predicted = np.empty_like(tp)
    labels = np.empty(q, dtype=np.int64)
    cells = truth * n_classes
    diagonal = np.arange(n_classes) * (n_classes + 1)
    for i, w in enumerate(weights):
        fused = np.einsum("mkq,mk->kq", planes, w)
        top = fused.max(axis=0)
        # walking down to class 0 leaves each frame on its first maximum
        labels.fill(n_classes - 1)
        for c in range(n_classes - 2, -1, -1):
            labels[fused[c] == top] = c
        confusion = np.bincount(cells + labels, minlength=n_classes * n_classes)
        tp[i] = confusion[diagonal]
        predicted[i] = confusion.reshape(n_classes, n_classes).sum(axis=0)
    support = np.bincount(truth, minlength=n_classes)
    _, _, f1 = metrics.precision_recall_f1(tp, predicted, support)
    return f1.mean(axis=1)


def dwf_search(
    pool: FusionPool, dev_preds, dev_truth, metric: str
) -> tuple[FusionMatrix, float, np.ndarray]:
    """Score every pool matrix on the development set; return the best.

    metric='macro_f1' expects integer dev labels in [0, K); 'mean_ccc'
    expects a q x K target matrix. Predictions and truth must be finite.

    The M dev tracks are held once as (M, K, q) class planes, and each
    matrix fuses them into K planes. For macro_f1 a frame's label is its
    first maximal class, as argmax picks it; one bincount per matrix
    gives the true positives and predicted totals per class, and all
    matrices are then scored at once with the arithmetic of
    metrics.classification_report, so every score equals that report's
    macro_f1. mean_ccc averages metrics.ccc over the K outputs. The
    winner is the first matrix with the highest score, so ties go to the
    earliest in pool order. Also returns the full score table aligned
    with the pool.
    """
    if metric not in ("macro_f1", "mean_ccc"):
        raise ValueError(f"unknown metric {metric!r}")
    planes = np.array([arr.T for arr in _aligned_arrays(dev_preds)])
    n_models, n_outputs, q = planes.shape
    if metric == "macro_f1":
        truth = np.asarray(dev_truth).ravel()
    else:
        truth = np.asarray(dev_truth, dtype=np.float64)
        if truth.ndim != 2 or truth.shape[1] != n_outputs:
            raise ValueError("mean_ccc truth must be a q x K matrix")
    if truth.shape[0] != q:
        raise AlignmentError(
            f"dev truth has {truth.shape[0]} frames but predictions have {q}"
        )
    if not np.isfinite(planes).all():
        raise ValueError("dev predictions contain non-finite values")
    if not np.isfinite(truth).all():
        raise ValueError("dev truth contains non-finite values")
    if metric == "macro_f1":
        truth = truth.astype(np.int64, copy=False)
        if truth.min() < 0 or truth.max() >= n_outputs:
            raise ValueError(f"y_true contains labels outside [0, {n_outputs})")
    pool_models, pool_outputs = pool.weights.shape[1:]
    if (pool_models, pool_outputs) != (n_models, n_outputs):
        raise ValueError(
            f"matrix is {pool_models}x{pool_outputs} but tracks are "
            f"{n_models} models x {n_outputs} outputs"
        )
    if n_models == 1 and (pool.weights == 1.0).all():
        # one model: every simplex column is [1.0], so every matrix is the
        # selector, all score alike and the first one wins
        score = _pool_scores(planes, truth, metric, pool.weights[:1])[0]
        return FusionMatrix(pool.weights[0]), float(score), np.full(len(pool), score)
    scores = _pool_scores(planes, truth, metric, pool.weights)
    best = int(np.argmax(scores))
    return FusionMatrix(pool.weights[best]), float(scores[best]), scores


@dataclass(frozen=True)
class RfFusionInfo:
    """Diagnostics from forest stacking.

    oob_score is the forest's own out-of-bag estimate (accuracy or
    negative MSE, averaged over va dimensions). oob_metric_score scores
    the out-of-bag predictions with the challenge metric `metric`
    (macro_f1 or mean_ccc), on the rows some tree left out; dev_score is
    that metric on the split the forest was fit on, so a large
    dev-minus-OOB gap signals overfitting.
    """

    n_trees: int
    oob_score: float
    grid_scores: tuple
    dev_score: float
    metric: str
    oob_metric_score: float

    @property
    def overfit_gap(self) -> float:
        return self.dev_score - self.oob_metric_score


def _stack_features(preds) -> np.ndarray:
    """Row t holds every model's scores for frame t, model after model."""
    return np.hstack(_aligned_arrays(preds))


def stack_and_fuse_rf(
    dev_preds,
    dev_truth,
    target_preds,
    task: str,
    base_spec: ForestSpec | None = None,
    grid=(10, 20, 50, 100, 200),
):
    """Forest stacking: concatenate model scores, fit on the dev split.

    The tree count is chosen by out-of-bag score on the dev features;
    the returned (q, K) array holds forest predictions for the target split
    (class-frequency scores for expr, per-dimension regression for va).
    """
    if task not in ("expr", "va"):
        raise ValueError(f"unknown task {task!r}")
    if base_spec is None:
        base_spec = ForestSpec(n_trees=10)
    x_dev = _stack_features(dev_preds)
    x_target = _stack_features(target_preds)
    if x_target.shape[1] != x_dev.shape[1]:
        raise AlignmentError(
            f"target width {x_target.shape[1]} != dev width {x_dev.shape[1]}"
        )
    if task == "expr":
        truth = np.asarray(dev_truth, dtype=np.int64).ravel()
        n_classes = x_dev.shape[1] // len(dev_preds)
        best_n, grid_scores, model = select_n_trees(
            x_dev, truth, grid, base_spec, task="classification", n_classes=n_classes
        )
        fused = predict_forest(model, x_target)
        dev_labels = predict_forest(model, x_dev).argmax(axis=1)
        dev_score = metrics.classification_report(
            truth, dev_labels, n_classes=n_classes
        ).macro_f1
        oob = predict_oob(model, x_dev)
        seen = ~np.isnan(oob[:, 0])
        oob_f1 = (
            metrics.classification_report(
                truth[seen], oob[seen].argmax(axis=1), n_classes=n_classes
            ).macro_f1
            if seen.any()
            else float("nan")
        )
        info = RfFusionInfo(
            best_n, model.oob_score, tuple(grid_scores), dev_score, "macro_f1", oob_f1
        )
        return fused, info

    truth = np.asarray(dev_truth, dtype=np.float64)
    if truth.ndim != 2:
        raise ValueError("va truth must be a q x 2 matrix")
    n_dims = truth.shape[1]
    fused_cols = []
    dev_cols = []
    chosen = []
    oob_sum = 0.0
    oob_cccs = []
    grid_table = []
    for j in range(n_dims):
        # each output dimension gets its own forest and derived seed
        dim_seed = int(np.random.SeedSequence([base_spec.seed, j]).generate_state(1)[0])
        dim_spec = replace(base_spec, seed=dim_seed)
        best_n, grid_scores, model = select_n_trees(
            x_dev, truth[:, j], grid, dim_spec, task="regression"
        )
        fused_cols.append(np.clip(predict_forest(model, x_target), -1.0, 1.0))
        dev_cols.append(np.clip(predict_forest(model, x_dev), -1.0, 1.0))
        oob = predict_oob(model, x_dev)
        seen = ~np.isnan(oob)
        oob_cccs.append(
            metrics.ccc(truth[seen, j], np.clip(oob[seen], -1.0, 1.0)).ccc
            if seen.sum() >= 2
            else float("nan")
        )
        chosen.append(best_n)
        oob_sum += model.oob_score
        grid_table.append(tuple(grid_scores))
    fused = np.column_stack(fused_cols)
    dev_score = _mean_ccc(truth, dev_cols)
    info = RfFusionInfo(
        n_trees=max(chosen),
        oob_score=oob_sum / n_dims,
        grid_scores=tuple(grid_table),
        dev_score=dev_score,
        metric="mean_ccc",
        oob_metric_score=sum(oob_cccs) / n_dims,
    )
    return fused, info


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def write_fusion_matrix(
    path: str | Path, matrix: FusionMatrix, model_names=None, output_names=None
) -> None:
    """CSV with one row per model and one column per output."""
    if model_names is None:
        model_names = [f"model{m}" for m in range(matrix.n_models)]
    if output_names is None:
        output_names = [f"out{k}" for k in range(matrix.n_outputs)]
    if len(model_names) != matrix.n_models or len(output_names) != matrix.n_outputs:
        raise ValueError("name lists must match the matrix shape")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", *output_names])
        for name, row in zip(model_names, matrix.weights):
            writer.writerow([name, *("%.17g" % v for v in row)])


def write_score_table(path: str | Path, scores: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pool_index", "score"])
        for i, s in enumerate(np.asarray(scores)):
            writer.writerow([i, "%.17g" % s])
