"""Late fusion of aligned base-model scores.

Three strategies over M models, each giving a (q, K) score array (q
frames; K = 8 class scores or 2 valence/arousal dimensions); every
function takes and returns arrays, or records of them, and opens no file:

* random weighted fusion — a large pool of per-model-per-output weight
  matrices with simplex columns is sampled from a Dirichlet
  distribution, every matrix is scored on a development set, and the
  best one wins;
* random-forest stacking — the concatenated score vectors become
  features for forest heads fit on the development split (one
  classification forest for expr, one regression forest per va
  dimension), each with its tree count chosen by out-of-bag score;
* an unweighted mean baseline.

Pure single-model selector matrices are always appended to sampled
pools, so the searched fusion can never score below the best single
model on the development set. Every development-set score is
metrics.challenge_score, or for DWF macro-F1 its batched equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .errors import AlignmentError
from .forest import (DEFAULT_TREE_GRID, ForestSpec, predict_forest, predict_oob,
                     select_n_trees)

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


def _pool_scores(planes: np.ndarray, truth: np.ndarray, metric: str, weights):
    """The dev score of every (M, K) weight row from the (M, K, q) class planes."""
    if metric == "mean_ccc":
        return np.array([
            metrics.challenge_score(truth, np.einsum("mkq,mk->kq", planes, w).T, metric)
            for w in weights
        ])
    n_classes, q = planes.shape[1:]
    tp = np.empty((len(weights), n_classes), dtype=np.int64)
    predicted = np.empty_like(tp)
    # class c marks a maximal frame with K - c, so the highest mark is the
    # first maximum, as argmax picks it; the dtype must hold K
    mark_type = np.min_scalar_type(n_classes)
    rank = np.arange(n_classes, 0, -1, dtype=mark_type)[:, None]
    fused = np.empty((n_classes, q))
    top = np.empty(q)
    hit = np.empty((n_classes, q), dtype=bool)
    marks = np.empty((n_classes, q), dtype=mark_type)
    first = np.empty(q, dtype=mark_type)
    # truth * K + label, with label = K - first
    cells = truth * n_classes + n_classes
    diagonal = np.arange(n_classes) * (n_classes + 1)
    for i, w in enumerate(weights):
        np.einsum("mkq,mk->kq", planes, w, out=fused)
        np.max(fused, axis=0, out=top)
        np.equal(fused, top, out=hit)
        np.multiply(hit, rank, out=marks)
        np.max(marks, axis=0, out=first)
        confusion = np.bincount(cells - first, minlength=n_classes * n_classes)
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
    metrics.classification_report, so every score equals
    metrics.challenge_score's. mean_ccc scores each matrix's fused
    planes with metrics.challenge_score, unclipped. metrics.first_best
    picks the winner in pool order, so ties go to the earliest matrix.
    Also returns the full score table aligned with the pool.
    """
    if metric not in metrics.METRICS:
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
    best = metrics.first_best(scores)
    return FusionMatrix(pool.weights[best]), float(scores[best]), scores


@dataclass(frozen=True)
class RfFusionInfo:
    """Diagnostics from forest stacking.

    oob_score is the forests' own out-of-bag estimate (accuracy or
    negative MSE, averaged over va dimensions). oob_metric_score scores
    the out-of-bag predictions with the challenge metric `metric`
    (macro_f1 or mean_ccc), on the rows some tree left out; dev_score
    scores the forests' full predictions of those same rows, which they
    were fit on, so a large dev-minus-OOB gap signals overfitting. Both
    average over the heads, and a head with too few such rows to score
    gives NaN for both. Per head, in head order: head_trees is its chosen
    tree count, head_rows_seen how many of the n_rows dev rows some of
    those trees left out, and head_grid_scores its forest's own OOB
    estimate at each grid count.
    """

    oob_score: float
    dev_score: float
    metric: str
    oob_metric_score: float
    n_rows: int
    head_trees: tuple[int, ...]
    head_rows_seen: tuple[int, ...]
    head_grid_scores: tuple[dict[int, float], ...]

    @property
    def n_trees(self) -> int:
        """The largest head's tree count."""
        return max(self.head_trees)

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
    grid=DEFAULT_TREE_GRID,
):
    """Forest stacking: concatenate model scores, fit on the dev split.

    The heads are one classification forest for expr and one regression
    forest per va dimension, seeded from base_spec.seed and its index.
    Each head picks its tree count by out-of-bag score on the dev
    features, then predicts the dev split, the target split (the dev
    prediction again when the target rows equal the dev rows, as in a
    pipeline run) and the dev split's OOB rows. The dev and OOB scores
    average metrics.challenge_score over the heads, both on the rows some
    tree left out; a head's two scores are NaN when too few rows were
    left out to score. The returned (q, K)
    array holds the heads' target predictions side by side
    (class-frequency scores for expr, regression clipped to [-1, 1] for
    va).
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
    target_is_dev = np.array_equal(x_target, x_dev)
    if task == "expr":
        metric, forest_task, min_rows = "macro_f1", "classification", 1
        n_classes = x_dev.shape[1] // len(dev_preds)
        heads = [(np.asarray(dev_truth, dtype=np.int64).ravel(), base_spec)]
    else:
        metric, forest_task, min_rows, n_classes = "mean_ccc", "regression", 2, None
        truth = np.asarray(dev_truth, dtype=np.float64)
        if truth.ndim != 2:
            raise ValueError("va truth must be a q x 2 matrix")
        # each output dimension gets its own forest and derived seed
        heads = [
            (truth[:, j], replace(base_spec, seed=int(
                np.random.SeedSequence([base_spec.seed, j]).generate_state(1)[0])))
            for j in range(truth.shape[1])
        ]

    def scores(p):  # a head's output as (rows, outputs), clipped to [-1, 1] for va
        p = p.reshape(len(p), -1)
        return np.clip(p, -1.0, 1.0) if task == "va" else p

    fused, chosen, oob_scores, dev_scores, oob_metric_scores = [], [], [], [], []
    rows_seen, grid_scores = [], []
    for y, spec in heads:
        n_trees, curve, model = select_n_trees(
            x_dev, y, grid, spec, task=forest_task, n_classes=n_classes
        )
        chosen.append(n_trees)
        grid_scores.append(dict(zip(map(int, grid), curve)))
        oob_scores.append(model.oob_score)
        dev_out = scores(predict_forest(model, x_dev))
        fused.append(dev_out if target_is_dev else scores(predict_forest(model, x_target)))
        oob = scores(predict_oob(model, x_dev))
        seen = ~np.isnan(oob[:, 0])
        rows_seen.append(int(seen.sum()))
        enough = rows_seen[-1] >= min_rows
        for out, into in ((dev_out, dev_scores), (oob, oob_metric_scores)):
            into.append(metrics.challenge_score(y[seen], out[seen], metric) if enough
                        else float("nan"))
    n = len(heads)
    info = RfFusionInfo(sum(oob_scores) / n, sum(dev_scores) / n, metric,
                        sum(oob_metric_scores) / n, len(x_dev), tuple(chosen),
                        tuple(rows_seen), tuple(grid_scores))
    return np.hstack(fused), info
