"""Late fusion of aligned base-model score tracks.

Three strategies over M models producing q×K score tracks (K = 8 class
scores or 2 valence/arousal dimensions):

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
from .timeline import FrameTrack

SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True)
class FusionMatrix:
    """Per-model, per-output weights; every column lives on the simplex."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("weights must be an M x K matrix")
        if np.any(w < -SIMPLEX_ATOL):
            raise ValueError("weights must be nonnegative")
        sums = w.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > SIMPLEX_ATOL):
            raise ValueError("every weight column must sum to 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

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
    matrices: tuple
    alpha: float
    seed: int
    includes_selectors: bool

    def __post_init__(self) -> None:
        if not self.matrices:
            raise ValueError("pool must be nonempty")

    def __len__(self) -> int:
        return len(self.matrices)


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
    matrices = [FusionMatrix(g[i]) for i in range(pool_size)]
    matrices += [selector_matrix(m, n_models, n_outputs) for m in range(n_models)]
    return FusionPool(
        matrices=tuple(matrices), alpha=alpha, seed=seed, includes_selectors=True
    )


def _stack_tracks(preds) -> tuple[np.ndarray, FrameTrack | None]:
    """Validate alignment and stack M tracks into one (M, q, K) array."""
    if not preds:
        raise ValueError("need at least one prediction track")
    arrays = []
    template: FrameTrack | None = None
    for i, pred in enumerate(preds):
        if isinstance(pred, FrameTrack):
            if template is None:
                template = pred
            elif (
                pred.video_id != template.video_id
                or pred.fps != template.fps
                or pred.n_frames != template.n_frames
            ):
                raise AlignmentError(
                    f"model {i} track (video={pred.video_id!r}, fps={pred.fps}, "
                    f"frames={pred.n_frames}) does not match model 0 "
                    f"(video={template.video_id!r}, fps={template.fps}, "
                    f"frames={template.n_frames})"
                )
            arrays.append(pred.values)
        else:
            arr = np.asarray(pred, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError("prediction tracks must be 2-d (frames x outputs)")
            arrays.append(arr)
    shape = arrays[0].shape
    for i, arr in enumerate(arrays):
        if arr.shape != shape:
            raise AlignmentError(
                f"model {i} track has shape {arr.shape}, expected {shape}"
            )
    return np.stack(arrays), template


def _rewrap(fused: np.ndarray, template: FrameTrack | None, kind: str | None):
    if template is None:
        return fused
    return FrameTrack(
        video_id=template.video_id,
        fps=template.fps,
        values=fused,
        kind=kind or template.kind,
        frame_index_origin=template.frame_index_origin,
    )


def apply_fusion(preds, matrix: FusionMatrix, task: str | None = None):
    """fused[t, k] = sum_m weights[m, k] * preds_m[t, k].

    Class scores are left unnormalized (the argmax is unchanged either
    way); valence/arousal outputs are clipped to [-1, 1]. FrameTrack
    inputs come back as a FrameTrack, arrays as an array.
    """
    stacked, template = _stack_tracks(preds)
    if stacked.shape[0] != matrix.n_models or stacked.shape[2] != matrix.n_outputs:
        raise ValueError(
            f"matrix is {matrix.n_models}x{matrix.n_outputs} but tracks are "
            f"{stacked.shape[0]} models x {stacked.shape[2]} outputs"
        )
    fused = np.einsum("mqk,mk->qk", stacked, matrix.weights)
    if task is None and template is not None:
        task = "va" if template.kind == "va" else "expr"
    if task == "va":
        fused = np.clip(fused, -1.0, 1.0)
        return _rewrap(fused, template, "va")
    return _rewrap(fused, template, "class_scores")


def mean_fusion(preds, task: str | None = None):
    """Unweighted mean of all models, as fusion with uniform weights."""
    stacked, _ = _stack_tracks(preds)
    return apply_fusion(
        preds, uniform_matrix(stacked.shape[0], stacked.shape[2]), task=task
    )


def _dev_score(fused: np.ndarray, truth: np.ndarray, metric: str) -> float:
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


def dwf_search(
    pool: FusionPool, dev_preds, dev_truth, metric: str
) -> tuple[FusionMatrix, float, np.ndarray]:
    """Score every pool matrix on the development set; return the best.

    metric='macro_f1' expects integer dev labels; 'mean_ccc' expects a
    q x K target matrix. Ties go to the earliest matrix in pool order.
    Also returns the full score table aligned with the pool.
    """
    if metric not in ("macro_f1", "mean_ccc"):
        raise ValueError(f"unknown metric {metric!r}")
    stacked, _ = _stack_tracks(dev_preds)
    if metric == "macro_f1":
        truth = np.asarray(
            dev_truth.labels() if isinstance(dev_truth, FrameTrack) else dev_truth,
            dtype=np.int64,
        ).ravel()
    else:
        truth = np.asarray(
            dev_truth.values if isinstance(dev_truth, FrameTrack) else dev_truth,
            dtype=np.float64,
        )
        if truth.ndim != 2 or truth.shape[1] != stacked.shape[2]:
            raise ValueError("mean_ccc truth must be a q x K matrix")
    if truth.shape[0] != stacked.shape[1]:
        raise AlignmentError(
            f"dev truth has {truth.shape[0]} frames but predictions have "
            f"{stacked.shape[1]}"
        )
    if stacked.shape[0] == 1 and all((m.weights == 1.0).all() for m in pool.matrices):
        # one model: every simplex column is [1.0], so every matrix is the
        # selector, all score alike and the first one wins
        first = pool.matrices[0]
        score = _dev_score(np.einsum("mqk,mk->qk", stacked, first.weights), truth, metric)
        return first, float(score), np.full(len(pool), score)
    scores = np.empty(len(pool))
    best_idx = 0
    for i, matrix in enumerate(pool.matrices):
        fused = np.einsum("mqk,mk->qk", stacked, matrix.weights)
        scores[i] = _dev_score(fused, truth, metric)
        if scores[i] > scores[best_idx]:
            best_idx = i
    return pool.matrices[best_idx], float(scores[best_idx]), scores


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
    stacked, _ = _stack_tracks(preds)
    m, q, k = stacked.shape
    return stacked.transpose(1, 0, 2).reshape(q, m * k)


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
    the returned track holds forest predictions for the target split
    (class-frequency scores for expr, per-dimension regression for va).
    """
    if task not in ("expr", "va"):
        raise ValueError(f"unknown task {task!r}")
    if base_spec is None:
        base_spec = ForestSpec(n_trees=10)
    x_dev = _stack_features(dev_preds)
    _, target_template = _stack_tracks(target_preds)
    x_target = _stack_features(target_preds)
    if x_target.shape[1] != x_dev.shape[1]:
        raise AlignmentError(
            f"target width {x_target.shape[1]} != dev width {x_dev.shape[1]}"
        )
    if task == "expr":
        truth = np.asarray(
            dev_truth.labels() if isinstance(dev_truth, FrameTrack) else dev_truth,
            dtype=np.int64,
        ).ravel()
        n_classes = int(dev_preds[0].width if isinstance(dev_preds[0], FrameTrack)
                        else np.asarray(dev_preds[0]).shape[1])
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
        return _rewrap(fused, target_template, "class_scores"), info

    truth = np.asarray(
        dev_truth.values if isinstance(dev_truth, FrameTrack) else dev_truth,
        dtype=np.float64,
    )
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
    dev_pred = np.column_stack(dev_cols)
    dev_score = _dev_score(dev_pred, truth, "mean_ccc")
    info = RfFusionInfo(
        n_trees=max(chosen),
        oob_score=oob_sum / n_dims,
        grid_scores=tuple(grid_table),
        dev_score=dev_score,
        metric="mean_ccc",
        oob_metric_score=sum(oob_cccs) / n_dims,
    )
    return _rewrap(fused, target_template, "va"), info


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
