"""End-to-end orchestration: config loading, staged runs, manifests.

A run executes resample -> VAD gate -> window -> reduce targets ->
functionals -> normalize -> KELM train/predict (or base-prediction
ingestion) -> fusion -> interpolation to the ground-truth timeline ->
smoothing -> evaluation. One table, `stages()`, lists the stage
commands; a config's run is `kelm` when `kelm.enabled`, then `fuse`.
Each command is a function of the config, its staging directory, the
parsed labels and the parsed VAD that hands values from one `stage_*`
function to the next and writes the command's files, which no stage
function does. `kelm` slices, featurizes, trains and scores the dev
windows; `fuse` slices the dev windows again through the same helper,
reads the scores `kelm` wrote, combines them and the bases by
`_FUSERS[fusion.method]`, then emits and scores the predictions. The
decision records are formatted here alone, and every CSV of a run ends
its lines with LF. `run_pipeline` walks that plan, parsing the labels
and the VAD once for both commands; a stage command of the CLI runs one
alone. Both ways read the same files, so they write bit-identical
artifacts, and a failed command leaves the run directory as it found it.

Determinism contract: CSV floats are written with 17 significant
digits and the KELM scores as .npy, so both read back exactly;
per-video work merges in sorted video-id order regardless of the
worker count, and the manifest's output hash depends only on the
config, the seed, and the input files.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import shutil
import tempfile
import time
import types
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import (
    Callable, Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints,
)

import numpy as np
import yaml

from .errors import (
    AlignmentError,
    ConfigError,
    DataFormatError,
    MissingInputError,
    TaskMismatchError,
)
from .features import (
    FunctionalSet,
    apply_minmax,
    batch_functionals,
    fit_minmax,
    per_video_minmax,
)
from .forest import DEFAULT_TREE_GRID, ForestSpec
from .fusion import (
    FusionMatrix,
    RfFusionInfo,
    apply_fusion,
    dwf_search,
    mean_fusion,
    sample_pool,
    stack_and_fuse_rf,
    uniform_matrix,
)
from .kelm import (
    DEFAULT_C_GRID,
    KernelSpec,
    class_weights,
    encode_classification_targets,
    predict_kelm,
    regularizer_ok,
    select_c,
    train_kelm,
)
from .metrics import (
    EvalReport,
    classification_report,
    first_best,
    va_report,
    write_report,
)
from .synth import SyntheticSpec
from .timeline import (
    FLOAT_FMT,
    N_EXPR_CLASSES,
    FrameTrack,
    SmoothingSpec,
    hamming_smooth,
    interpolate_to,
    read_track_csv,
    resample_track,
    write_csv,
)
from .windowing import (
    LabelRows,
    WindowBatch,
    WindowSpec,
    labels_to_track,
    read_label_csv,
    read_vad_csv,
    slice_windows,
    valid_label_rows,
    voiced_segments,
    window_labels,
    window_va_means,
    write_label_csv,
)

log = logging.getLogger("affectpipe")

NORMALIZATIONS = ("none", "global_minmax", "per_video_minmax")
_KELM_TASKS = {"expr": "classification", "va": "regression"}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathSettings:
    embeddings: str | None = None
    labels: str | None = None
    vad: str | None = None
    base_predictions: tuple[str, ...] = ()
    source_fps: float | None = None  # None: already at the working rate


@dataclass(frozen=True)
class SplitSettings:
    dev_videos: tuple[str, ...] = ()


@dataclass(frozen=True)
class WindowSettings:
    window_seconds: float = 4.0
    hop_seconds: float = 2.0


@dataclass(frozen=True)
class KelmSettings:
    enabled: bool = True
    kernel: str = "rbf"
    gamma: float | None = None
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    weighted: bool = True


@dataclass(frozen=True)
class FusionSettings:
    method: str = "mean"
    pool_size: int = 10_000
    alpha: float = 1.0
    tree_grid: tuple[int, ...] = DEFAULT_TREE_GRID


@dataclass(frozen=True)
class PostprocessSettings:
    smooth_seconds: float = 0.5
    target_fps: float | None = None  # None: the working rate
    video_fps: dict[str, float] = field(default_factory=dict)  # per-video overrides

    def fps_for(self, video_id: str, default: float) -> float:
        if video_id in self.video_fps:
            return self.video_fps[video_id]
        return self.target_fps if self.target_fps is not None else default


@dataclass(frozen=True)
class OutputSettings:
    dir: str = "runs"


def _synth_from_top(config: PipelineConfig) -> dict:
    """The synth section is a SyntheticSpec minus these top-level fields."""
    return dict(task=config.task, seed=config.seed, fps=config.fps_target)


@dataclass(frozen=True)
class PipelineConfig:
    """The YAML config: its keys, their types and defaults are these fields."""

    task: str = "expr"
    seed: int = 0
    workers: int = 1
    fps_target: float = 5.0
    paths: PathSettings = PathSettings()
    split: SplitSettings = SplitSettings()
    window: WindowSettings = WindowSettings()
    functionals: tuple[str, ...] = ("mean", "max", "min")
    normalization: str = "global_minmax"
    kelm: KelmSettings = KelmSettings()
    fusion: FusionSettings = FusionSettings()
    postprocess: PostprocessSettings = PostprocessSettings()
    output: OutputSettings = OutputSettings()
    synth: SyntheticSpec | None = None  # load_config sets _synth_from_top's fields

    @property
    def window_spec(self) -> WindowSpec:
        w = self.window
        return WindowSpec(w.window_seconds, w.hop_seconds, self.fps_target)

    @property
    def functional_set(self) -> FunctionalSet:
        return FunctionalSet(self.functionals)

    @property
    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(kind=self.kelm.kernel, gamma=self.kelm.gamma)

    @property
    def metric(self) -> str:
        return "macro_f1" if self.task == "expr" else "mean_ccc"

    @property
    def n_outputs(self) -> int:
        return N_EXPR_CLASSES if self.task == "expr" else 2

    @property
    def track_kind(self) -> str:
        return "class_scores" if self.task == "expr" else "va"

    def run_dir(self) -> Path:
        return Path(self.output.dir) / f"run-{config_hash(self)[:12]}"


def load_config(
    path: str | Path | None = None,
    seed: int | None = None,
    workers: int | None = None,
    out_dir: str | None = None,
) -> PipelineConfig:
    """Build a validated config from defaults, a YAML file, and overrides.

    Precedence: CLI flag overrides > file values > defaults. Structural
    problems, YAML syntax and a file that is not UTF-8 raise ConfigError;
    a config path that is missing or not a file raises MissingInputError.
    Referenced data files are checked by the stages that read them, so a
    config may be loaded before `synth` has produced its files.
    """
    raw: dict = {}
    if path is not None:
        path = _require_file(path, "config file")
        try:
            with path.open(encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        raw = loaded

    flags = {k: v for k, v in dict(seed=seed, workers=workers).items() if v is not None}
    top = {k: v for k, v in raw.items() if k != "synth"}
    config = _build(PipelineConfig, {**top, **flags}, "config")
    if raw.get("synth") is not None:
        config = replace(config, synth=_build(SyntheticSpec, raw["synth"], "config.synth",
                                              **_synth_from_top(config)))
    if out_dir is not None:
        config = replace(config, output=OutputSettings(dir=out_dir))
    _validate(config)
    return config


def _build(cls, mapping, where: str, **given):
    """An instance of the dataclass `cls` from one YAML mapping.

    The field names are the keys, and absent keys keep the field
    defaults; a null section means all defaults. Fields in `given` are
    set by the caller and are not keys.
    """
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    keys = [f for f in fields(cls) if f.name not in given]
    unknown = sorted(map(str, set(mapping) - {f.name for f in keys}))
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {unknown}")
    hints = get_type_hints(cls)
    values = {f.name: _coerce(hints[f.name], mapping[f.name], f"{where}.{f.name}")
              for f in keys if f.name in mapping}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str, int)}


def _coerce(annotation, value, where: str):
    """`value` read from YAML, checked against one field annotation.

    A float field also takes an int and stores a float, and refuses NaN
    and infinities; a str field also takes an int (numeric video ids); a
    tuple field takes a list; null is accepted only where the annotation
    is `X | None`.
    """
    if isinstance(annotation, types.UnionType):  # X | None
        if value is None:
            return None
        (annotation,) = [a for a in get_args(annotation) if a is not type(None)]
    if is_dataclass(annotation):
        return _build(annotation, value, where)
    if value is None:
        raise ConfigError(f"{where} must not be null")
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_coerce(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a mapping, got {value!r}")
        key_type, value_type = args
        return {
            _coerce(key_type, k, f"{where}[{k!r}]"):
                _coerce(value_type, v, f"{where}.{k}")
            for k, v in value.items()
        }
    if isinstance(value, bool) != (annotation is bool) or not isinstance(
        value, _SCALARS[annotation]
    ):
        raise ConfigError(f"{where} must be {annotation.__name__}, got {value!r}")
    try:
        value = annotation(value)
    except OverflowError as exc:  # an int too large for a float
        raise ConfigError(f"{where}: {exc}") from exc
    if annotation is float and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _validate(config: PipelineConfig) -> None:
    paths = config.paths
    dev_videos = config.split.dev_videos
    if config.task not in ("expr", "va"):
        raise ConfigError(f"task must be 'expr' or 'va', got {config.task!r}")
    if config.fps_target <= 0:
        raise ConfigError("fps_target must be positive")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    if paths.source_fps is not None and paths.source_fps < config.fps_target:
        raise ConfigError(
            f"fps_target {config.fps_target} exceeds the source rate "
            f"{paths.source_fps}; downsampling only"
        )
    try:
        config.window_spec
        config.functional_set
        config.kernel_spec
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.normalization not in NORMALIZATIONS:
        raise ConfigError(
            f"normalization must be one of {NORMALIZATIONS}, got {config.normalization!r}"
        )
    if config.fusion.method not in _FUSERS:
        raise ConfigError(
            f"fusion method must be one of {tuple(_FUSERS)}, got {config.fusion.method!r}"
        )
    if config.fusion.pool_size < 1 or config.fusion.alpha <= 0:
        raise ConfigError("fusion pool_size must be >= 1 and alpha positive")
    if not config.fusion.tree_grid or min(config.fusion.tree_grid) < 1:
        raise ConfigError("fusion tree_grid must be a nonempty list of positive counts")
    if not config.kelm.c_grid or not all(map(regularizer_ok, config.kelm.c_grid)):
        raise ConfigError(
            "kelm c_grid must be a nonempty list of positive values with a finite "
            f"reciprocal, got {list(config.kelm.c_grid)}"
        )
    post = config.postprocess
    if post.smooth_seconds <= 0:
        raise ConfigError("postprocess smooth_seconds must be positive")
    if post.target_fps is not None and post.target_fps <= 0:
        raise ConfigError(f"postprocess.target_fps must be positive, got {post.target_fps}")
    bad_fps = {vid: fps for vid, fps in post.video_fps.items() if fps <= 0}
    if bad_fps:
        raise ConfigError(f"postprocess.video_fps must be positive, got {bad_fps}")
    repeated = sorted({vid for vid in dev_videos if dev_videos.count(vid) > 1})
    if repeated:
        raise ConfigError(f"split.dev_videos lists {repeated} more than once")
    if not config.kelm.enabled and not paths.base_predictions:
        raise ConfigError(
            "nothing to run: kelm is disabled and no base predictions are configured"
        )
    if config.kelm.enabled and not dev_videos:
        raise ConfigError("kelm training needs a nonempty split.dev_videos")
    if config.kelm.enabled and not paths.embeddings:
        raise ConfigError("config is missing paths.embeddings")
    if config.fusion.method in ("dwf", "rf") and not dev_videos:
        raise ConfigError(
            f"{config.fusion.method} fusion needs a nonempty split.dev_videos"
        )
    if not paths.labels:
        raise ConfigError("config is missing paths.labels")


_UNHASHED = ("workers", "output")


def config_to_dict(config: PipelineConfig) -> dict:
    """Canonical nested dict of everything that can influence outputs.

    The output directory and worker count are deliberately excluded:
    neither changes a single output byte, so runs of the same config
    into different directories share one hash. The synth section leaves
    out the fields it takes from the top level, which are hashed there.
    """
    out = {k: v for k, v in _plain(config).items() if k not in _UNHASHED}
    if config.synth is not None:
        for key in _synth_from_top(config):
            del out["synth"][key]
    return out


def _plain(value):
    """JSON-ready copy of a config value."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Shared stage helpers
# ---------------------------------------------------------------------------


def _require_file(path: str | Path | None, what: str) -> Path:
    if not path:
        raise ConfigError(f"config is missing a required path: {what}")
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"{what} not found: {path}")
    if not path.is_file():
        raise MissingInputError(f"{what} is not a file: {path}")
    return path


def _make_dir(path: Path, what: str) -> None:
    """Make the directory `path` and its parents, where `what` named it; a
    file in the way is a ConfigError naming the path, not a traceback."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"{what} {path} is a file or lies under one; "
                          "it must name a directory") from None


def _map_ordered(fn: Callable, items: Iterable, workers: int) -> list:
    """Apply fn to items, preserving order; threads when workers > 1."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


_OTHER_TASK = {"expr": "va", "va": "expr"}


def _read_labels_checked(path: Path, task: str) -> dict[str, LabelRows]:
    """read_label_csv, upgrading a wrong-task header to TaskMismatchError."""
    try:
        return read_label_csv(path, task)
    except DataFormatError as exc:
        try:
            read_label_csv(path, _OTHER_TASK[task])
        except Exception:
            raise exc from None
        raise TaskMismatchError(
            f"{path} holds {_OTHER_TASK[task]} annotations but the task is {task!r}"
        ) from exc


def _truth_at_working_rate(
    config: PipelineConfig, truth: dict, vids: Sequence[str], stage: str
) -> dict[str, FrameTrack]:
    """The ground-truth tracks `truth` holds of `vids` at the working rate, for `stage`."""
    missing = [v for v in vids if v not in truth]
    if missing:
        raise AlignmentError(f"{stage} stage: no labels for video(s) {missing}")
    out = {}
    for vid in vids:
        track = truth[vid]
        if abs(track.fps - config.fps_target) < 1e-9:
            out[vid] = track
        elif track.fps > config.fps_target:
            # numbered from the working-rate frame nearest the first frame's time;
            # postprocess refuses a fused track that then starts off that time
            start = track.frame_index_origin * config.fps_target / track.fps
            out[vid] = replace(resample_track(track, config.fps_target),
                               frame_index_origin=round(start))
        else:
            raise AlignmentError(
                f"labels for {vid!r} are at {track.fps} FPS, below the "
                f"working rate {config.fps_target}"
            )
    return out


def _dev_split(config: PipelineConfig, vids: Sequence[str]) -> tuple[list[str], list[str]]:
    """(train, dev) video lists in sorted order; validates the config split."""
    dev = sorted(config.split.dev_videos)
    unknown = [v for v in dev if v not in vids]
    if unknown:
        raise ConfigError(f"split.dev_videos names unknown videos: {unknown}")
    train = [v for v in sorted(vids) if v not in dev]
    return train, dev


def _write_json(path: Path, value: dict, sort_keys: bool = True) -> None:
    path.write_text(json.dumps(value, sort_keys=sort_keys, indent=2) + "\n",
                    encoding="utf-8")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Intermediate file formats (pipeline-owned)
# ---------------------------------------------------------------------------


# kelm_scores.npy holds one row per window of the dev videos, video by
# video in sorted order; fuse slices those windows again from each dev
# video's labels at the working rate and spreads the rows onto frames.


def _read_kelm_scores(config: PipelineConfig, kelm_dir: Path, counts: Sequence[int]) -> dict:
    """Each dev video's window scores from the kelm_scores.npy in
    `kelm_dir`, which holds float64 rows of the task's width for the
    `counts` windows of the dev videos, in sorted video order; a score
    that is not finite is a DataFormatError naming the file and the video."""
    vids = sorted(config.split.dev_videos)
    path = _require_file(kelm_dir / "kelm_scores.npy", "kelm stage output")
    try:
        scores = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataFormatError(f"{path}: not a loadable .npy array: {exc}") from None
    shape = (sum(counts), config.n_outputs)
    if scores.dtype != np.float64 or scores.shape[1:] != shape[1:]:
        raise DataFormatError(f"{path}: expected float64 of shape {shape}, "
                              f"got {scores.dtype} of shape {scores.shape}")
    if len(scores) != shape[0]:
        raise AlignmentError(f"{path} has {len(scores)} rows, expected {shape[0]} dev "
                             "windows; rerun the kelm stage")
    per_video = dict(zip(vids, np.split(scores, np.cumsum(counts)[:-1])))
    for vid, values in per_video.items():
        if not np.isfinite(values).all():
            raise DataFormatError(f"{path}: video {vid!r}: a window score is not finite")
    return per_video


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _read_vad(config: PipelineConfig) -> dict | None:
    """The parsed VAD of a KELM run, or None without one; a fusion-only
    run slices no windows, so it never opens paths.vad."""
    if not (config.kelm.enabled and config.paths.vad):
        return None
    return read_vad_csv(_require_file(config.paths.vad, "vad file"))


def _voiced_windows(
    config: PipelineConfig, track: FrameTrack, vad: dict | None, stage: str, what: str
) -> WindowBatch:
    """The windows of `track`, a video's frames named `what` in `stage`'s
    messages, resampled to the working rate and cut from its voiced
    segments when there is a VAD, which must start when the track does.
    kelm slices the embedding tracks and fuse the dev videos' labels at
    the working rate, which kelm checked to have the embeddings' first
    frame and frame count, so both commands get the same windows."""
    vid = track.video_id
    if vad is not None and vid in vad:  # a VAD is at the working rate
        _check_start(stage, vid, "the VAD", (vad[vid].frame_index_origin, config.fps_target),
                     what, (track.frame_index_origin, track.fps))
    if abs(track.fps - config.fps_target) > 1e-9:
        track = resample_track(track, config.fps_target)
    segments = None
    if vad is not None:
        if vid not in vad:
            raise AlignmentError(f"{stage} stage: no VAD rows for video {vid!r}")
        mask = vad[vid]
        if len(mask) != track.n_frames:
            raise AlignmentError(
                f"{stage} stage: VAD for {vid!r} has {len(mask)} frames, "
                f"track has {track.n_frames}"
            )
        segments = voiced_segments(mask)
        if not segments:
            raise AlignmentError(f"{stage} stage: video {vid!r} has no voiced frames")
    return slice_windows(track, config.window_spec, segments=segments)


def _window_batches(config: PipelineConfig, truth: dict, vad: dict | None) -> dict:
    """Check each embedding track's first frame against its labels', then
    slice its voiced windows at the working rate.

    The kelm command computes the features from them in memory, so no
    copy of the track is written.
    """
    emb_path = _require_file(config.paths.embeddings, "embeddings file")
    source_fps = config.paths.source_fps or config.fps_target
    embeddings = read_track_csv(emb_path, fps=source_fps, kind="embedding")
    vids = sorted(embeddings)
    if not _dev_split(config, vids)[0]:
        raise ConfigError("kelm training needs at least one non-dev video")
    # a video without labels is refused once it is windowed
    _check_frames("kelm", "the embedding track", embeddings, "the label track", truth,
                  [v for v in vids if v in truth], counts=False)

    def one(vid: str) -> WindowBatch:
        return _voiced_windows(config, embeddings[vid], vad, "kelm", "the embedding track")

    return dict(zip(vids, _map_ordered(one, vids, config.workers)))


def _read_truth(config: PipelineConfig) -> dict:
    """Ground-truth tracks on their native (per-video) timelines."""
    path = _require_file(config.paths.labels, "labels file")
    return {
        vid: labels_to_track(
            vid, rows, fps=config.postprocess.fps_for(vid, config.fps_target),
            task=config.task,
        )
        for vid, rows in _read_labels_checked(path, config.task).items()
    }


def stage_window(config: PipelineConfig, truth: dict, vad: dict | None) -> tuple[dict, dict]:
    """Each video's windows, sliced from its track, and their targets, the
    labels of `truth` reduced to one per window."""
    batches = _window_batches(config, truth, vad)
    vids = sorted(batches)
    at_rate = _truth_at_working_rate(config, truth, vids, "kelm")
    reduce = window_labels if config.task == "expr" else window_va_means
    targets = _map_ordered(lambda vid: reduce(at_rate[vid], batches[vid]), vids,
                           config.workers)
    log.info("kelm stage: %d windows over %d videos", sum(map(len, targets)), len(vids))
    return batches, dict(zip(vids, targets))


def stage_features(config: PipelineConfig, batches: dict) -> dict[str, np.ndarray]:
    """Each video's functionals over the windows stage_window sliced, with the
    configured normalization."""
    fset = config.functional_set
    vids = sorted(batches)

    def one(vid: str) -> np.ndarray:
        batch = batches[vid]
        return batch_functionals(batch.track.values, batch.starts, batch.n_real, fset)

    feats = dict(zip(vids, _map_ordered(one, vids, config.workers)))
    if config.normalization == "global_minmax":
        train_vids, _ = _dev_split(config, vids)
        scaler = fit_minmax([feats[v] for v in train_vids])
        feats = {vid: apply_minmax(feats[vid], scaler) for vid in vids}
    elif config.normalization == "per_video_minmax":
        feats = {vid: per_video_minmax(feats[vid]) for vid in vids}
    return feats


def stage_train_kelm(config: PipelineConfig, feats: dict, targets: dict) -> tuple:
    """The KELM trained on the non-dev videos at the regularizer that
    scores best on the dev split, and the rows of selection.csv."""
    train, dev = _dev_split(config, list(feats))  # _window_batches refused an empty train
    x_train, x_dev = (np.concatenate([feats[v] for v in vids]) for vids in (train, dev))
    y_train, y_dev = (np.concatenate([targets[v] for v in vids]) for vids in (train, dev))
    if config.metric == "mean_ccc" and len(y_dev) < 2:  # a dev video has a window
        raise ConfigError(f"kelm stage: split.dev_videos give {len(y_dev)} dev "
                          "window(s); scoring mean_ccc needs at least 2")
    if config.task == "expr":
        enc = encode_classification_targets(y_train, N_EXPR_CLASSES)
        weights = class_weights(y_train) if config.kelm.weighted else None
    else:
        enc = y_train
        weights = None
    best_c, dev_score = select_c(
        x_train,
        enc,
        config.kelm.c_grid,
        x_dev,
        y_dev,
        metric=config.metric,
        kernel=config.kernel_spec,
        weights=weights,
    )
    model = train_kelm(
        x_train, enc, best_c, kernel=config.kernel_spec, weights=weights,
        task=_KELM_TASKS[config.task],
    )
    log.info("kelm: C=%g scores %.4f (%s) on the dev split", best_c, dev_score,
             config.metric)
    return model, [["c", "dev_score"], [FLOAT_FMT % best_c, FLOAT_FMT % dev_score]]


def _spread_window_scores(
    starts: Sequence[int],
    scores: np.ndarray,
    n_frames: int,
    window_frames: int,
    hop_frames: int,
) -> np.ndarray:
    """Window scores to a frame timeline.

    Each window's score row is assigned to the hop-sized span at the
    window's center; frames no span covers (edges, unvoiced gaps) are
    filled by linear interpolation between the surrounding spans, held
    constant beyond the first and last.
    """
    if len(starts) != scores.shape[0]:
        raise AlignmentError(
            f"{scores.shape[0]} score rows for {len(starts)} windows"
        )
    width = scores.shape[1]
    out = np.zeros((n_frames, width))
    covered = np.zeros(n_frames, dtype=bool)
    lead = (window_frames - hop_frames) // 2
    for start, row in zip(starts, scores):
        a = min(max(start + lead, 0), n_frames)
        b = min(a + hop_frames, n_frames)
        out[a:b] = row
        covered[a:b] = True
    if not covered.any():
        raise AlignmentError("no window span lands inside the frame range")
    if not covered.all():
        idx = np.arange(n_frames, dtype=np.float64)
        for j in range(width):
            out[~covered, j] = np.interp(idx[~covered], idx[covered], out[covered, j])
    return out


def stage_predict_kelm(config: PipelineConfig, feats: dict, model) -> np.ndarray:
    """The dev videos' window scores of the model stage_train_kelm fit, in
    sorted video order. Fusion reads the KELM track of the dev videos alone
    (a KELM run always has a dev split), so the training videos are not scored."""
    vids = sorted(config.split.dev_videos)
    scores = _map_ordered(lambda vid: predict_kelm(model, feats[vid]), vids, config.workers)
    return np.concatenate(scores)


def _dwf_info(scores: np.ndarray, matrix: FusionMatrix, names: list[str]) -> list:
    """The rows of dwf_info.csv: the pool's size, the winner's index and
    score, the best score of any other matrix, how many matrices score
    exactly the winner's score, and the model whose scores the winner
    copies through unchanged, or '' when it mixes them."""
    best = first_best(scores)
    others = np.delete(scores, best)  # sample_pool gives at least two matrices
    selector = next((name for name, w in zip(names, matrix.weights) if (w == 1.0).all()), "")
    return [
        ["metric", "value"], ["pool_size", str(len(scores))],
        ["winner_index", str(best)], ["winner_score", FLOAT_FMT % scores[best]],
        ["runner_up_score", FLOAT_FMT % others[first_best(others)]],
        ["n_tied", str(int((scores == scores[best]).sum()))], ["selector", selector],
    ]


def _rf_info(info: RfFusionInfo, task: str) -> list:
    """The rows of rf_info.csv: the largest head's tree count, the scores and
    gap of RfFusionInfo, then per head its trees, OOB row share and grid scores."""
    rows = [["metric", "value"], ["n_trees", str(info.n_trees)],
            ["oob_score", FLOAT_FMT % info.oob_score],
            [f"oob_{info.metric}", FLOAT_FMT % info.oob_metric_score],
            ["dev_score", FLOAT_FMT % info.dev_score],
            ["overfit_gap", FLOAT_FMT % info.overfit_gap]]
    heads = ("expr",) if task == "expr" else ("valence", "arousal")
    for head, trees, seen, grid_scores in zip(heads, info.head_trees, info.head_rows_seen,
                                              info.head_grid_scores):
        rows += [[f"{head}_n_trees", str(trees)],
                 [f"{head}_oob_rows_fraction", FLOAT_FMT % (seen / info.n_rows)],
                 *([f"{head}_oob_score_at_{k}", FLOAT_FMT % score]
                   for k, score in sorted(grid_scores.items()))]
    return rows


def _matrix_rows(matrix: FusionMatrix, names: list[str]) -> list:
    """The rows of fusion_matrix.csv: `model,c0..c{K-1}`, then each model's weights."""
    return [["model", *(f"c{k}" for k in range(matrix.n_outputs))],
            *([name, *(FLOAT_FMT % w for w in row)]
              for name, row in zip(names, matrix.weights))]


def _gather_models(
    config: PipelineConfig, out_dir: Path, truth: dict, vad: dict | None
) -> tuple[list[str], list[np.ndarray], dict[str, FrameTrack]]:
    """The models' names (the KELM, then the bases by file stem), each one's
    (frames, K) scores over the fused videos, and those videos' tracks of
    the timeline every model must match: the labels at the working rate
    of every labelled video, which the KELM track is spread onto, or else
    base 0. The fused videos are the dev videos, or every video without a
    dev split."""
    names: list[str] = []
    models: list[dict[str, np.ndarray]] = []  # each model's frame scores per video
    if config.kelm.enabled:
        names.append("kelm")
        # the kelm command checked each windowed video's labels against its
        # track's frame count and first frame, so the dev videos' labels at
        # the working rate give the windows kelm scored
        timeline = _truth_at_working_rate(config, truth, sorted(truth), "fuse")
        _dev_split(config, list(timeline))
        starts = {vid: _voiced_windows(config, timeline[vid], vad, "fuse",
                                       "the label track").starts
                  for vid in sorted(config.split.dev_videos)}
        # where kelm wrote: `run`'s one staging directory, or else the run
        # directory, as a staged fuse's fresh staging directory holds no scores
        kelm_dir = out_dir if (out_dir / "kelm_scores.npy").exists() else config.run_dir()
        kelm_scores = _read_kelm_scores(config, kelm_dir, list(map(len, starts.values())))
        spec = config.window_spec
        kelm = {}
        for vid, scores in kelm_scores.items():
            kelm[vid] = _spread_window_scores(starts[vid], scores, timeline[vid].n_frames,
                                              spec.window_frames, spec.hop_frames)
            if config.task == "va":
                kelm[vid] = np.clip(kelm[vid], -1.0, 1.0)
        models.append(kelm)
    bases: list[dict[str, FrameTrack]] = []
    for pred in config.paths.base_predictions:
        path = _require_file(pred, "base predictions file")
        name = path.stem
        while name in names:
            name += "+"
        names.append(name)
        bases.append(read_track_csv(path, fps=config.fps_target, kind=config.track_kind))
        width = next(iter(bases[-1].values())).values.shape[1]
        if width != config.n_outputs:
            raise DataFormatError(f"{path}: {width} score columns, the {config.task} task "
                                  f"needs {config.n_outputs}")
    if not config.kelm.enabled:
        timeline = bases[0]
    vids = sorted(timeline)
    for name, base in zip(names[len(models):], bases):
        if sorted(base) != vids:
            raise AlignmentError(f"fuse stage: model {name!r} covers videos "
                                 f"{sorted(base)}, expected {vids}")
        _check_frames("fuse", f"model {name!r}", base, f"model {names[0]!r}", timeline,
                      vids)
        models.append({vid: track.values for vid, track in base.items()})
    _dev_split(config, vids)
    fused_vids = sorted(config.split.dev_videos or vids)
    preds = [np.concatenate([model[vid] for vid in fused_vids]) for model in models]
    return names, preds, {vid: timeline[vid] for vid in fused_vids}


def _dev_truth(config, truth, names, timeline) -> np.ndarray:
    """The labels of the timeline's frames for dwf or rf, which _validate gave
    a dev split: class indices for expr, (frames, 2) values for va."""
    vids, method = list(timeline), config.fusion.method
    if config.kelm.enabled:
        truth = timeline  # the labels at the working rate
    else:
        truth = _truth_at_working_rate(config, truth, vids, "fuse")
        _check_frames("fuse", "the label track", truth, f"model {names[0]!r}", timeline,
                      vids)
    dev_truth = (np.concatenate([truth[v].labels() for v in vids]) if config.task == "expr"
                 else np.vstack([truth[v].values for v in vids]))
    if len(dev_truth) < 2 and (method == "rf" or config.task == "va"):
        raise ConfigError(f"fuse stage: split.dev_videos give {len(dev_truth)} dev "
                          f"frame(s); {method} fusion on {config.task} needs at least 2")
    return dev_truth


def _fuse_dwf(config, truth, names, preds, timeline) -> tuple[np.ndarray, dict]:
    """The sampled pool's best matrix on the dev frames, and the search's summary."""
    dev_truth = _dev_truth(config, truth, names, timeline)
    pool = sample_pool(len(preds), config.n_outputs, pool_size=config.fusion.pool_size,
                       alpha=config.fusion.alpha, seed=config.seed)
    matrix, best_score, scores = dwf_search(pool, preds, dev_truth, metric=config.metric)
    log.info("dwf: best of %d matrices scores %.4f on the dev split", len(pool), best_score)
    return apply_fusion(preds, matrix, task=config.task), {
        "dwf_info.csv": _dwf_info(scores, matrix, names),
        "fusion_matrix.csv": _matrix_rows(matrix, names)}


def _fuse_rf(config, truth, names, preds, timeline) -> tuple[np.ndarray, dict]:
    """Forest stacking fit on the dev frames, and each head's record."""
    fused, info = stack_and_fuse_rf(
        preds, _dev_truth(config, truth, names, timeline), preds, task=config.task,
        base_spec=ForestSpec(n_trees=config.fusion.tree_grid[0], seed=config.seed),
        grid=config.fusion.tree_grid)
    if info.overfit_gap > 0:
        log.warning("rf fusion: dev %s %.4f exceeds its out-of-bag estimate %.4f by %.4f "
                    "on the dev rows some tree left out (%s of %d); treat dev gains as "
                    "optimistic", info.metric, info.dev_score, info.oob_metric_score,
                    info.overfit_gap, " and ".join(map(str, info.head_rows_seen)),
                    info.n_rows)
    return fused, {"rf_info.csv": _rf_info(info, config.task)}


def _fuse_mean(config, truth, names, preds, timeline) -> tuple[np.ndarray, dict]:
    """The unweighted mean, and its uniform matrix."""
    rows = _matrix_rows(uniform_matrix(len(preds), config.n_outputs), names)
    return mean_fusion(preds, task=config.task), {"fusion_matrix.csv": rows}


# fusion.method -> its function of (config, parsed labels, model names, score
# tables, timeline), which returns the fused table and {record file: rows}
_FUSERS = {"dwf": _fuse_dwf, "rf": _fuse_rf, "mean": _fuse_mean}


def stage_fuse(
    config: PipelineConfig, out_dir: Path, truth: dict, vad: dict | None
) -> tuple[dict, dict]:
    """One fused track per fused video, combining the models _gather_models
    reads by fusion.method, and the method's records as {file: rows}."""
    names, preds, timeline = _gather_models(config, out_dir, truth, vad)
    fused, records = _FUSERS[config.fusion.method](config, truth, names, preds, timeline)
    # at the working rate and of the task's kind, numbered from the
    # timeline's first frames
    ends = np.cumsum([track.n_frames for track in timeline.values()])
    return {
        vid: FrameTrack(vid, config.fps_target, values, kind=config.track_kind,
                        frame_index_origin=track.frame_index_origin)
        for (vid, track), values in zip(timeline.items(), np.split(fused, ends[:-1]))
    }, records


def _check_frames(
    stage: str, what: str, tracks: dict[str, FrameTrack], ref: str,
    timeline: dict[str, FrameTrack], vids: Sequence[str], counts: bool = True,
) -> None:
    """AlignmentError unless each of `vids` in `tracks`, named `what`,
    starts at the time its track in `timeline`, named `ref`, does, and
    with `counts` has its frame count."""
    for v in vids:
        a, b = tracks[v], timeline[v]
        if counts and a.n_frames != b.n_frames:
            raise AlignmentError(f"{stage} stage: {what} has {a.n_frames} frames "
                                 f"for {v!r}, {ref} has {b.n_frames}")
        _check_start(stage, v, what, (a.frame_index_origin, a.fps),
                     ref, (b.frame_index_origin, b.fps))


def _check_start(stage: str, vid: str, what: str, a: tuple, ref: str, b: tuple) -> None:
    """AlignmentError unless `what`'s first frame of `vid`, (index, rate) `a`, falls
    at the time of `ref`'s, `b`: its index over its rate, as two rates pair from it."""
    if not math.isclose(a[0] / a[1], b[0] / b[1], abs_tol=1e-9):
        at = [f"frame {i}" + ("" if a[1] == b[1] else f" ({i / fps:g} s at {fps:g} fps)")
              for i, fps in (a, b)]
        raise AlignmentError(f"{stage} stage: {what} starts {vid!r} at {at[0]}, "
                             f"{ref} at {at[1]}")


def stage_postprocess(config: PipelineConfig, fused: dict, truth: dict) -> dict:
    """The predictions' label rows: each fused track interpolated to its
    labels' timeline and smoothed, and for expr its frames' top classes."""
    smoothing = SmoothingSpec(window_seconds=config.postprocess.smooth_seconds)
    vids = sorted(fused)
    missing = [v for v in vids if v not in truth]
    if missing:
        raise AlignmentError(f"postprocess stage: no labels for video(s) {missing}")
    # interpolate_to pairs the two tracks from their first frames
    _check_frames("postprocess", "the fused track", fused, "the label track", truth, vids,
                  counts=False)
    for v in vids:  # interpolate_to would hold a short track's last value
        end, label_end = ((t.frame_index_origin + t.n_frames - 1) / t.fps
                          for t in (fused[v], truth[v]))
        if label_end - end > 1 / fused[v].fps + 1e-9:
            raise AlignmentError(f"postprocess stage: the fused track ends {v!r} at "
                                 f"{end:g} s, the label track at {label_end:g} s")

    def one(vid: str) -> tuple[str, LabelRows]:
        target = truth[vid]
        values = hamming_smooth(
            interpolate_to(fused[vid], target.fps, target.n_frames), smoothing
        ).values
        if config.task == "expr":
            values = values.argmax(axis=1)[:, None]
        return vid, _track_rows(target, values)

    return dict(_map_ordered(one, vids, config.workers))


def _track_rows(track: FrameTrack, values: np.ndarray) -> LabelRows:
    """`values` as the label rows of the track's frames."""
    origin = track.frame_index_origin
    return LabelRows(np.arange(origin, origin + track.n_frames), values)


def evaluate_files(
    pred_csv: str | Path | None,
    truth_csv: str | Path | None,
    task: str,
    pred: dict[str, LabelRows] | None = None,
    truth: dict[str, LabelRows] | None = None,
) -> EvalReport:
    """Join predictions with truth on (video_id, frame) and score them.

    Rows invalid for the task are dropped on read (so truth frames with
    out-of-range annotations are ignored); the join keeps only keys
    present on both sides and pools all frames, in video and frame
    order, before computing the task's metric suite. `pred` and `truth`,
    when given, are the label rows of those files held in memory, as
    read_label_csv returns them, and their file may be None; invalid
    prediction rows are dropped from them as the read would drop them.
    """
    if task not in ("expr", "va"):
        raise ConfigError(f"task must be 'expr' or 'va', got {task!r}")
    if pred is None:
        pred = _read_labels_checked(_require_file(pred_csv, "predictions file"), task)
    else:
        pred = _valid_rows(pred, task)
    if truth is None:
        truth = _read_labels_checked(_require_file(truth_csv, "truth file"), task)
    t_parts, p_parts = [], []
    for vid in sorted(set(pred) & set(truth)):
        _, t_rows, p_rows = np.intersect1d(
            truth[vid].frames, pred[vid].frames, assume_unique=True, return_indices=True
        )
        t_parts.append(truth[vid].values[t_rows])
        p_parts.append(pred[vid].values[p_rows])
    if not sum(map(len, t_parts)):
        raise AlignmentError(
            "evaluate stage: predictions and truth share no (video_id, frame) keys"
        )
    t = np.concatenate(t_parts)
    p = np.concatenate(p_parts)
    if task == "expr":
        return classification_report(
            t[:, 0].astype(np.int64), p[:, 0].astype(np.int64), n_classes=N_EXPR_CLASSES
        )
    return va_report(t, p)


def _valid_rows(rows: dict[str, LabelRows], task: str) -> dict[str, LabelRows]:
    """The rows read_label_csv keeps of a label file holding `rows`."""
    out = {}
    for vid, video in rows.items():
        keep = valid_label_rows(video.values, task)
        if keep.any():
            out[vid] = video if keep.all() else LabelRows(video.frames[keep],
                                                          video.values[keep])
    return out


def stage_evaluate(config: PipelineConfig, truth: dict, predictions: dict) -> EvalReport:
    """The report of the prediction rows against the labels."""
    # every video's rows became a track, so the tracks hold all of them
    return evaluate_files(None, None, config.task, pred=predictions,
                          truth={vid: _track_rows(t, t.values) for vid, t in truth.items()})


def _run_kelm(config: PipelineConfig, out_dir: Path, truth: dict, vad: dict | None) -> None:
    """The kelm command: window, featurize, train and score the dev windows,
    writing selection.csv and kelm_scores.npy to `out_dir`."""
    batches, targets = stage_window(config, truth, vad)
    feats = stage_features(config, batches)
    del batches  # the embedding tracks go before training
    model, selection = stage_train_kelm(config, feats, targets)
    write_csv(out_dir / "selection.csv", selection)
    np.save(out_dir / "kelm_scores.npy", stage_predict_kelm(config, feats, model))


def _run_fuse(
    config: PipelineConfig, out_dir: Path, truth: dict, vad: dict | None
) -> EvalReport:
    """The fuse command: fuse, postprocess and evaluate, writing the fusion
    records, predictions.csv and the report to `out_dir`; the report."""
    fused, records = stage_fuse(config, out_dir, truth, vad)
    for name, rows in records.items():
        write_csv(out_dir / name, rows)
    predictions = stage_postprocess(config, fused, truth)
    write_label_csv(out_dir / "predictions.csv", predictions, task=config.task)
    report = stage_evaluate(config, truth, predictions)
    write_report(report, out_dir / "report.txt", out_dir / "report.csv")
    return report


@dataclass(frozen=True)
class Stage:
    """A stage command: its name, help text and function of the config, the staging
    directory it writes into, the parsed labels and the parsed VAD (None
    without one); `kelm` ones need kelm.enabled."""

    name: str
    help: str
    command: Callable[[PipelineConfig, Path, dict, dict | None], EvalReport | None]
    kelm: bool = False


def stages() -> list[Stage]:
    """Every stage command, in run order. Built when called, so a wrapper
    set on a command function of this module is the one that runs."""
    return [
        Stage("kelm", "slice the VAD-gated windows, compute their normalized "
              "functionals, select C on the dev split, train, and score the dev windows",
              _run_kelm, kelm=True),
        Stage("fuse", "spread the KELM's dev window scores onto the working timeline, "
              "combine that track and the base predictions by fusion.method, "
              "interpolate, smooth, emit the predictions, and score them against the "
              "labels", _run_fuse),
    ]


def planned_stages(config: PipelineConfig) -> list[Stage]:
    """The stages of a run of `config`; a fusion-only run starts at fuse."""
    return [s for s in stages() if config.kelm.enabled or not s.kelm]


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    report: EvalReport
    run_dir: Path
    manifest: dict


def _build_manifest(config: PipelineConfig, out_dir: Path) -> dict:
    """The manifest of the files in `out_dir`, which holds this run's alone."""
    inputs = {}
    for path_s in (
        config.paths.embeddings,
        config.paths.labels,
        config.paths.vad,
        *config.paths.base_predictions,
    ):
        if path_s and Path(path_s).exists():
            inputs[str(path_s)] = _sha256_file(Path(path_s))
    outputs = {p.name: _sha256_file(p) for p in sorted(out_dir.iterdir())}
    listing = "\n".join(f"{rel}:{digest}" for rel, digest in sorted(outputs.items()))
    return {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "task": config.task,
        "inputs": inputs,
        "outputs": outputs,
        "outputs_hash": hashlib.sha256(listing.encode("utf-8")).hexdigest(),
    }


@contextmanager
def staged_writes(config: PipelineConfig) -> Iterator[Path]:
    """A fresh staging directory beside the config's run directory for one
    command to write into. Once the command returns, its files move into
    the run directory, made if absent; the staging directory goes either
    way, so a command that raises leaves the run directory as it was."""
    run_dir = config.run_dir()
    _make_dir(run_dir.parent, "output.dir")
    staging = Path(tempfile.mkdtemp(prefix=f".{run_dir.name}.", dir=run_dir.parent))
    try:
        yield staging
        _make_dir(run_dir, "the run directory")
        for path in sorted(staging.iterdir()):
            path.replace(run_dir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute the config's planned stages in order and write the run manifest.
    The labels and the VAD are parsed once; each command starts from them
    alone and reads what an earlier one wrote from the files, as a stage
    command does."""
    timings: dict[str, float] = {}
    with staged_writes(config) as out_dir:
        _write_json(out_dir / "config.json", config_to_dict(config))
        t0 = time.perf_counter()
        # in the first command's seconds, so timings.json has them
        truth, vad = _read_truth(config), _read_vad(config)
        for stage in planned_stages(config):
            report = stage.command(config, out_dir, truth, vad)  # fuse returns one
            now = time.perf_counter()
            timings[stage.name], t0 = now - t0, now
        manifest = _build_manifest(config, out_dir)
        _write_json(out_dir / "manifest.json", manifest)
        _write_json(out_dir / "timings.json", {k: round(v, 3) for k, v in timings.items()},
                    sort_keys=False)
    return RunResult(report=report, run_dir=config.run_dir(), manifest=manifest)
