"""End-to-end orchestration: config loading, staged runs, manifests.

A run executes resample -> VAD gate -> window -> reduce targets ->
functionals -> normalize -> KELM train/predict (or base-prediction
ingestion) -> fusion -> interpolation to the ground-truth timeline ->
smoothing -> evaluation. Every stage writes its outputs to files in
the run directory. Run stage by stage (the CLI), each stage reads its
inputs from those files; the features stage re-slices the embedding
track instead, and checks its windows against the `windows.csv` index.
A single-shot run hands each stage's products to the later stages in
memory, in one `products` dict: the values a stage would otherwise
parse from the files, equal to what that parse gives. Both ways write
bit-identical artifacts.

Determinism contract: CSV floats are written with 17 significant
digits and the window-level arrays as .npy, so both read back exactly;
per-video work merges in sorted video-id order regardless of the worker
count, and the manifest's output hash depends only on the config, the
seed, and the input files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, get_args, get_origin, get_type_hints

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
    write_scaler_csv,
)
from .forest import ForestSpec
from .fusion import (
    FusionMatrix,
    apply_fusion,
    dwf_search,
    mean_fusion,
    sample_pool,
    stack_and_fuse_rf,
    uniform_matrix,
    write_fusion_matrix,
    write_score_table,
)
from .kelm import (
    DEFAULT_C_GRID,
    KelmModel,
    KernelSpec,
    class_weights,
    encode_classification_targets,
    predict_kelm,
    select_c,
    train_kelm,
)
from .metrics import EvalReport, classification_report, va_report, write_report
from .synth import SyntheticSpec
from .timeline import (
    FLOAT_FMT,
    N_EXPR_CLASSES,
    FrameTrack,
    SmoothingSpec,
    csv_row_format,
    hamming_smooth,
    interpolate_to,
    read_track_csv,
    resample_track,
    write_track_csv,
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
FUSION_METHODS = ("dwf", "rf", "mean")
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
    tree_grid: tuple[int, ...] = (10, 20, 50, 100, 200)


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


# Field metadata. _UNHASHED marks a field that cannot change an output
# byte, so config_to_dict leaves it out. _FROM_PARENT holds a function
# from the built parent to the section fields that the parent sets;
# those fields are not keys of the section and are hashed in the parent.
_UNHASHED = "unhashed"
_FROM_PARENT = "from_parent"


def _synth_from_top(config: PipelineConfig) -> dict:
    """The synth section is a SyntheticSpec minus these top-level fields."""
    return dict(task=config.task, seed=config.seed, fps=config.fps_target)


@dataclass(frozen=True)
class PipelineConfig:
    """The YAML config: its keys, their types and defaults are these fields."""

    task: str = "expr"
    seed: int = 0
    workers: int = field(default=1, metadata={_UNHASHED: True})
    fps_target: float = 5.0
    paths: PathSettings = PathSettings()
    split: SplitSettings = SplitSettings()
    window: WindowSettings = WindowSettings()
    functionals: tuple[str, ...] = ("mean", "max", "min")
    normalization: str = "global_minmax"
    kelm: KelmSettings = KelmSettings()
    fusion: FusionSettings = FusionSettings()
    postprocess: PostprocessSettings = PostprocessSettings()
    output: OutputSettings = field(default=OutputSettings(), metadata={_UNHASHED: True})
    synth: SyntheticSpec | None = field(
        default=None, metadata={_FROM_PARENT: _synth_from_top}
    )

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
    problems raise ConfigError; a missing config file raises
    MissingInputError. Referenced data files are checked by the stages
    that read them, so a config may be loaded before `synth` has
    produced its files.
    """
    raw: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise MissingInputError(f"config file not found: {path}")
        loaded = yaml.safe_load(path.read_text(encoding="utf-8"))
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        raw = loaded

    flags = {k: v for k, v in dict(seed=seed, workers=workers).items() if v is not None}
    config = _build(PipelineConfig, {**raw, **flags}, "config")
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
    present = [f for f in keys if f.name in mapping]
    later = [f for f in present if _FROM_PARENT in f.metadata]
    values = {
        f.name: _coerce(hints[f.name], mapping[f.name], f"{where}.{f.name}")
        for f in present
        if f not in later
    }
    try:
        built = cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    for f in later:
        value = _coerce(
            hints[f.name], mapping[f.name], f"{where}.{f.name}", **_set_by(f, built)
        )
        built = replace(built, **{f.name: value})
    return built


def _set_by(f, parent) -> dict:
    """The fields of section `f` that its parent sets."""
    return f.metadata[_FROM_PARENT](parent) if _FROM_PARENT in f.metadata else {}


_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str, int)}


def _coerce(annotation, value, where: str, **given):
    """`value` read from YAML, checked against one field annotation.

    A float field also takes an int and stores a float; a str field
    also takes an int (numeric video ids); a tuple field takes a list;
    null is accepted only where the annotation is `X | None`.
    """
    if isinstance(annotation, types.UnionType):  # X | None
        if value is None:
            return None
        (annotation,) = [a for a in get_args(annotation) if a is not type(None)]
    if is_dataclass(annotation):
        return _build(annotation, value, where, **given)
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
        return annotation(value)
    except OverflowError as exc:  # an int too large for a float
        raise ConfigError(f"{where}: {exc}") from exc


def _validate(config: PipelineConfig) -> None:
    paths = config.paths
    dev_videos = config.split.dev_videos
    if config.task not in ("expr", "va"):
        raise ConfigError(f"task must be 'expr' or 'va', got {config.task!r}")
    if config.fps_target <= 0:
        raise ConfigError("fps_target must be positive")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
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
    if config.fusion.method not in FUSION_METHODS:
        raise ConfigError(
            f"fusion method must be one of {FUSION_METHODS}, got {config.fusion.method!r}"
        )
    if config.fusion.pool_size < 1 or config.fusion.alpha <= 0:
        raise ConfigError("fusion pool_size must be >= 1 and alpha positive")
    if not config.fusion.tree_grid or min(config.fusion.tree_grid) < 1:
        raise ConfigError("fusion tree_grid must be a nonempty list of positive counts")
    if not config.kelm.c_grid or min(config.kelm.c_grid) <= 0:
        raise ConfigError("kelm c_grid must be a nonempty list of positive values")
    if config.postprocess.smooth_seconds <= 0:
        raise ConfigError("postprocess smooth_seconds must be positive")
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


def config_to_dict(config: PipelineConfig) -> dict:
    """Canonical nested dict of everything that can influence outputs.

    The output directory and worker count are deliberately excluded:
    neither changes a single output byte, so runs of the same config
    into different directories share one hash.
    """
    return _plain(config)


def _plain(value, given=()):
    """JSON-ready copy of a config value without its unhashed fields.

    Fields in `given` are set by the parent and hashed there.
    """
    if is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name), _set_by(f, value))
            for f in fields(value)
            if f.name not in given and not f.metadata.get(_UNHASHED)
        }
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
    return path


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


def _load_truth_tracks(config: PipelineConfig, products: dict) -> dict[str, FrameTrack]:
    """Ground-truth tracks on their native (per-video) timelines.

    The first stage of a run that needs them parses the labels. The run
    keeps the tracks, which share their values with the label rows.
    """
    if "truth" not in products:
        path = _require_file(config.paths.labels, "labels file")
        products["truth"] = {
            vid: labels_to_track(
                vid,
                rows,
                fps=config.postprocess.fps_for(vid, config.fps_target),
                task=config.task,
            )
            for vid, rows in _read_labels_checked(path, config.task).items()
        }
    return products["truth"]


def _truth_at_working_rate(config: PipelineConfig, products: dict) -> dict[str, FrameTrack]:
    out = {}
    for vid, track in _load_truth_tracks(config, products).items():
        if abs(track.fps - config.fps_target) < 1e-9:
            out[vid] = track
        elif track.fps > config.fps_target:
            out[vid] = resample_track(track, config.fps_target)
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


def _evaluated_videos(config: PipelineConfig, vids: Sequence[str]) -> list[str]:
    return sorted(config.split.dev_videos) if config.split.dev_videos else sorted(vids)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Intermediate file formats (pipeline-owned)
# ---------------------------------------------------------------------------


# windows.csv indexes the windows, one row per window, sorted by video.
# features.npy and window_targets.npy hold one row per windows.csv row;
# kelm_beta.npy holds one row per window of the training videos.
_WINDOWS_HEADER = "video_id,window_index,start,n_real"


def _windows_index(batches: dict[str, WindowBatch]) -> bytes:
    """The bytes of windows.csv: one (video, index, start, real frames) row per window."""
    rows = [_WINDOWS_HEADER + "\n"]
    for vid in sorted(batches):
        batch = batches[vid]
        fmt = csv_row_format(vid, ",%d,%d,%d\n")
        n_real = batch.pad_mask.sum(axis=1).tolist()
        rows += [fmt % row for row in zip(range(batch.n_windows), batch.starts, n_real)]
    return "".join(rows).encode("utf-8")


def _read_windows_csv(run_dir: Path) -> dict[str, list[int]]:
    """Each video's window starts, in the order of the windows.csv rows."""
    path = _require_file(run_dir / "windows.csv", "window stage output")
    index: dict[str, list[int]] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _WINDOWS_HEADER.split(","):
            raise DataFormatError(f"{path}: expected header {_WINDOWS_HEADER}")
        for row in reader:
            try:
                vid, *ints = row
                i, start, _ = map(int, ints)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
            starts = index.setdefault(vid, [])
            if i != len(starts):
                raise DataFormatError(
                    f"{path}:{reader.line_num}: window_index {i} of {vid!r} out of sequence"
                )
            starts.append(start)
    if not index:
        raise DataFormatError(f"{path}: no windows")
    return index


def _load_rows(path: Path, stage: str, dtype, shape: tuple) -> np.ndarray:
    """A window-level .npy array of `dtype` and `shape`; None is any width."""
    path = _require_file(path, f"{stage} stage output")
    try:
        array = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataFormatError(f"{path}: not a loadable .npy array: {exc}") from None
    if array.dtype != dtype or array.ndim != len(shape) or any(
        want not in (None, got) for got, want in zip(array.shape[1:], shape[1:])
    ):
        raise DataFormatError(
            f"{path}: expected {np.dtype(dtype)} of shape {shape}, "
            f"got {array.dtype} of shape {array.shape}"
        )
    if len(array) != shape[0]:
        raise AlignmentError(
            f"{path} has {len(array)} rows, expected {shape[0]}; rerun the {stage} stage"
        )
    return array


def _windows_and_features(run_dir: Path, take: Callable) -> tuple[dict, np.ndarray]:
    """The window index and features; `take` is products.get, or pop for the last user."""
    index = take("windows", None) or _read_windows_csv(run_dir)
    feats = take("features", None)
    if feats is None:
        n = sum(map(len, index.values()))
        feats = _load_rows(run_dir / "features.npy", "features", np.float64, (n, None))
    return index, feats


def _dev_rows(config: PipelineConfig, index: dict[str, list[int]]) -> np.ndarray:
    """Which rows of a window-level array belong to a dev video."""
    dev = set(_dev_split(config, list(index))[1])
    return np.repeat([vid in dev for vid in index], [len(s) for s in index.values()])


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _window_batches(config: PipelineConfig) -> dict[str, WindowBatch]:
    """Resample each embedding track, gate it by VAD and slice its windows.

    The window stage writes the index of these windows and the features
    stage recomputes them, so no copy of the track passes between them.
    """
    emb_path = _require_file(config.paths.embeddings, "embeddings file")
    source_fps = config.paths.source_fps or config.fps_target
    embeddings = read_track_csv(emb_path, fps=source_fps, kind="embedding")
    vad_path = config.paths.vad
    vad = read_vad_csv(_require_file(vad_path, "vad file")) if vad_path else None
    vids = sorted(embeddings)
    _dev_split(config, vids)

    def one(vid: str) -> WindowBatch:
        track = embeddings[vid]
        if abs(track.fps - config.fps_target) > 1e-9:
            track = resample_track(track, config.fps_target)
        segments = None
        if vad is not None:
            if vid not in vad:
                raise AlignmentError(f"window stage: no VAD rows for video {vid!r}")
            mask = vad[vid]
            if len(mask) != track.n_frames:
                raise AlignmentError(
                    f"window stage: VAD for {vid!r} has {len(mask)} frames, "
                    f"track has {track.n_frames}"
                )
            segments = voiced_segments(mask)
            if not segments:
                raise AlignmentError(f"window stage: video {vid!r} has no voiced frames")
        return slice_windows(track, config.window_spec, segments=segments)

    return dict(zip(vids, _map_ordered(one, vids, config.workers)))


# Every stage takes `products`, the dict a single-shot run hands from
# stage to stage: a stage takes an input from it when the stage that
# made the input ran in the same process, and parses the file otherwise
# (always so for the CLI, which passes an empty dict). It stores what
# it wrote and pops what it is the last to use.


def stage_window(config: PipelineConfig, run_dir: Path, products: dict) -> None:
    """Index the windows and reduce the labels to one target per window."""
    batches = _window_batches(config)
    truth = _truth_at_working_rate(config, products)
    vids = sorted(batches)
    missing = [v for v in vids if v not in truth]
    if missing:
        raise AlignmentError(f"window stage: no labels for video(s) {missing}")
    reduce = window_labels if config.task == "expr" else window_va_means
    targets = np.concatenate(_map_ordered(lambda vid: reduce(truth[vid], batches[vid]),
                                          vids, config.workers))
    (run_dir / "windows.csv").write_bytes(_windows_index(batches))
    np.save(run_dir / "window_targets.npy", targets)
    log.info("window stage: %d windows over %d videos", len(targets), len(vids))
    products["batches"] = batches
    products["windows"] = {vid: batches[vid].starts for vid in vids}
    products["targets"] = targets


def stage_features(config: PipelineConfig, run_dir: Path, products: dict) -> None:
    """Functionals over the windows, plus the configured normalization."""
    batches = products.pop("batches", None)
    if batches is None:
        index = _require_file(run_dir / "windows.csv", "window stage output")
        batches = _window_batches(config)
        if index.read_bytes() != _windows_index(batches):
            raise AlignmentError(
                f"features stage: {index} does not match the windows of the current "
                "inputs; rerun the window stage"
            )
    fset = config.functional_set
    vids = sorted(batches)

    def one(vid: str) -> np.ndarray:
        batch = batches[vid]
        return batch_functionals(batch.payload, fset, batch.pad_mask)

    feats = dict(zip(vids, _map_ordered(one, vids, config.workers)))
    if config.normalization == "global_minmax":
        train_vids, _ = _dev_split(config, vids)
        if not train_vids:
            raise ConfigError("global_minmax needs at least one non-dev video")
        scaler = fit_minmax([feats[v] for v in train_vids])
        feats = {vid: apply_minmax(feats[vid], scaler) for vid in vids}
        write_scaler_csv(run_dir / "scaler.csv", scaler)
    elif config.normalization == "per_video_minmax":
        feats = {vid: per_video_minmax(feats[vid]) for vid in vids}
    features = np.concatenate([feats[vid] for vid in vids])
    np.save(run_dir / "features.npy", features)
    products["features"] = features


def stage_train_kelm(config: PipelineConfig, run_dir: Path, products: dict) -> None:
    """Select the regularizer on the dev split and train on the rest."""
    if not config.kelm.enabled:
        raise ConfigError("kelm stage is disabled in this config")
    index, feats = _windows_and_features(run_dir, products.get)
    targets = products.pop("targets", None)
    if targets is None:
        targets = _load_rows(
            run_dir / "window_targets.npy", "window",
            *((np.int64, (len(feats),)) if config.task == "expr"
              else (np.float64, (len(feats), 2))),
        )
    dev = _dev_rows(config, index)
    if dev.all():
        raise ConfigError("kelm training needs at least one non-dev video")
    x_train, x_dev = feats[~dev], feats[dev]
    y_train, y_dev = targets[~dev], targets[dev]
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
    np.save(run_dir / "kelm_beta.npy", model.beta)
    products["kelm_model"] = model
    with (run_dir / "selection.csv").open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["c", "dev_score"])
        writer.writerow([FLOAT_FMT % best_c, FLOAT_FMT % dev_score])
    log.info("kelm: C=%g scores %.4f (%s) on the dev split", best_c, dev_score,
             config.metric)


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
    out = np.full((n_frames, width), np.nan)
    lead = (window_frames - hop_frames) // 2
    for start, row in zip(starts, scores):
        a = min(max(start + lead, 0), n_frames)
        b = min(a + hop_frames, n_frames)
        out[a:b] = row
    covered = ~np.isnan(out[:, 0])
    if not covered.any():
        raise AlignmentError("no window span lands inside the frame range")
    if not covered.all():
        idx = np.arange(n_frames, dtype=np.float64)
        for j in range(width):
            out[~covered, j] = np.interp(idx[~covered], idx[covered], out[covered, j])
    return out


def _rebuild_kelm(
    config: PipelineConfig, run_dir: Path, index: dict[str, list[int]], feats: np.ndarray
) -> KelmModel:
    """The model train-kelm solved, from the features it trained on and its beta."""
    d_mat = feats[~_dev_rows(config, index)]
    beta = _load_rows(
        run_dir / "kelm_beta.npy", "train-kelm", np.float64, (len(d_mat), config.n_outputs)
    )
    kernel = config.kernel_spec.resolve(d_mat.shape[1])
    return KelmModel(D=d_mat, beta=beta, kernel=kernel, task=_KELM_TASKS[config.task])


def stage_predict_kelm(config: PipelineConfig, run_dir: Path, products: dict) -> None:
    """Score every window and lay the scores onto the working timeline."""
    index, feats = _windows_and_features(run_dir, products.pop)
    model = products.pop("kelm_model", None) or _rebuild_kelm(config, run_dir, index, feats)
    # the window stage checked each video's labels against its windows'
    # frame count, so the labels give the timeline the windows were cut from
    truth = _truth_at_working_rate(config, products)
    vids = list(index)
    missing = [v for v in vids if v not in truth]
    if missing:
        raise AlignmentError(f"predict-kelm stage: no labels for video(s) {missing}")
    spec = config.window_spec
    offsets = np.cumsum([len(index[vid]) for vid in vids])
    rows = dict(zip(vids, np.split(feats, offsets[:-1])))

    def one(vid: str) -> FrameTrack:
        scores = predict_kelm(model, rows[vid])
        frame_scores = _spread_window_scores(
            index[vid], scores, truth[vid].n_frames, spec.window_frames, spec.hop_frames
        )
        if config.task == "va":
            frame_scores = np.clip(frame_scores, -1.0, 1.0)
        # at the working rate, as the fuse stage reads models/kelm.csv
        return FrameTrack(vid, config.fps_target, frame_scores, kind=config.track_kind)

    tracks = _map_ordered(one, vids, config.workers)
    (run_dir / "models").mkdir(exist_ok=True)
    write_track_csv(run_dir / "models" / "kelm.csv", tracks)
    products["kelm_tracks"] = dict(zip(vids, tracks))


def _load_model_tracks(
    config: PipelineConfig, run_dir: Path, products: dict
) -> tuple[list[str], list[dict[str, FrameTrack]]]:
    """All fusion inputs: this run's KELM track plus configured bases."""
    names: list[str] = []
    models: list[dict[str, FrameTrack]] = []
    if config.kelm.enabled:
        names.append("kelm")
        models.append(products.pop("kelm_tracks", None) or read_track_csv(
            _require_file(run_dir / "models" / "kelm.csv", "predict-kelm stage output"),
            fps=config.fps_target, kind=config.track_kind,
        ))
    for pred in config.paths.base_predictions:
        path = _require_file(pred, "base predictions file")
        name = path.stem
        while name in names:
            name += "+"
        names.append(name)
        models.append(read_track_csv(path, fps=config.fps_target, kind=config.track_kind))
    return names, models


def stage_fuse(config: PipelineConfig, run_dir: Path, products: dict) -> None:
    """Combine model score tracks with the configured fusion method."""
    names, models = _load_model_tracks(config, run_dir, products)
    vids = sorted(models[0])
    # every fusion method needs each video's model tracks on model 0's frames
    for name, model in zip(names[1:], models[1:]):
        if sorted(model) != vids:
            raise AlignmentError(
                f"fuse stage: model {name!r} covers videos {sorted(model)}, "
                f"expected {vids}"
            )
        for v in vids:
            if model[v].n_frames != models[0][v].n_frames:
                raise AlignmentError(
                    f"fuse stage: model {name!r} has {model[v].n_frames} frames "
                    f"for {v!r}, model {names[0]!r} has {models[0][v].n_frames}"
                )
    _dev_split(config, vids)
    eval_vids = _evaluated_videos(config, vids)
    n_outputs = config.n_outputs
    matrix: FusionMatrix | None = None
    method = config.fusion.method
    if method in ("dwf", "rf") and not config.split.dev_videos:
        raise ConfigError(f"{method} fusion needs a nonempty split.dev_videos")

    if method in ("dwf", "rf"):
        dev_vids = sorted(config.split.dev_videos)
        truth = _truth_at_working_rate(config, products)
        missing = [v for v in dev_vids if v not in truth]
        if missing:
            raise AlignmentError(f"fuse stage: no labels for dev video(s) {missing}")
        dev_preds = [
            np.vstack([model[v].values for v in dev_vids]) for model in models
        ]
        for v in dev_vids:
            if truth[v].n_frames != models[0][v].n_frames:
                raise AlignmentError(
                    f"fuse stage: labels for {v!r} have {truth[v].n_frames} frames, "
                    f"predictions have {models[0][v].n_frames}"
                )
        if config.task == "expr":
            dev_truth = np.concatenate([truth[v].labels() for v in dev_vids])
        else:
            dev_truth = np.vstack([truth[v].values for v in dev_vids])

    if method == "mean":
        fused = [
            mean_fusion([model[vid].values for model in models], task=config.task)
            for vid in eval_vids
        ]
        matrix = uniform_matrix(len(models), n_outputs)
    elif method == "dwf":
        pool = sample_pool(
            len(models),
            n_outputs,
            pool_size=config.fusion.pool_size,
            alpha=config.fusion.alpha,
            seed=config.seed,
        )
        matrix, best_score, scores = dwf_search(
            pool, dev_preds, dev_truth, metric=config.metric
        )
        write_score_table(run_dir / "pool_scores.csv", scores)
        log.info("dwf: best of %d matrices scores %.4f on the dev split",
                 len(pool), best_score)
        fused = [
            apply_fusion(
                [model[vid].values for model in models], matrix, task=config.task
            )
            for vid in eval_vids
        ]
    else:  # rf
        target_preds = [
            np.vstack([model[v].values for v in eval_vids]) for model in models
        ]
        fused_arr, info = stack_and_fuse_rf(
            dev_preds,
            dev_truth,
            target_preds,
            task=config.task,
            base_spec=ForestSpec(n_trees=config.fusion.tree_grid[0], seed=config.seed),
            grid=config.fusion.tree_grid,
        )
        if info.overfit_gap > 0:
            log.warning(
                "rf fusion: dev %s %.4f exceeds its out-of-bag estimate %.4f "
                "by %.4f; treat dev gains as optimistic",
                info.metric, info.dev_score, info.oob_metric_score, info.overfit_gap,
            )
        with (run_dir / "rf_info.csv").open("w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["metric", "value"])
            writer.writerow(["n_trees", str(info.n_trees)])
            writer.writerow(["oob_score", FLOAT_FMT % info.oob_score])
            writer.writerow([f"oob_{info.metric}", FLOAT_FMT % info.oob_metric_score])
            writer.writerow(["dev_score", FLOAT_FMT % info.dev_score])
            writer.writerow(["overfit_gap", FLOAT_FMT % info.overfit_gap])
        ends = np.cumsum([models[0][vid].n_frames for vid in eval_vids])
        fused = np.split(fused_arr, ends[:-1])
    if matrix is not None:
        write_fusion_matrix(
            run_dir / "fusion_matrix.csv",
            matrix,
            model_names=names,
            output_names=[f"c{k}" for k in range(n_outputs)],
        )
    # at the working rate and of the task's kind, as postprocess reads
    # fused.csv, and numbered from model 0's first frame
    tracks = [
        FrameTrack(vid, config.fps_target, values, kind=config.track_kind,
                   frame_index_origin=models[0][vid].frame_index_origin)
        for vid, values in zip(eval_vids, fused)
    ]
    write_track_csv(run_dir / "fused.csv", tracks)
    products["fused"] = dict(zip(eval_vids, tracks))


def stage_postprocess(config: PipelineConfig, run_dir: Path, products: dict) -> None:
    """Interpolate fused scores to the truth timeline, smooth, and emit labels."""
    fused = products.pop("fused", None) or read_track_csv(
        _require_file(run_dir / "fused.csv", "fuse stage output"),
        fps=config.fps_target,
        kind=config.track_kind,
    )
    truth = _load_truth_tracks(config, products)
    smoothing = SmoothingSpec(window_seconds=config.postprocess.smooth_seconds)
    vids = sorted(fused)
    missing = [v for v in vids if v not in truth]
    if missing:
        raise AlignmentError(f"postprocess stage: no labels for video(s) {missing}")

    def one(vid: str) -> tuple[str, LabelRows]:
        target = truth[vid]
        values = hamming_smooth(
            interpolate_to(fused[vid], target.fps, target.n_frames), smoothing
        ).values
        if config.task == "expr":
            values = values.argmax(axis=1)[:, None]
        return vid, _track_rows(target, values)

    predictions = dict(_map_ordered(one, vids, config.workers))
    write_label_csv(run_dir / "predictions.csv", predictions, task=config.task)
    products["predictions"] = predictions


def _track_rows(track: FrameTrack, values: np.ndarray) -> LabelRows:
    """`values` as the label rows of the track's frames."""
    origin = track.frame_index_origin
    return LabelRows(np.arange(origin, origin + track.n_frames), values)


def evaluate_files(
    pred_csv: str | Path,
    truth_csv: str | Path,
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
    read_label_csv returns them, and are not read again; invalid
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


def stage_evaluate(config: PipelineConfig, run_dir: Path, products: dict) -> EvalReport:
    truth = products.pop("truth", None)
    if truth is not None:
        # every video's rows became a track, so the tracks hold all of them
        truth = {vid: _track_rows(t, t.values) for vid, t in truth.items()}
    report = evaluate_files(
        _require_file(run_dir / "predictions.csv", "postprocess stage output"),
        _require_file(config.paths.labels, "labels file"),
        config.task,
        pred=products.pop("predictions", None),
        truth=truth,
    )
    write_report(report, run_dir / "report.txt", run_dir / "report.csv")
    return report


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    report: EvalReport
    run_dir: Path
    manifest: dict


_MANIFEST_EXCLUDED = ("manifest.json", "timings.json")


def _build_manifest(config: PipelineConfig, run_dir: Path) -> dict:
    inputs = {}
    for path_s in (
        config.paths.embeddings,
        config.paths.labels,
        config.paths.vad,
        *config.paths.base_predictions,
    ):
        if path_s and Path(path_s).exists():
            inputs[str(path_s)] = _sha256_file(Path(path_s))
    outputs = {
        str(p.relative_to(run_dir)): _sha256_file(p)
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name not in _MANIFEST_EXCLUDED
    }
    listing = "\n".join(f"{rel}:{digest}" for rel, digest in sorted(outputs.items()))
    return {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "task": config.task,
        "inputs": inputs,
        "outputs": outputs,
        "outputs_hash": hashlib.sha256(listing.encode("utf-8")).hexdigest(),
    }


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute every stage in order and write the run manifest."""
    run_dir = config.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps(config_to_dict(config), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    stages: list[tuple[str, Callable]] = []
    if config.kelm.enabled:
        # the windowing/feature stages exist to feed the KELM; a
        # fusion-only run starts straight from the base prediction files
        stages += [
            ("window", stage_window),
            ("features", stage_features),
            ("train-kelm", stage_train_kelm),
            ("predict-kelm", stage_predict_kelm),
        ]
    stages += [
        (f"fuse-{config.fusion.method}", stage_fuse),
        ("postprocess", stage_postprocess),
    ]
    timings: dict[str, float] = {}
    products: dict = {}
    for name, fn in stages:
        t0 = time.perf_counter()
        fn(config, run_dir, products)
        timings[name] = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = stage_evaluate(config, run_dir, products)
    timings["evaluate"] = time.perf_counter() - t0
    manifest = _build_manifest(config, run_dir)
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (run_dir / "timings.json").write_text(
        json.dumps({k: round(v, 3) for k, v in timings.items()}, indent=2) + "\n",
        encoding="utf-8",
    )
    return RunResult(report=report, run_dir=run_dir, manifest=manifest)
