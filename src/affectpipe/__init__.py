"""Windowed audiovisual emotion recognition over embedding tracks.

The package covers the full chain: frame-track resampling and
smoothing, VAD-gated window slicing with per-window targets, window
functionals with MinMax normalization, kernel extreme learning
machines, a from-scratch random forest with out-of-bag estimates,
three late-fusion strategies, challenge metrics (macro-F1 and
concordance correlation), and a deterministic, manifest-producing
pipeline with a CLI. See the demos/ directory for narrative walks
through each capability.
"""

from .errors import (
    AffectPipeError,
    AlignmentError,
    ConfigError,
    DataFormatError,
    MissingInputError,
    SolverError,
    TaskMismatchError,
)
from .features import (
    FunctionalSet,
    MinMaxScaler,
    apply_minmax,
    batch_functionals,
    fit_minmax,
    functionals,
    per_video_minmax,
)
from .forest import (
    ForestModel,
    ForestSpec,
    predict_forest,
    predict_forest_labels,
    select_n_trees,
    train_forest,
)
from .fusion import (
    FusionMatrix,
    FusionPool,
    apply_fusion,
    dwf_search,
    mean_fusion,
    sample_pool,
    selector_matrix,
    stack_and_fuse_rf,
    uniform_matrix,
)
from .kelm import (
    KelmModel,
    KernelSpec,
    class_weights,
    encode_classification_targets,
    kernel_matrix,
    predict_kelm,
    predict_kelm_labels,
    select_c,
    train_kelm,
)
from .metrics import (
    EvalReport,
    ccc,
    challenge_score_va,
    classification_report,
    format_score,
    pearson,
    va_report,
)
from .pipeline import (
    PipelineConfig,
    RunResult,
    evaluate_files,
    load_config,
    run_pipeline,
)
from .synth import SyntheticSpec, synth_generate, synth_tracks
from .timeline import (
    FrameTrack,
    SmoothingSpec,
    hamming_smooth,
    interpolate_to,
    resample_track,
)
from .windowing import (
    LabelRows,
    VadMask,
    WindowBatch,
    WindowSpec,
    labels_to_track,
    read_label_csv,
    slice_windows,
    voiced_segments,
    window_labels,
    window_va_means,
    write_label_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AffectPipeError",
    "AlignmentError",
    "ConfigError",
    "DataFormatError",
    "MissingInputError",
    "SolverError",
    "TaskMismatchError",
    "FunctionalSet",
    "MinMaxScaler",
    "apply_minmax",
    "batch_functionals",
    "fit_minmax",
    "functionals",
    "per_video_minmax",
    "ForestModel",
    "ForestSpec",
    "predict_forest",
    "predict_forest_labels",
    "select_n_trees",
    "train_forest",
    "FusionMatrix",
    "FusionPool",
    "apply_fusion",
    "dwf_search",
    "mean_fusion",
    "sample_pool",
    "selector_matrix",
    "stack_and_fuse_rf",
    "uniform_matrix",
    "KelmModel",
    "KernelSpec",
    "class_weights",
    "encode_classification_targets",
    "kernel_matrix",
    "predict_kelm",
    "predict_kelm_labels",
    "select_c",
    "train_kelm",
    "EvalReport",
    "ccc",
    "challenge_score_va",
    "classification_report",
    "format_score",
    "pearson",
    "va_report",
    "PipelineConfig",
    "RunResult",
    "evaluate_files",
    "load_config",
    "run_pipeline",
    "SyntheticSpec",
    "synth_generate",
    "synth_tracks",
    "FrameTrack",
    "SmoothingSpec",
    "hamming_smooth",
    "interpolate_to",
    "resample_track",
    "LabelRows",
    "VadMask",
    "WindowBatch",
    "WindowSpec",
    "labels_to_track",
    "read_label_csv",
    "slice_windows",
    "voiced_segments",
    "window_labels",
    "window_va_means",
    "write_label_csv",
    "__version__",
]
