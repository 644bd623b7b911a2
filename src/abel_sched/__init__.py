"""Learning-rate scheduling driven by weight-norm dynamics.

The package bundles a bounce-triggered adaptive scheduler and the standard
baseline schedules, a small deterministic training core instrumented for
weight-norm measurements, an experiment harness, and offline bounce
analysis of logged runs.
"""

from .adaptive import AbelScheduler, PlateauScheduler, make_scheduler
from .analysis import (
    AnalysisReport,
    NormTrace,
    classify_trace,
    decay_alignment,
    detect_bounce,
    post_decay_drops,
    top_layer_contribution,
)
from .checkpoint import (
    CheckpointError,
    ResumeRefusedError,
    load_checkpoint,
    prepare_resume,
    save_checkpoint,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    OptimizerSpec,
    config_hash,
    format_config,
    parse_config,
)
from .datasets import (
    BlobsSpec,
    DatasetError,
    IdxSpec,
    SpiralsSpec,
    make_dataset,
    read_idx_images,
    read_idx_labels,
)
from .models import EvalSet, Model, ModelArch, NumericError, StepStats, TrainSet, loss_ce
from .optim import (
    AdamState,
    MomentumState,
    clip_global_norm,
    growth_threshold_lr,
    predicted_delta_wsq,
    step_adam,
    step_sgd,
)
from .params import Layout, ParamSet, angle_cos_sin, inner_gw, weight_norm_sq
from .schedules import LrEvent, ScheduleSpec, lr_at, warmup_scale
from .state_io import StateDecodeError, restore_scheduler, serialize_scheduler

from ._version import __version__
from .runner import (
    DivergenceError,
    EpochRecord,
    RunResult,
    RunState,
    read_events,
    read_metrics,
    run_experiment,
)
from .sweep import SweepPoint, apply_point, parse_grid, run_sweep

__all__ = [
    "AbelScheduler",
    "AdamState",
    "AnalysisReport",
    "BlobsSpec",
    "CheckpointError",
    "ConfigError",
    "DatasetError",
    "DivergenceError",
    "EpochRecord",
    "EvalSet",
    "ExperimentConfig",
    "IdxSpec",
    "Layout",
    "LrEvent",
    "Model",
    "ModelArch",
    "ModelSpec",
    "MomentumState",
    "NormTrace",
    "NumericError",
    "OptimizerSpec",
    "ParamSet",
    "PlateauScheduler",
    "ResumeRefusedError",
    "RunResult",
    "RunState",
    "ScheduleSpec",
    "SpiralsSpec",
    "StateDecodeError",
    "StepStats",
    "SweepPoint",
    "TrainSet",
    "angle_cos_sin",
    "apply_point",
    "classify_trace",
    "clip_global_norm",
    "config_hash",
    "decay_alignment",
    "detect_bounce",
    "format_config",
    "growth_threshold_lr",
    "inner_gw",
    "load_checkpoint",
    "loss_ce",
    "lr_at",
    "make_dataset",
    "make_scheduler",
    "parse_config",
    "parse_grid",
    "post_decay_drops",
    "predicted_delta_wsq",
    "prepare_resume",
    "read_events",
    "read_idx_images",
    "read_idx_labels",
    "read_metrics",
    "restore_scheduler",
    "run_experiment",
    "run_sweep",
    "save_checkpoint",
    "serialize_scheduler",
    "step_adam",
    "step_sgd",
    "top_layer_contribution",
    "warmup_scale",
    "weight_norm_sq",
]
