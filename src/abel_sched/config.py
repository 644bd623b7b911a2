"""Experiment configuration: a flat, typed, line-oriented text format.

Grammar (one assignment per line)::

    config   := line*
    line     := blank | comment | key '=' value
    comment  := '#' ...
    key      := dotted identifier, e.g. ``dataset.kind``
    value    := int | float | bool | word | comma list | milestone list

Every key has a declared type and default; unknown keys and out-of-range
values are rejected with the offending key named. ``format_config`` emits
keys in a fixed order with round-trippable float formatting, so
``parse_config(format_config(c)) == c`` and the sha256 of the canonical
text serves as the config hash.

Keys (defaults in parentheses):

    seed (0), epochs, batch_size (128), base_lr, weight_decay (0),
    label_smoothing (0), clip_norm (0 = off), log_dir, checkpoint_every
    (0 = off), log_gw (false), eval_batch (1024),
    auto_stop.min_improvement (0 = off),
    dataset.kind = blobs | spirals | idx  and per-kind fields,
    model.kind = mlp | conv, model.hidden, model.activation,
    model.normalize, model.init_scale, model.input_shape,
    optimizer.kind = momentum | adam, optimizer.momentum,
    optimizer.beta1/2, optimizer.eps,
    schedule.kind and the per-kind schedule fields; the schedule's
    base_lr and total_epochs come from the top-level keys, and an
    ExperimentConfig whose schedule disagrees with them is refused.

``epochs``, ``base_lr``, ``log_dir`` and ``dataset.kind`` are required.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .datasets import BlobsSpec, DatasetSpec, IdxSpec, SpiralsSpec
from .schedules import ScheduleSpec


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


@dataclass(frozen=True)
class ModelSpec:
    """Model shape as configured; input_dim and classes come from the dataset."""

    kind: str = "mlp"
    hidden: tuple[int, ...] = (32, 16)
    activation: str = "relu"
    normalize: bool = False
    init_scale: float = 1.0
    input_shape: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "momentum"
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class ExperimentConfig:
    epochs: int
    base_lr: float
    log_dir: str
    dataset: DatasetSpec
    model: ModelSpec = ModelSpec()
    optimizer: OptimizerSpec = OptimizerSpec()
    schedule: ScheduleSpec = None  # type: ignore[assignment]
    seed: int = 0
    batch_size: int = 128
    weight_decay: float = 0.0
    label_smoothing: float = 0.0
    clip_norm: float = 0.0
    checkpoint_every: int = 0
    log_gw: bool = False
    eval_batch: int = 1024
    auto_stop_min_improvement: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.base_lr > 0:
            raise ConfigError("base_lr must be > 0")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay must be >= 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label_smoothing must lie in [0, 1)")
        if not self.clip_norm >= 0:
            raise ConfigError("clip_norm must be >= 0 (0 disables clipping)")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.eval_batch < 1:
            raise ConfigError("eval_batch must be >= 1")
        for key, text in (("log_dir", self.log_dir),
                          ("dataset.path", getattr(self.dataset, "path", ""))):
            if text != text.strip() or "#" in text or len(text.splitlines()) > 1:
                raise ConfigError(f"{key} {text!r} does not fit on one config line")
        if self.schedule is None:
            object.__setattr__(self, "schedule", ScheduleSpec(
                kind="constant", base_lr=self.base_lr, total_epochs=self.epochs))
        elif (self.schedule.base_lr, self.schedule.total_epochs) != (self.base_lr, self.epochs):
            # The config text carries only the top-level pair, so a schedule
            # with its own would come back from a checkpoint changed.
            raise ConfigError(
                f"schedule base_lr/total_epochs {self.schedule.base_lr!r}/"
                f"{self.schedule.total_epochs} differ from base_lr/epochs "
                f"{self.base_lr!r}/{self.epochs}")


# -- schema -------------------------------------------------------------------

def _parse_float(text: str) -> float:
    """A finite float: ``nan`` and ``inf`` (or a literal that overflows to it)
    would slip past range checks such as ``clip_norm > 0``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _parse_milestones(text: str) -> tuple[tuple[int, float], ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        epoch, _, factor = part.partition(":")
        out.append((int(epoch), _parse_float(factor)))
    return tuple(out)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{e}:{f!r}" for e, f in value)
        return ",".join(str(v) for v in value)
    return str(value)


_INT, _FLOAT, _BOOL, _STR = int, _parse_float, _parse_bool, str

# key -> (parser, default); None default means required
_SCHEMA: dict[str, tuple] = {
    "seed": (_INT, 0),
    "epochs": (_INT, None),
    "batch_size": (_INT, 128),
    "base_lr": (_FLOAT, None),
    "weight_decay": (_FLOAT, 0.0),
    "label_smoothing": (_FLOAT, 0.0),
    "clip_norm": (_FLOAT, 0.0),
    "log_dir": (_STR, None),
    "checkpoint_every": (_INT, 0),
    "log_gw": (_BOOL, False),
    "eval_batch": (_INT, 1024),
    "auto_stop.min_improvement": (_FLOAT, 0.0),
    "dataset.kind": (_STR, None),
    "dataset.classes": (_INT, 4),
    "dataset.dim": (_INT, 20),
    "dataset.samples": (_INT, 2048),
    "dataset.test_samples": (_INT, 8192),
    "dataset.label_noise": (_FLOAT, 0.0),
    "dataset.separation": (_FLOAT, 2.5),
    "dataset.turns": (_FLOAT, 1.75),
    "dataset.jitter": (_FLOAT, 0.15),
    "dataset.seed": (_INT, 0),
    "dataset.path": (_STR, ""),
    "dataset.subsample": (_INT, 0),
    "model.kind": (_STR, "mlp"),
    "model.hidden": (_parse_int_tuple, (32, 16)),
    "model.activation": (_STR, "relu"),
    "model.normalize": (_BOOL, False),
    "model.init_scale": (_FLOAT, 1.0),
    "model.input_shape": (_parse_int_tuple, ()),
    "optimizer.kind": (_STR, "momentum"),
    "optimizer.momentum": (_FLOAT, 0.9),
    "optimizer.beta1": (_FLOAT, 0.9),
    "optimizer.beta2": (_FLOAT, 0.999),
    "optimizer.eps": (_FLOAT, 1e-8),
    "schedule.kind": (_STR, "constant"),
    "schedule.warmup_epochs": (_INT, 0),
    "schedule.milestones": (_parse_milestones, ()),
    "schedule.cosine_form": (_STR, "quarter"),
    "schedule.final_lr": (_FLOAT, 0.0),
    "schedule.decay_fraction": (_FLOAT, 0.85),
    "schedule.factor": (_FLOAT, 0.2),
    "schedule.decay_factor": (_FLOAT, 0.2),
    "schedule.last_decay_fraction": (_FLOAT, 0.85),
    "schedule.smoothing_window": (_INT, 1),
    "schedule.min_history": (_INT, 3),
    "schedule.patience": (_INT, 10),
    "schedule.threshold": (_FLOAT, 1e-4),
    "schedule.mode": (_STR, "min"),
}

_DATASET_KEYS = {
    "blobs": ("classes", "dim", "samples", "test_samples", "label_noise",
              "separation", "seed"),
    "spirals": ("samples", "test_samples", "turns", "jitter", "label_noise", "seed"),
    "idx": ("path", "subsample"),
}

_OPTIMIZER_KEYS = {"momentum": ("momentum",), "adam": ("beta1", "beta2", "eps")}

_SCHEDULE_KEYS = {
    "constant": (),
    "stepwise": ("milestones",),
    "cosine": ("cosine_form",),
    "linear": ("final_lr",),
    "simple": ("decay_fraction", "factor"),
    "abel": ("decay_factor", "last_decay_fraction", "smoothing_window", "min_history"),
    "plateau": ("factor", "patience", "threshold", "mode"),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            raw[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return config_from_values(raw)


def config_from_values(raw: dict[str, object]) -> ExperimentConfig:
    values = {}
    for key, (_, default) in _SCHEMA.items():
        if key in raw:
            values[key] = raw[key]
        elif default is None:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default

    kind = values["dataset.kind"]
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}")
    try:
        dataset = _build_dataset(kind, values)
        model = ModelSpec(
            kind=values["model.kind"],
            hidden=values["model.hidden"],
            activation=values["model.activation"],
            normalize=values["model.normalize"],
            init_scale=values["model.init_scale"],
            input_shape=values["model.input_shape"] or None,
        )
        opt_kind = values["optimizer.kind"]
        if opt_kind not in _OPTIMIZER_KEYS:
            raise ConfigError("optimizer.kind must be 'momentum' or 'adam'")
        for key in ("momentum", "beta1", "beta2"):
            if not 0.0 <= values[f"optimizer.{key}"] < 1.0:
                raise ConfigError(f"optimizer.{key} must lie in [0, 1)")
        if not values["optimizer.eps"] >= 0:
            raise ConfigError("optimizer.eps must be >= 0")
        # every given key is checked, but only the kind's own are kept: format_config
        # writes no other, so a config holding one would not round-trip
        optimizer = OptimizerSpec(kind=opt_kind, **{
            key: values[f"optimizer.{key}"] for key in _OPTIMIZER_KEYS[opt_kind]})
        schedule = _build_schedule(values)
        return ExperimentConfig(
            epochs=values["epochs"],
            base_lr=values["base_lr"],
            log_dir=values["log_dir"],
            dataset=dataset,
            model=model,
            optimizer=optimizer,
            schedule=schedule,
            seed=values["seed"],
            batch_size=values["batch_size"],
            weight_decay=values["weight_decay"],
            label_smoothing=values["label_smoothing"],
            clip_norm=values["clip_norm"],
            checkpoint_every=values["checkpoint_every"],
            log_gw=values["log_gw"],
            eval_batch=values["eval_batch"],
            auto_stop_min_improvement=values["auto_stop.min_improvement"],
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_dataset(kind: str, values: dict) -> DatasetSpec:
    if kind == "blobs":
        return BlobsSpec(
            classes=values["dataset.classes"], dim=values["dataset.dim"],
            samples=values["dataset.samples"], test_samples=values["dataset.test_samples"],
            label_noise=values["dataset.label_noise"],
            separation=values["dataset.separation"], seed=values["dataset.seed"])
    if kind == "spirals":
        return SpiralsSpec(
            samples=values["dataset.samples"], test_samples=values["dataset.test_samples"],
            turns=values["dataset.turns"], jitter=values["dataset.jitter"],
            label_noise=values["dataset.label_noise"], seed=values["dataset.seed"])
    return IdxSpec(path=values["dataset.path"], subsample=values["dataset.subsample"])


def _build_schedule(values: dict) -> ScheduleSpec:
    kind = values["schedule.kind"]
    if kind not in _SCHEDULE_KEYS:
        raise ConfigError(f"schedule.kind must be one of {sorted(_SCHEDULE_KEYS)}")
    kwargs = {param: values[f"schedule.{param}"] for param in _SCHEDULE_KEYS[kind]}
    return ScheduleSpec(
        kind=kind,
        base_lr=values["base_lr"],
        warmup_epochs=values["schedule.warmup_epochs"],
        total_epochs=values["epochs"],
        **kwargs,
    )


# The last (config, text) pair format_config produced. A run formats one
# unchanged config for its logs, its hash and every checkpoint. The memo is
# keyed by identity, never by ==: 0.0 == -0.0 and 4 == 4.0, yet each pair
# formats differently. It holds the config itself, so its id is not reused.
_last_formatted: tuple[ExperimentConfig, str] | None = None


def format_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config round-trips it."""
    global _last_formatted
    last = _last_formatted
    if last is not None and last[0] is config:
        return last[1]
    text = _format_config(config)
    _last_formatted = (config, text)
    return text


def _format_config(config: ExperimentConfig) -> str:
    values: dict[str, object] = {
        "seed": config.seed,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "base_lr": config.base_lr,
        "weight_decay": config.weight_decay,
        "label_smoothing": config.label_smoothing,
        "clip_norm": config.clip_norm,
        "log_dir": config.log_dir,
        "checkpoint_every": config.checkpoint_every,
        "log_gw": config.log_gw,
        "eval_batch": config.eval_batch,
        "auto_stop.min_improvement": config.auto_stop_min_improvement,
    }
    ds = config.dataset
    if isinstance(ds, BlobsSpec):
        values["dataset.kind"] = "blobs"
        values.update({
            "dataset.classes": ds.classes, "dataset.dim": ds.dim,
            "dataset.samples": ds.samples, "dataset.test_samples": ds.test_samples,
            "dataset.label_noise": ds.label_noise, "dataset.separation": ds.separation,
            "dataset.seed": ds.seed})
    elif isinstance(ds, SpiralsSpec):
        values["dataset.kind"] = "spirals"
        values.update({
            "dataset.samples": ds.samples, "dataset.test_samples": ds.test_samples,
            "dataset.turns": ds.turns, "dataset.jitter": ds.jitter,
            "dataset.label_noise": ds.label_noise, "dataset.seed": ds.seed})
    else:
        values["dataset.kind"] = "idx"
        values.update({"dataset.path": ds.path, "dataset.subsample": ds.subsample})

    m = config.model
    values.update({
        "model.kind": m.kind, "model.hidden": m.hidden,
        "model.activation": m.activation, "model.normalize": m.normalize,
        "model.init_scale": m.init_scale})
    if m.input_shape:
        values["model.input_shape"] = m.input_shape
    opt = config.optimizer
    values["optimizer.kind"] = opt.kind
    for key in _OPTIMIZER_KEYS[opt.kind]:
        values[f"optimizer.{key}"] = getattr(opt, key)
    s = config.schedule
    values["schedule.kind"] = s.kind
    if s.warmup_epochs:
        values["schedule.warmup_epochs"] = s.warmup_epochs
    for param in _SCHEDULE_KEYS[s.kind]:
        values[f"schedule.{param}"] = getattr(s, param)

    lines = [f"{key} = {_fmt_value(values[key])}" for key in _SCHEMA if key in values]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(format_config(config).encode()).hexdigest()
