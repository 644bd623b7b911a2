"""Experiment configuration: a flat, typed, line-oriented text format.

Grammar (one assignment per line)::

    config   := line*
    line     := blank | comment | key '=' value
    comment  := '#' ...
    key      := dotted identifier, e.g. ``dataset.kind``
    value    := int | float | bool | word | comma list | milestone list

``_SCHEMA`` declares every key: its parser and its default in a config
file, in the order ``format_config`` writes them. ``epochs``, ``base_lr``,
``log_dir`` and ``dataset.kind`` have no default and are required.
``_SECTIONS`` maps the keys onto the fields of ``ExperimentConfig`` and its
spec dataclasses: ``dataset.*`` are the fields of the ``dataset.kind``'s
spec, ``model.*`` those of ``ModelSpec``, and ``optimizer.*`` and
``schedule.*`` the fields that each kind uses. A key of another kind may be
given: it is parsed (an optimizer key also range-checked) and left out of
the config.

Unknown keys and out-of-range values are rejected with the offending key
named, and every real value, milestone factors included, must be finite,
in a config built in Python too. ``format_config`` emits keys in a fixed
order with round-trippable float formatting, so
``parse_config(format_config(c)) == c`` and the sha256 of the canonical
text serves as the config hash. It writes ``model.input_shape`` only when
set and ``schedule.warmup_epochs`` only when non-zero. The schedule's
``base_lr`` and ``total_epochs`` come from the top-level ``base_lr`` and
``epochs``, and an ExperimentConfig whose schedule disagrees with them is
refused.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

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
        # parse_config refuses a section kind the table lacks and a non-finite
        # value, so a config holding one would write checkpoints never resumed
        for spec, entry in _entries(self):
            for name, key, is_finite in entry.finite:
                value = getattr(spec, name)
                if not is_finite(value):
                    raise ConfigError(f"{key} must be finite, got {value!r}")


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


def _parse_shape(text: str) -> tuple[int, ...] | None:
    return _parse_int_tuple(text) or None


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
_REQUIRED = object()

# key -> (parser, default in a config file), in the order format_config writes
_SCHEMA: dict[str, tuple] = {
    "seed": (_INT, 0),
    "epochs": (_INT, _REQUIRED),
    "batch_size": (_INT, 128),
    "base_lr": (_FLOAT, _REQUIRED),
    "weight_decay": (_FLOAT, 0.0),
    "label_smoothing": (_FLOAT, 0.0),
    "clip_norm": (_FLOAT, 0.0),
    "log_dir": (_STR, _REQUIRED),
    "checkpoint_every": (_INT, 0),
    "log_gw": (_BOOL, False),
    "eval_batch": (_INT, 1024),
    "auto_stop.min_improvement": (_FLOAT, 0.0),
    "dataset.kind": (_STR, _REQUIRED),
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
    "model.input_shape": (_parse_shape, None),
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

_REQUIRED_KEYS = tuple(key for key, (_, default) in _SCHEMA.items() if default is _REQUIRED)
_DEFAULTS = {key: default for key, (_, default) in _SCHEMA.items() if default is not _REQUIRED}
# real-valued key -> the check that its value is finite
_FINITE_CHECKS: dict[str, Callable] = {
    key: math.isfinite for key, (parser, _) in _SCHEMA.items() if parser is _FLOAT}
_FINITE_CHECKS["schedule.milestones"] = lambda pairs: all(math.isfinite(f) for _, f in pairs)
# keys format_config writes only when their value is set (non-zero, non-empty)
_WRITTEN_WHEN_SET = ("model.input_shape", "schedule.warmup_epochs")


# -- the section table ----------------------------------------------------------

class _Kind(NamedTuple):
    """One kind of a section: its spec class and the keys the text carries."""

    spec: type
    keys: tuple[tuple[str, str], ...]  # (field, key) pairs
    finite: tuple[tuple[str, str, Callable], ...]  # (field, key, check) of the real ones


def _kind(spec: type, keys) -> _Kind:
    keys = tuple(keys)
    return _Kind(spec, keys, tuple((name, key, _FINITE_CHECKS[key]) for name, key in keys
                                   if key in _FINITE_CHECKS))


def _section_kind(spec: type, section: str, names=None) -> _Kind:
    """``spec``'s entry with the keys ``section.name``, for ``names`` or every field."""
    if names is None:
        names = [f.name for f in fields(spec)]
    return _kind(spec, ((name, f"{section}.{name}") for name in names))


# section -> kind -> _Kind, with every key derived from a field name. "" is
# the top level; it and the model have one entry, under None (the model's
# kind is one of its fields). Each dataset kind has its own class. The
# optimizer and schedule classes serve several kinds, so each kind lists the
# fields it uses; the schedule's base_lr and total_epochs are the top-level
# keys'.
_SECTIONS: dict[str, dict[str | None, _Kind]] = {
    "": {None: _kind(ExperimentConfig, (
        (f.name, "auto_stop.min_improvement" if f.name == "auto_stop_min_improvement" else f.name)
        for f in fields(ExperimentConfig)
        if f.name not in ("dataset", "model", "optimizer", "schedule")))},
    "dataset": {kind: _section_kind(spec, "dataset")
                for kind, spec in (("blobs", BlobsSpec), ("spirals", SpiralsSpec),
                                   ("idx", IdxSpec))},
    "model": {None: _section_kind(ModelSpec, "model")},
    "optimizer": {kind: _section_kind(OptimizerSpec, "optimizer", ("kind", *names))
                  for kind, names in _OPTIMIZER_KEYS.items()},
    "schedule": {kind: _section_kind(ScheduleSpec, "schedule", ("kind", "warmup_epochs", *names))
                 for kind, names in _SCHEDULE_KEYS.items()},
}
_TOP, _MODEL = _SECTIONS[""][None], _SECTIONS["model"][None]
_DATASET_KINDS = {entry.spec: kind for kind, entry in _SECTIONS["dataset"].items()}


def _entry(section: str, kind) -> _Kind:
    """``section``'s entry for ``kind``; a kind the table lacks is refused."""
    kinds = _SECTIONS[section]
    if kind not in kinds:
        if section == "optimizer":
            raise ConfigError("optimizer.kind must be 'momentum' or 'adam'")
        raise ConfigError(f"{section}.kind must be one of {sorted(kinds)}")
    return kinds[kind]


def _entries(config: ExperimentConfig) -> tuple[tuple[object, _Kind], ...]:
    """The config and each of its sections, with its table entry."""
    dataset, optimizer, schedule = config.dataset, config.optimizer, config.schedule
    return ((config, _TOP),
            (dataset, _entry("dataset", _DATASET_KINDS.get(type(dataset)))),
            (config.model, _MODEL),
            (optimizer, _entry("optimizer", optimizer.kind)),
            (schedule, _entry("schedule", schedule.kind)))


def _build(values: dict[str, object], entry: _Kind, **given):
    """``entry``'s spec from the parsed ``values`` and the ``given`` fields."""
    for name, key in entry.keys:
        given[name] = values[key]
    return entry.spec(**given)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document."""
    given: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        key, eq, value = stripped.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        declared = _SCHEMA.get(key)
        if declared is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            given[key] = declared[0](value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    for key in _REQUIRED_KEYS:
        if key not in given:
            raise ConfigError(f"missing required key {key!r}")
    values = {**_DEFAULTS, **given}

    try:
        dataset = _build(values, _entry("dataset", values["dataset.kind"]))
        model = _build(values, _MODEL)
        optimizer_kind = _entry("optimizer", values["optimizer.kind"])
        for key in ("optimizer.momentum", "optimizer.beta1", "optimizer.beta2"):
            if not 0.0 <= values[key] < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1)")
        if not values["optimizer.eps"] >= 0:
            raise ConfigError("optimizer.eps must be >= 0")
        # every given key is checked, but only the kind's own are kept: format_config
        # writes no other, so a config holding one would not round-trip
        optimizer = _build(values, optimizer_kind)
        schedule = _build(values, _entry("schedule", values["schedule.kind"]),
                          base_lr=values["base_lr"], total_epochs=values["epochs"])
        return _build(values, _TOP, dataset=dataset, model=model, optimizer=optimizer,
                      schedule=schedule)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    values: dict[str, object] = {"dataset.kind": _DATASET_KINDS[type(config.dataset)]}
    for spec, entry in _entries(config):
        for name, key in entry.keys:
            values[key] = getattr(spec, name)
    for key in _WRITTEN_WHEN_SET:
        if not values[key]:
            del values[key]
    lines = [f"{key} = {_fmt_value(values[key])}" for key in _SCHEMA if key in values]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(format_config(config).encode()).hexdigest()
