"""Byte-exact checkpoints and the resume rules.

Layout (little-endian):

    magic ``b"ABCK"``; version u16.
    config: u32 byte length + canonical config text (utf-8),
    followed by its raw sha256 (32 bytes).
    epoch u32; global_step u64.
    parameters: u16 layer count, then per layer: u16 name length + name,
    flags u8 (bit 0 = l2_enabled, bit 1 = scale_invariant), ndim u8,
    u32 per dimension, float64 data.
    optimizer: u8 kind (1 = momentum, 2 = adam); momentum carries mu f64
    and one buffer per layer (raw float64, shapes as the parameters);
    adam carries beta1, beta2, eps f64, t u64 and two buffers per layer.
    scheduler: u32 byte length + scheduler state blob (empty for
    stateless schedules).

Loading decodes through the bounds-checked ``state_io.Reader`` and decodes
the scheduler blob too, which must fit the config's schedule kind (none for
stateless kinds). Any fault raises :class:`CheckpointError`.

Checkpoints are written through a temp file and ``os.replace``, so a
crash leaves the previous file or the new one, never a torn one.

No RNG state is stored: the data order of epoch e is derived from
``[seed, e]``, so the checkpointed epoch number determines it.

Resume with a changed epoch budget is allowed only for schedules whose
learning rate at an epoch does not depend on the budget (constant,
step-wise, plateau, and the bounce scheduler, whose final decay is
re-derived from its stored fraction). Cosine, linear and simple decay
refuse a changed budget: their entire profile depends on it.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adaptive import AbelScheduler, PlateauScheduler
from .config import ConfigError, ExperimentConfig, format_config, parse_config
from .optim import AdamState, MomentumState
from .params import GradSet, Layout, ParamSet
from .runner import ResumeRefusedError, RunState, write_atomic
from .state_io import Reader, StateDecodeError, restore_scheduler

MAGIC = b"ABCK"
VERSION = 1

BUDGET_FREE_KINDS = ("constant", "stepwise", "abel", "plateau")


class CheckpointError(ValueError):
    """Raised for unreadable or corrupt checkpoint files."""


def _pack_arrays(layout: Layout, flat: np.ndarray) -> list[bytes]:
    """Each layer's part of ``flat``: ndim u8, u32 per dimension, float64 data."""
    return [struct.pack(f"<B{len(shape)}I", len(shape), *shape) + flat[sl].tobytes()
            for shape, sl in zip(layout.shapes, layout.slices)]


def _floats(chunks: list[bytes]) -> np.ndarray:
    """A new float64 vector holding the raw chunks one after another."""
    return np.frombuffer(b"".join(chunks), dtype=np.float64).copy()


def _take_buffer(r: Reader, layout: Layout) -> GradSet:
    """One optimizer buffer: an array per layer, shaped like the parameters."""
    chunks = []
    for name, shape in zip(layout.names, layout.shapes):
        if r.take_shape() != shape:
            raise CheckpointError(f"optimizer buffer shape differs on layer {name!r}")
        chunks.append(r.take_bytes(8 * math.prod(shape)))
    return GradSet(layout, _floats(chunks))


def save_checkpoint(path: str | Path, config: ExperimentConfig, state: RunState) -> None:
    text = format_config(config).encode()
    parts = [MAGIC, struct.pack("<H", VERSION),
             struct.pack("<I", len(text)), text, hashlib.sha256(text).digest(),
             struct.pack("<IQ", state.epoch, state.global_step),
             struct.pack("<H", len(state.params))]
    layout = state.params.layout
    for (name, _, l2, invariant), data in zip(layout.specs,
                                              _pack_arrays(layout, state.params.flat)):
        encoded = name.encode()
        flags = (1 if l2 else 0) | (2 if invariant else 0)
        parts.append(struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", flags))
        parts.append(data)
    opt = state.opt
    if isinstance(opt, MomentumState):
        parts.append(struct.pack("<Bd", 1, opt.mu))
        parts += _pack_arrays(layout, layout.flat_of(opt.velocity, "velocity"))
    elif isinstance(opt, AdamState):
        parts.append(struct.pack("<BdddQ", 2, opt.beta1, opt.beta2, opt.eps, opt.t))
        parts += _pack_arrays(layout, layout.flat_of(opt.m, "first moment"))
        parts += _pack_arrays(layout, layout.flat_of(opt.v, "second moment"))
    else:
        raise TypeError(f"cannot checkpoint optimizer {type(opt).__name__}")
    parts.append(struct.pack("<I", len(state.scheduler_bytes)))
    parts.append(state.scheduler_bytes)
    write_atomic(Path(path), b"".join(parts))


def load_checkpoint(path: str | Path) -> tuple[ExperimentConfig, RunState]:
    try:
        return _decode(Path(path).read_bytes())
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except (StateDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from None


def _decode(data: bytes) -> tuple[ExperimentConfig, RunState]:
    r = Reader(data)
    if r.take_bytes(4) != MAGIC:
        raise CheckpointError("not a checkpoint file")
    (version,) = r.take("<H")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (text_len,) = r.take("<I")
    text = r.take_bytes(text_len)
    digest = r.take_bytes(32)
    if hashlib.sha256(text).digest() != digest:
        raise CheckpointError("config hash mismatch (corrupt checkpoint)")
    try:
        config = parse_config(text.decode())
    except ConfigError as exc:
        raise CheckpointError(f"embedded config is invalid: {exc}") from None

    epoch, global_step = r.take("<IQ")
    (n_layers,) = r.take("<H")
    specs, chunks = [], []
    for _ in range(n_layers):
        (name_len,) = r.take("<H")
        name = r.take_bytes(name_len).decode()
        (flags,) = r.take("<B")
        shape = r.take_shape()
        chunks.append(r.take_bytes(8 * math.prod(shape)))
        specs.append((name, shape, bool(flags & 1), bool(flags & 2)))
    try:
        layout = Layout(tuple(specs))
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    params = ParamSet.from_flat(layout, _floats(chunks))
    (opt_kind,) = r.take("<B")
    if opt_kind == 1:
        (mu,) = r.take("<d")
        velocity = _take_buffer(r, layout)
        opt: MomentumState | AdamState = MomentumState(mu=mu, velocity=velocity)
    elif opt_kind == 2:
        beta1, beta2, eps, t = r.take("<dddQ")
        m = _take_buffer(r, layout)
        v = _take_buffer(r, layout)
        opt = AdamState(m=m, v=v, t=t, beta1=beta1, beta2=beta2, eps=eps)
    else:
        raise CheckpointError(f"unknown optimizer kind {opt_kind}")
    (sched_len,) = r.take("<I")
    scheduler_bytes = r.take_bytes(sched_len)
    r.done()
    _check_scheduler(scheduler_bytes, config.schedule.kind)
    return config, RunState(epoch=epoch, global_step=global_step, params=params,
                            opt=opt, scheduler_bytes=scheduler_bytes)


def _check_scheduler(blob: bytes, kind: str) -> None:
    """The blob must hold the state of the scheduler a ``kind`` schedule runs, if any."""
    expected = {"abel": AbelScheduler, "plateau": PlateauScheduler}.get(kind)
    if expected is None and not blob:
        return
    try:
        fits = expected is not None and isinstance(restore_scheduler(blob), expected)
    except StateDecodeError as exc:
        raise CheckpointError(f"scheduler state: {exc}") from None
    if not fits:
        raise CheckpointError(f"{len(blob)}-byte scheduler state does not fit a {kind!r} schedule")


def prepare_resume(path: str | Path, epochs: int | None = None,
                   log_dir: str | None = None) -> tuple[ExperimentConfig, RunState]:
    """Load a checkpoint and apply resume overrides, enforcing the budget rules."""
    config, state = load_checkpoint(path)
    if epochs is not None and epochs != config.epochs:
        if config.schedule.kind not in BUDGET_FREE_KINDS:
            raise ResumeRefusedError(
                f"cannot resume a {config.schedule.kind!r} schedule with a different "
                f"epoch budget ({config.epochs} -> {epochs}): its learning rate at any "
                f"epoch depends on the total budget; restart from scratch instead")
        if epochs < state.epoch:
            raise ResumeRefusedError(
                f"new epoch budget {epochs} lies before the checkpointed epoch "
                f"{state.epoch}")
        config = replace(config, epochs=epochs,
                         schedule=replace(config.schedule, total_epochs=epochs))
    if log_dir is not None:
        config = replace(config, log_dir=log_dir)
    else:
        config = replace(config, log_dir=str(Path(config.log_dir).with_name(
            Path(config.log_dir).name + "-resume")))
    return config, state
