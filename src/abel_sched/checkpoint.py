"""Byte-exact checkpoints and the resume rules.

Layout, format version 2 (little-endian):

    magic ``b"ABCK"``; version u16 (= 2).
    config: u32 byte length + canonical config text (utf-8).
    epoch u32; global_step u64; test error count u32.
    layout table: u16 layer count, then per layer: u16 name length + name,
    flags u8 (bit 0 = l2_enabled, bit 1 = scale_invariant), ndim u8,
    u32 per dimension.
    optimizer: u8 kind (1 = momentum, 2 = adam); momentum carries mu f64,
    adam beta1, beta2, eps f64 and t u64.
    scheduler: u32 byte length + scheduler state blob (empty for
    stateless schedules).
    one float64 block: the parameters' flat vector, then each optimizer
    buffer in the same layout (momentum: velocity; adam: first, then
    second moment), then the test error of each epoch 1..epoch.
    sha256 (32 bytes) of every byte before it.

Loading reads the magic and version first, so a version-1 file (per-layer
framing, only the config text hashed) is refused by its version; then it
checks the sha256, which refuses any flipped bit, truncation or appended
byte; then it decodes through the bounds-checked ``state_io.Reader``. The
scheduler blob is restored once, into the scheduler that the loaded
``RunState`` carries, and must fit the config's schedule kind (no blob for
stateless kinds). Saving serializes the state's scheduler. Any fault raises
:class:`CheckpointError`.

Checkpoints are written through a temp file and ``os.replace``, so a
crash leaves the previous file or the new one, never a torn one.

No RNG state is stored: the data order of epoch e is derived from
``[seed, e]``, so the checkpointed epoch number determines it. The test
errors let a resumed run decide auto-stop as the uninterrupted run would.

Resume with a changed epoch budget is allowed only for schedules whose
learning rate at an epoch does not depend on the budget (constant,
step-wise, plateau, and the bounce scheduler, whose final decay is
re-derived from its fraction of the new budget; its state records each
budget change with its epoch, so a final decay taken under an earlier
budget survives any later resume). Cosine, linear and simple decay refuse
a changed budget: their entire profile depends on it. A bounce-scheduler
resume whose new budget puts the final decay at or before the checkpoint
epoch, when the checkpointed run has taken no final decay, is refused by
``run_experiment`` before it writes anything: the resumed run would skip
the decay that an uninterrupted run at that budget takes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adaptive import make_scheduler
from .config import ConfigError, ExperimentConfig, format_config, parse_config
from .optim import AdamState, MomentumState
from .params import Layout, ParamSet
from .runner import ResumeRefusedError, RunState, write_atomic
from .schedules import BUDGET_FREE_KINDS
from .state_io import Reader, StateDecodeError, restore_scheduler, serialize_scheduler

MAGIC = b"ABCK"
VERSION = 2
DIGEST_SIZE = 32


class CheckpointError(ValueError):
    """Raised for unreadable or corrupt checkpoint files."""


def save_checkpoint(path: str | Path, config: ExperimentConfig, state: RunState) -> None:
    text = format_config(config).encode()
    layout = state.params.layout
    opt = state.opt
    if isinstance(opt, MomentumState):
        opt_head = struct.pack("<Bd", 1, opt.mu)
        buffers = [layout.flat_of(opt.velocity, "velocity")]
    elif isinstance(opt, AdamState):
        opt_head = struct.pack("<BdddQ", 2, opt.beta1, opt.beta2, opt.eps, opt.t)
        buffers = [layout.flat_of(opt.m, "first moment"), layout.flat_of(opt.v, "second moment")]
    else:
        raise TypeError(f"cannot checkpoint optimizer {type(opt).__name__}")
    errors = state.test_errors
    parts = [MAGIC, struct.pack("<HI", VERSION, len(text)), text,
             struct.pack("<IQIH", state.epoch, state.global_step, len(errors), len(layout.names))]
    for name, shape, l2, invariant in layout.specs:
        encoded = name.encode()
        flags = (1 if l2 else 0) | (2 if invariant else 0)
        parts.append(struct.pack(f"<H{len(encoded)}sBB{len(shape)}I", len(encoded), encoded,
                                 flags, len(shape), *shape))
    blob = serialize_scheduler(state.scheduler) if state.scheduler is not None else b""
    parts += [opt_head, struct.pack("<I", len(blob)), blob,
              state.params.flat.tobytes(), *(b.tobytes() for b in buffers),
              struct.pack(f"<{len(errors)}d", *errors)]
    body = b"".join(parts)
    write_atomic(Path(path), body + hashlib.sha256(body).digest())


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
    body = data[:-DIGEST_SIZE]
    if hashlib.sha256(body).digest() != data[-DIGEST_SIZE:]:
        raise CheckpointError("sha256 mismatch (corrupt or truncated checkpoint)")
    r.data = body  # the rest is read from the hashed bytes only
    (text_len,) = r.take("<I")
    try:
        config = parse_config(r.take_bytes(text_len).decode())
    except ConfigError as exc:
        raise CheckpointError(f"embedded config is invalid: {exc}") from None
    epoch, global_step, n_errors, n_layers = r.take("<IQIH")
    specs = []
    for _ in range(n_layers):
        (name_len,) = r.take("<H")
        name = r.take_bytes(name_len).decode()
        (flags,) = r.take("<B")
        specs.append((name, r.take_shape(), bool(flags & 1), bool(flags & 2)))
    try:
        layout = Layout(tuple(specs))
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    (opt_kind,) = r.take("<B")
    if opt_kind == 1:
        opt_fields, n_buffers = r.take("<d"), 1
    elif opt_kind == 2:
        opt_fields, n_buffers = r.take("<dddQ"), 2
    else:
        raise CheckpointError(f"unknown optimizer kind {opt_kind}")
    (sched_len,) = r.take("<I")
    blob = r.take_bytes(sched_len)
    size = layout.size
    end = (1 + n_buffers) * size
    floats = np.frombuffer(r.take_bytes(8 * (end + n_errors)), dtype=np.float64).copy()
    r.done()
    try:
        scheduler = restore_scheduler(blob) if blob else None
    except StateDecodeError as exc:
        raise CheckpointError(f"scheduler state: {exc}") from None
    # the scheduler a run of this config keeps, or None for a stateless kind
    if not isinstance(scheduler, type(make_scheduler(config.schedule))):
        kind = config.schedule.kind
        raise CheckpointError(f"{len(blob)}-byte scheduler state does not fit a {kind!r} schedule")

    buffers = [ParamSet(layout, floats[k * size:(k + 1) * size]) for k in range(1, 1 + n_buffers)]
    if opt_kind == 1:
        opt: MomentumState | AdamState = MomentumState(mu=opt_fields[0], velocity=buffers[0])
    else:
        beta1, beta2, eps, t = opt_fields
        opt = AdamState(m=buffers[0], v=buffers[1], t=t, beta1=beta1, beta2=beta2, eps=eps)
    return config, RunState(epoch=epoch, global_step=global_step,
                            params=ParamSet(layout, floats[:size]), opt=opt,
                            scheduler=scheduler, test_errors=tuple(floats[end:].tolist()))


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
