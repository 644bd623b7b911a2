"""Byte-exact serialization of scheduler state, and the one binary reader
(:class:`Reader`) that scheduler state and checkpoints both decode through.

A scheduler's state is a function of its spec, its budget changes and the
values it observed, so a blob holds only those. :func:`restore_scheduler`
builds a fresh scheduler and replays the observations through
``observe_epoch``; the current lr, epoch, arming flag, smoothed history,
decay log and best metric are rebuilt, so they agree by construction.

Scheduler state format, version 2 (all integers and reals little-endian):
magic ``b"LRS1"``; version u16; kind u8 (1 = bounce, 2 = plateau); the
kind's spec; the observations as a u32 count + f64 values (squared weight
norms for the bounce scheduler, metric values for the plateau scheduler).

Bounce spec: base_lr, decay_factor, last_decay_fraction (f64 each);
smoothing_window, min_history (u16 each); the budgets as a u32 count +
(epoch u32, total_epochs u32) each, the first at epoch 0, the others in
the order they were set: epochs never decrease nor pass the observation
count.

Plateau spec: base_lr, factor, threshold (f64 each); patience u32; mode u8
(0 = min, 1 = max).

A blob that does not decode, has another version, or holds a value that the
constructor, ``retarget`` or ``observe_epoch`` refuses raises
:class:`StateDecodeError`. Every blob that restores re-serializes to the
same bytes.
"""

from __future__ import annotations

import struct
from functools import partial

from .adaptive import AbelScheduler, PlateauScheduler
from .schedules import PLATEAU_MODES

MAGIC = b"LRS1"
VERSION = 2

_KIND_ABEL = 1
_KIND_PLATEAU = 2


class StateDecodeError(ValueError):
    """Raised when scheduler state bytes are malformed."""


class Reader:
    """Sequential reads from bytes; reading past the end, or leaving bytes
    unread at ``done()``, raises :class:`StateDecodeError`."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        return struct.unpack(fmt, self.take_bytes(struct.calcsize(fmt)))

    def take_bytes(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise StateDecodeError(f"truncated: need {count} bytes at offset {self.pos}")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def take_floats(self, count: int) -> list[float]:
        return list(self.take(f"<{count}d")) if count else []

    def take_shape(self) -> tuple[int, ...]:
        (ndim,) = self.take("<B")  # then u32 per dimension
        return self.take(f"<{ndim}I")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise StateDecodeError(f"{len(self.data) - self.pos} trailing bytes")


def serialize_scheduler(scheduler: AbelScheduler | PlateauScheduler) -> bytes:
    """Encode a scheduler's spec, budgets and observations as bytes."""
    if isinstance(scheduler, AbelScheduler):
        s = scheduler
        budgets = [n for budget in s.budgets for n in budget]
        spec = struct.pack(f"<BdddHHI{len(budgets)}I", _KIND_ABEL, s.base_lr, s.decay_factor,
                           s.last_decay_fraction, s.smoothing_window, s.min_history,
                           len(s.budgets), *budgets)
        observed = s.norm_history
    elif isinstance(scheduler, PlateauScheduler):
        p = scheduler
        spec = struct.pack("<BdddIB", _KIND_PLATEAU, p.base_lr, p.factor, p.threshold,
                           p.patience, PLATEAU_MODES.index(p.mode))
        observed = p.history
    else:
        raise TypeError(f"cannot serialize {type(scheduler).__name__}")
    return b"".join([MAGIC, struct.pack("<H", VERSION), spec,
                     struct.pack(f"<I{len(observed)}d", len(observed), *observed)])


def restore_scheduler(data: bytes) -> AbelScheduler | PlateauScheduler:
    """Decode scheduler state bytes and replay them into a fresh scheduler.

    A bounce scheduler is retargeted to each recorded budget once it has
    seen that budget's epoch of observations, so it ends on the budget it
    was saved with; a resume with a new one calls
    :meth:`AbelScheduler.retarget` on the result.
    """
    r = Reader(data)
    if r.take_bytes(4) != MAGIC:
        raise StateDecodeError("bad magic: not a scheduler state blob")
    version, kind = r.take("<HB")
    if version != VERSION:
        raise StateDecodeError(f"unsupported scheduler state version {version}")
    if kind == _KIND_ABEL:
        base_lr, decay_factor, last_decay_fraction, window, min_history, n_budgets = \
            r.take("<dddHHI")
        flat = r.take(f"<{2 * n_budgets}I")
        budgets = list(zip(flat[::2], flat[1::2]))
        if not budgets or budgets[0][0] != 0:
            raise StateDecodeError("the first budget must start at epoch 0")
        fresh = partial(AbelScheduler, base_lr=base_lr, decay_factor=decay_factor,
                        total_epochs=budgets[0][1], last_decay_fraction=last_decay_fraction,
                        smoothing_window=window, min_history=min_history)
        changes = budgets[1:]
    elif kind == _KIND_PLATEAU:
        base_lr, factor, threshold, patience, mode_code = r.take("<dddIB")
        if mode_code >= len(PLATEAU_MODES):
            raise StateDecodeError(f"unknown plateau mode code {mode_code}")
        fresh = partial(PlateauScheduler, base_lr=base_lr, factor=factor, patience=patience,
                        threshold=threshold, mode=PLATEAU_MODES[mode_code])
        changes = []
    else:
        raise StateDecodeError(f"unknown scheduler kind code {kind}")
    (count,) = r.take("<I")
    observed = r.take_floats(count)
    r.done()
    epochs = [0, *(epoch for epoch, _ in changes)]
    if epochs != sorted(epochs) or epochs[-1] > count:
        raise StateDecodeError(f"budget changes at epochs {epochs[1:]} are out of order "
                               f"or past the {count} observations")

    try:
        scheduler = fresh()
        start = 0
        for epoch, total in changes:
            for value in observed[start:epoch]:
                scheduler.observe_epoch(value)
            scheduler.retarget(total)
            start = epoch
        for value in observed[start:]:
            scheduler.observe_epoch(value)
    except ValueError as exc:
        raise StateDecodeError(f"invalid scheduler state: {exc}") from None
    return scheduler
