"""Byte-exact serialization of scheduler state, and the one binary reader
(:class:`Reader`) that scheduler state and checkpoints both decode through.

Scheduler state format (all integers and reals little-endian):

    offset  field
    0       magic ``b"LRS1"``
    4       version: u16 (currently 1)
    6       kind: u8 (1 = bounce scheduler, 2 = plateau scheduler)
    7...    kind-specific payload

Bounce-scheduler payload, in order: base_lr, current_lr, decay_factor,
last_decay_fraction (f64 each); total_epochs, epoch (u32 each);
smoothing_window, min_history (u16 each); reached_minimum (u8);
raw norm history (u32 count + f64 values); smoothed history (same);
decay log (u32 count + per event: epoch u32, trigger u8, old_lr f64,
new_lr f64).

Plateau payload: base_lr, current_lr, factor, threshold (f64 each);
patience, epochs_since_improvement, epoch (u32 each); mode u8
(0 = min, 1 = max); has_best u8 + best_metric f64; decay log as above.

Round-trip identity: a restored scheduler behaves identically to the
original on any subsequent observation sequence.
"""

from __future__ import annotations

import struct

from .adaptive import AbelScheduler, PlateauScheduler
from .schedules import LrEvent

MAGIC = b"LRS1"
VERSION = 1

_KIND_ABEL = 1
_KIND_PLATEAU = 2

_TRIGGERS = ("milestone", "bounce", "final_decay", "plateau")
_MODES = ("min", "max")


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


def _pack_events(events: list[LrEvent]) -> bytes:
    out = [struct.pack("<I", len(events))]
    for ev in events:
        out.append(struct.pack("<IBdd", ev.epoch, _TRIGGERS.index(ev.trigger), ev.old_lr, ev.new_lr))
    return b"".join(out)


def _unpack_events(r: Reader) -> list[LrEvent]:
    (count,) = r.take("<I")
    events = []
    for _ in range(count):
        epoch, trig, old_lr, new_lr = r.take("<IBdd")
        if trig >= len(_TRIGGERS):
            raise StateDecodeError(f"unknown event trigger code {trig}")
        events.append(LrEvent(epoch=epoch, old_lr=old_lr, new_lr=new_lr, trigger=_TRIGGERS[trig]))
    return events


def _check_lr_chain(base_lr: float, factor: float, current_lr: float,
                    events: list[LrEvent]) -> None:
    """``current_lr`` must be ``base_lr`` carried through the decay log: each
    event starts from the previous event's lr and multiplies it by ``factor``,
    exactly as the schedulers compute it."""
    lr = base_lr
    for ev in events:
        if ev.old_lr != lr or ev.new_lr != ev.old_lr * factor:
            raise StateDecodeError(f"decay event at epoch {ev.epoch} does not continue "
                                   f"the lr {lr!r} by the factor {factor!r}")
        lr = ev.new_lr
    if current_lr != lr:
        raise StateDecodeError(f"current lr {current_lr!r} is not the decay log's lr {lr!r}")


def serialize_scheduler(scheduler: AbelScheduler | PlateauScheduler) -> bytes:
    """Encode a scheduler's full state as bytes."""
    if isinstance(scheduler, AbelScheduler):
        s = scheduler
        parts = [
            MAGIC,
            struct.pack("<HB", VERSION, _KIND_ABEL),
            struct.pack("<dddd", s.base_lr, s.current_lr, s.decay_factor, s.last_decay_fraction),
            struct.pack("<IIHHB", s.total_epochs, s.epoch, s.smoothing_window, s.min_history,
                        int(s.reached_minimum)),
            struct.pack("<I", len(s.norm_history)),
            struct.pack(f"<{len(s.norm_history)}d", *s.norm_history),
            struct.pack("<I", len(s.smoothed_history)),
            struct.pack(f"<{len(s.smoothed_history)}d", *s.smoothed_history),
            _pack_events(s.decay_log),
        ]
        return b"".join(parts)
    if isinstance(scheduler, PlateauScheduler):
        p = scheduler
        parts = [
            MAGIC,
            struct.pack("<HB", VERSION, _KIND_PLATEAU),
            struct.pack("<dddd", p.base_lr, p.current_lr, p.factor, p.threshold),
            struct.pack("<III", p.patience, p.epochs_since_improvement, p.epoch),
            struct.pack("<B", _MODES.index(p.mode)),
            struct.pack("<Bd", int(p.best_metric is not None),
                        0.0 if p.best_metric is None else p.best_metric),
            _pack_events(p.decay_log),
        ]
        return b"".join(parts)
    raise TypeError(f"cannot serialize {type(scheduler).__name__}")


def restore_scheduler(data: bytes) -> AbelScheduler | PlateauScheduler:
    """Decode scheduler state bytes, exactly as they were saved.

    Bytes that do not decode, decode to values the scheduler's constructor
    refuses, or hold a current lr that is not the base lr carried through
    the decay log, raise :class:`StateDecodeError`. A bounce scheduler
    keeps its stored budget; a resume with a new one calls
    :meth:`AbelScheduler.retarget` on the result.
    """
    r = Reader(data)
    if r.take_bytes(4) != MAGIC:
        raise StateDecodeError("bad magic: not a scheduler state blob")
    version, kind = r.take("<HB")
    if version != VERSION:
        raise StateDecodeError(f"unsupported scheduler state version {version}")

    if kind == _KIND_ABEL:
        base_lr, current_lr, decay_factor, last_decay_fraction = r.take("<dddd")
        total, epoch, window, min_history, reached = r.take("<IIHHB")
        (n_raw,) = r.take("<I")
        raw = r.take_floats(n_raw)
        (n_smooth,) = r.take("<I")
        smooth = r.take_floats(n_smooth)
        events = _unpack_events(r)
        r.done()
        try:
            s = AbelScheduler(base_lr=base_lr, decay_factor=decay_factor, total_epochs=total,
                              last_decay_fraction=last_decay_fraction,
                              smoothing_window=window, min_history=min_history)
        except ValueError as exc:
            raise StateDecodeError(f"invalid bounce-scheduler state: {exc}") from None
        _check_lr_chain(base_lr, decay_factor, current_lr, events)
        s.current_lr = current_lr
        s.epoch = epoch
        s.reached_minimum = bool(reached)
        s.norm_history = raw
        s.smoothed_history = smooth
        s.decay_log = events
        return s

    if kind == _KIND_PLATEAU:
        base_lr, current_lr, factor, threshold = r.take("<dddd")
        patience, since, epoch = r.take("<III")
        (mode_code,) = r.take("<B")
        if mode_code >= len(_MODES):
            raise StateDecodeError(f"unknown plateau mode code {mode_code}")
        has_best, best = r.take("<Bd")
        events = _unpack_events(r)
        r.done()
        try:
            p = PlateauScheduler(base_lr=base_lr, factor=factor, patience=patience,
                                 threshold=threshold, mode=_MODES[mode_code])
        except ValueError as exc:
            raise StateDecodeError(f"invalid plateau-scheduler state: {exc}") from None
        _check_lr_chain(base_lr, factor, current_lr, events)
        p.current_lr = current_lr
        p.epochs_since_improvement = since
        p.epoch = epoch
        p.best_metric = best if has_best else None
        p.decay_log = events
        return p

    raise StateDecodeError(f"unknown scheduler kind code {kind}")
