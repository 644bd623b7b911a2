"""Learning-rate schedule specifications and the stateless (time-based) schedules.

Stateless schedules are pure functions of the epoch: constant, step-wise
milestones, cosine (quarter and half form), linear, and simple decay (one
drop near the end of training). The stateful schedulers that react to
observed training signals live in :mod:`abel_sched.adaptive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

STATELESS_KINDS = ("constant", "stepwise", "cosine", "linear", "simple")
ADAPTIVE_KINDS = ("abel", "plateau")
SCHEDULE_KINDS = STATELESS_KINDS + ADAPTIVE_KINDS
# kinds whose lr at an epoch does not depend on the epoch budget, so a resume may change it
BUDGET_FREE_KINDS = ("constant", "stepwise", "abel", "plateau")

COSINE_FORMS = ("quarter", "half")
PLATEAU_MODES = ("min", "max")  # a mode's index is its code in scheduler blobs (state_io)


@dataclass(frozen=True)
class LrEvent:
    """One learning-rate change: who changed it, when, from what to what."""

    epoch: int
    old_lr: float
    new_lr: float
    trigger: str  # "milestone" | "bounce" | "final_decay" | "plateau"


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative description of one learning-rate schedule.

    ``kind`` selects the schedule; only the parameters relevant to that kind
    are consulted. ``warmup_epochs`` composes with any kind: the runner scales
    every step's lr by :func:`warmup_scale`, one ramp shared by all kinds.

    Kinds and their parameters:

    * ``constant`` -- ``base_lr`` only.
    * ``stepwise`` -- ``milestones``: ordered ``(epoch, factor)`` pairs; the
      lr is ``base_lr`` times the product of factors of all milestones at or
      before the current epoch.
    * ``cosine`` -- ``total_epochs`` and ``cosine_form``: ``quarter`` is
      ``cos(pi*t/2T)``, ``half`` is ``(1 + cos(pi*t/T))/2``.
    * ``linear`` -- ramps from ``base_lr`` to ``final_lr`` over
      ``total_epochs``.
    * ``simple`` -- constant until ``decay_fraction * total_epochs``, then
      ``base_lr * factor``.
    * ``abel`` -- decay-on-weight-norm-bounce; uses ``decay_factor``,
      ``last_decay_fraction``, ``total_epochs``, ``smoothing_window``,
      ``min_history``.
    * ``plateau`` -- decay when a metric stops improving; uses ``factor``,
      ``patience``, ``threshold``, ``mode``.
    """

    kind: str
    base_lr: float
    warmup_epochs: int = 0
    # stepwise
    milestones: tuple[tuple[int, float], ...] = ()
    # cosine / linear / simple / abel
    total_epochs: int = 0
    cosine_form: str = "quarter"
    final_lr: float = 0.0
    decay_fraction: float = 0.85
    factor: float = 0.1
    # abel
    decay_factor: float = 0.1
    last_decay_fraction: float = 0.85
    smoothing_window: int = 1
    min_history: int = 3
    # plateau
    patience: int = 10
    threshold: float = 1e-4
    mode: str = "min"

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (self.base_lr > 0 and math.isfinite(self.base_lr)):
            raise ValueError("base_lr must be a positive finite real")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.kind == "stepwise":
            epochs = [e for e, _ in self.milestones]
            if any(e2 <= e1 for e1, e2 in zip(epochs, epochs[1:])):
                raise ValueError("milestone epochs must be strictly increasing")
            if any(not 0.0 < f < 1.0 for _, f in self.milestones):
                raise ValueError("milestone factors must lie in (0, 1)")
        if self.kind in ("cosine", "linear", "simple", "abel") and self.total_epochs < 1:
            raise ValueError(f"{self.kind} schedule needs total_epochs >= 1")
        if self.kind == "cosine" and self.cosine_form not in COSINE_FORMS:
            raise ValueError(f"cosine_form must be one of {COSINE_FORMS}")
        if self.kind == "linear" and not self.final_lr >= 0:
            raise ValueError("final_lr must be >= 0")
        if self.kind == "simple":
            if not 0.0 < self.decay_fraction <= 1.0:
                raise ValueError("decay_fraction must lie in (0, 1]")
            if not 0.0 < self.factor < 1.0:
                raise ValueError("factor must lie in (0, 1)")
        if self.kind == "abel":
            if not 0.0 < self.decay_factor < 1.0:
                raise ValueError("decay_factor must lie in (0, 1)")
            if not 0.0 < self.last_decay_fraction <= 1.0:
                raise ValueError("last_decay_fraction must lie in (0, 1]")
            if self.smoothing_window < 1:
                raise ValueError("smoothing_window must be >= 1")
            if self.min_history < 3:
                raise ValueError("min_history must be >= 3 (the flip test needs three samples)")
        if self.kind == "plateau":
            if not 0.0 < self.factor < 1.0:
                raise ValueError("factor must lie in (0, 1)")
            if self.patience < 0:
                raise ValueError("patience must be >= 0")
            if not self.threshold >= 0:
                raise ValueError("threshold must be >= 0")
            if self.mode not in PLATEAU_MODES:
                raise ValueError(f"mode must be one of {PLATEAU_MODES}")


def warmup_scale(step: int, steps_per_epoch: int, warmup_epochs: int) -> float:
    """Linear warmup multiplier: ``min(1, step / (steps_per_epoch * warmup_epochs))``.

    Returns 1.0 when warmup is disabled (``warmup_epochs == 0``).
    """
    if steps_per_epoch < 1:
        raise ValueError("steps_per_epoch must be >= 1")
    if warmup_epochs < 0:
        raise ValueError("warmup_epochs must be >= 0")
    if warmup_epochs == 0:
        return 1.0
    return min(1.0, step / (steps_per_epoch * warmup_epochs))


def lr_at(spec: ScheduleSpec, t: float) -> float:
    """Learning rate of a stateless schedule at (real-valued) epoch ``t``.

    The value is the schedule's alone: warmup is not applied here but per
    step, through :func:`warmup_scale`, so milestone comparisons see pure
    schedule values.
    """
    if spec.kind not in STATELESS_KINDS:
        raise ValueError(f"lr_at is only defined for stateless kinds, got {spec.kind!r}")
    T = spec.total_epochs
    if spec.kind in ("cosine", "linear", "simple") and T < 1:
        raise ValueError("total_epochs must be >= 1")
    if t < 0 or (T >= 1 and t > T):
        raise ValueError(f"epoch t={t} outside the schedule domain [0, {T}]")

    if spec.kind == "constant":
        lr = spec.base_lr
    elif spec.kind == "stepwise":
        lr = spec.base_lr
        for epoch, factor in spec.milestones:
            if t >= epoch:
                lr *= factor
    elif spec.kind == "cosine":
        if spec.cosine_form == "quarter":
            lr = spec.base_lr * math.cos(math.pi * t / (2.0 * T))
        else:
            lr = spec.base_lr * 0.5 * (1.0 + math.cos(math.pi * t / T))
    elif spec.kind == "linear":
        lr = spec.base_lr + (spec.final_lr - spec.base_lr) * t / T
    else:  # simple
        lr = spec.base_lr if t < spec.decay_fraction * T else spec.base_lr * spec.factor
    return lr


def has_discrete_milestones(spec: ScheduleSpec) -> bool:
    """True for stateless kinds whose lr changes only at discrete epochs."""
    return spec.kind in ("stepwise", "simple")
