"""Schedulers that adapt the learning rate from observed training signals.

Two observers are provided:

* :class:`AbelScheduler` watches the squared weight norm once per epoch and
  decays the learning rate on the second sign flip of its epoch-to-epoch
  difference: the first flip marks the norm's local minimum (arming), the
  second flip means growth has stalled into noise (firing). An unconditional
  final decay fires at a fixed fraction of the training budget.
* :class:`PlateauScheduler` watches a scalar metric and decays when it has
  not improved for more than ``patience`` epochs.

Both must be fed exactly once per epoch, in order. Each keeps what it was
fed (and the bounce scheduler its budgets), so its whole state is a
function of those; :mod:`abel_sched.state_io` serializes just that and
restores by replay.
"""

from __future__ import annotations

import math

from .schedules import PLATEAU_MODES, LrEvent, ScheduleSpec


class AbelScheduler:
    """Decay-on-weight-norm-bounce learning-rate control.

    The observed squared weight norm is optionally block-averaged: with
    ``smoothing_window = n`` an effective sample is emitted every n raw
    samples as the mean of the last n. The flip test runs on effective
    samples and stays quiet until ``min_history`` of them exist.

    The current learning rate is always ``base_lr * decay_factor ** k``
    where k is the number of recorded decay events.
    """

    def __init__(
        self,
        base_lr: float,
        decay_factor: float,
        total_epochs: int,
        last_decay_fraction: float = 0.85,
        smoothing_window: int = 1,
        min_history: int = 3,
    ):
        if not (base_lr > 0 and math.isfinite(base_lr)):
            raise ValueError("base_lr must be a positive finite real")
        if not 0.0 < decay_factor < 1.0:
            raise ValueError("decay_factor must lie in (0, 1)")
        if total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        if not 0.0 < last_decay_fraction <= 1.0:
            raise ValueError("last_decay_fraction must lie in (0, 1]")
        if smoothing_window < 1:
            raise ValueError("smoothing_window must be >= 1")
        if min_history < 3:
            raise ValueError("min_history must be >= 3")
        self.base_lr = base_lr
        self.current_lr = base_lr
        self.decay_factor = decay_factor
        self.last_decay_fraction = last_decay_fraction
        self.smoothing_window = smoothing_window
        self.min_history = min_history
        self.reached_minimum = False
        self.norm_history: list[float] = []
        self.smoothed_history: list[float] = []
        self.decay_log: list[LrEvent] = []
        # (epoch, total_epochs) per budget: the constructor's at epoch 0, then
        # one per retarget, in the order they were set
        self.budgets: list[tuple[int, int]] = [(0, total_epochs)]

    @property
    def epoch(self) -> int:
        return len(self.norm_history)

    @property
    def total_epochs(self) -> int:
        return self.budgets[-1][1]

    @property
    def last_decay_epoch(self) -> int:
        return round(self.last_decay_fraction * self.total_epochs)

    @classmethod
    def from_spec(cls, spec: ScheduleSpec) -> "AbelScheduler":
        if spec.kind != "abel":
            raise ValueError(f"expected an abel spec, got {spec.kind!r}")
        return cls(
            base_lr=spec.base_lr,
            decay_factor=spec.decay_factor,
            total_epochs=spec.total_epochs,
            last_decay_fraction=spec.last_decay_fraction,
            smoothing_window=spec.smoothing_window,
            min_history=spec.min_history,
        )

    def retarget(self, total_epochs: int) -> None:
        """Re-derive the final-decay epoch for a new training budget, from the
        next observation on."""
        if total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        self.budgets.append((self.epoch, total_epochs))

    def observe_epoch(self, weight_norm_sq: float) -> tuple[float, list[LrEvent]]:
        """Feed one end-of-epoch squared weight norm; returns (lr, decay events)."""
        if not (math.isfinite(weight_norm_sq) and weight_norm_sq > 0):
            raise ValueError(f"weight_norm_sq must be positive and finite, got {weight_norm_sq!r}")
        self.norm_history.append(float(weight_norm_sq))
        emitted = len(self.norm_history) % self.smoothing_window == 0
        if emitted:
            block = self.norm_history[-self.smoothing_window:]
            self.smoothed_history.append(sum(block) / self.smoothing_window)

        events: list[LrEvent] = []
        s = self.smoothed_history
        # the flip test runs once per new effective sample, not per raw epoch
        if emitted and len(s) >= self.min_history:
            if (s[-1] - s[-2]) * (s[-2] - s[-3]) < 0:
                if self.reached_minimum:
                    self.reached_minimum = False
                    events.append(self._decay("bounce"))
                else:
                    self.reached_minimum = True

        if self.epoch == self.last_decay_epoch:
            events.append(self._decay("final_decay"))

        return self.current_lr, events

    def _decay(self, trigger: str) -> LrEvent:
        event = LrEvent(
            epoch=self.epoch,
            old_lr=self.current_lr,
            new_lr=self.current_lr * self.decay_factor,
            trigger=trigger,
        )
        self.current_lr = event.new_lr
        self.decay_log.append(event)
        return event


class PlateauScheduler:
    """Decay the learning rate when a metric stops improving.

    Improvement is relative: in ``min`` mode a metric improves the best seen
    value when ``metric < best * (1 - threshold)``, in ``max`` mode when
    ``metric > best * (1 + threshold)``. Once more than ``patience`` epochs
    pass without improvement the lr is multiplied by ``factor`` and the
    counter resets. No cooldown, no lr floor.
    """

    def __init__(
        self,
        base_lr: float,
        factor: float,
        patience: int = 10,
        threshold: float = 1e-4,
        mode: str = "min",
    ):
        if not (base_lr > 0 and math.isfinite(base_lr)):
            raise ValueError("base_lr must be a positive finite real")
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must lie in (0, 1)")
        if patience < 0:
            raise ValueError("patience must be >= 0")
        if not threshold >= 0:
            raise ValueError("threshold must be >= 0")
        if mode not in PLATEAU_MODES:
            raise ValueError(f"mode must be one of {PLATEAU_MODES}")
        self.base_lr = base_lr
        self.current_lr = base_lr
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.mode = mode
        self.best_metric: float | None = None
        self.epochs_since_improvement = 0
        self.history: list[float] = []
        self.decay_log: list[LrEvent] = []

    @property
    def epoch(self) -> int:
        return len(self.history)

    @classmethod
    def from_spec(cls, spec: ScheduleSpec) -> "PlateauScheduler":
        if spec.kind != "plateau":
            raise ValueError(f"expected a plateau spec, got {spec.kind!r}")
        return cls(
            base_lr=spec.base_lr,
            factor=spec.factor,
            patience=spec.patience,
            threshold=spec.threshold,
            mode=spec.mode,
        )

    def _improved(self, metric: float) -> bool:
        if self.best_metric is None:
            return True
        if self.mode == "min":
            return metric < self.best_metric * (1.0 - self.threshold)
        return metric > self.best_metric * (1.0 + self.threshold)

    def observe_epoch(self, metric: float) -> tuple[float, list[LrEvent]]:
        """Feed one end-of-epoch metric value; returns (lr, decay events)."""
        if not math.isfinite(metric):
            raise ValueError(f"metric must be finite, got {metric!r}")
        self.history.append(float(metric))
        events: list[LrEvent] = []
        if self._improved(metric):
            self.best_metric = float(metric)
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
            if self.epochs_since_improvement > self.patience:
                event = LrEvent(
                    epoch=self.epoch,
                    old_lr=self.current_lr,
                    new_lr=self.current_lr * self.factor,
                    trigger="plateau",
                )
                self.current_lr = event.new_lr
                self.decay_log.append(event)
                self.epochs_since_improvement = 0
                events.append(event)
        return self.current_lr, events


def make_scheduler(spec: ScheduleSpec) -> AbelScheduler | PlateauScheduler | None:
    """Build the stateful observer for a spec, or None for stateless kinds."""
    if spec.kind == "abel":
        return AbelScheduler.from_spec(spec)
    if spec.kind == "plateau":
        return PlateauScheduler.from_spec(spec)
    return None
