"""Spans around the library's public calls, recorded from outside the library.

The wrappers replace a public function or method with one that records a
span (id, name, start, end, parent id, run id) in memory. A module-level
function is replaced in every ``abel_sched`` module that holds it, because
callers such as the runner import the names they use. Wrappers are
installed before the sweep's pool forks, so its workers inherit them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

from hostspeed import REF_EVERY, reference_pass

# (module, attribute, span name). The span name's first part is the layer.
TRACED_CALLS = (
    ("abel_sched.runner", "run_experiment", "runner.run"),
    ("abel_sched.datasets", "make_dataset", "datasets.make"),
    ("abel_sched.models", "Model.init_params", "models.init"),
    ("abel_sched.models", "Model.train_step_stats", "models.train_step"),
    ("abel_sched.models", "Model.error_rate", "models.eval"),
    ("abel_sched.optim", "step_sgd", "optim.step"),
    ("abel_sched.optim", "step_adam", "optim.step"),
    ("abel_sched.optim", "clip_global_norm", "optim.clip"),
    ("abel_sched.params", "weight_norm_sq", "params.norm"),
    ("abel_sched.params", "inner_gw", "params.inner_gw"),
    ("abel_sched.adaptive", "AbelScheduler.observe_epoch", "adaptive.observe"),
    ("abel_sched.state_io", "serialize_scheduler", "state_io.serialize"),
    ("abel_sched.state_io", "restore_scheduler", "state_io.restore"),
    ("abel_sched.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("abel_sched.checkpoint", "load_checkpoint", "checkpoint.load"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Spans and epoch boundaries of one process, kept until the run ends.

    ``active`` switches span recording on and off between units of work, so
    one process can time traced and untraced units alike. Host-speed samples
    go to ``ref_ms``; their time is left out of ``clock()``, which times the
    spans and the epochs.
    """

    active: bool = False
    run: int = 0
    spans: list[Span] = field(default_factory=list)
    epoch_ends: list[float] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)
    paused_s: float = 0.0
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0

    def reset(self) -> None:
        self.spans.clear()
        self.epoch_ends.clear()
        self.ref_ms.clear()
        self._stack.clear()

    def clock(self) -> float:
        """perf_counter() less the time spent in host-speed samples so far."""
        return time.perf_counter() - self.paused_s

    def sample(self) -> None:
        """Time one reference pass into ``ref_ms``, off the clock."""
        t0 = time.perf_counter()
        reference_pass()
        took = time.perf_counter() - t0
        self.paused_s += took
        self.ref_ms.append(took * 1e3)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``, when recording is on."""
        if not self.active:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace_everywhere(original, replacement) -> None:
    """Point every abel_sched module's global that holds ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "abel_sched" or mod_name.startswith("abel_sched."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def install_epoch_clock(recorder: Recorder) -> None:
    """Record epoch boundaries in ``recorder.epoch_ends``.

    A run's first ``Model.train_step_stats`` call opens its first epoch (when
    ``epoch_ends`` was cleared before the run), and every return of the
    once-per-epoch ``Model.error_rate`` closes one. Times are read from
    ``recorder.clock()``. Every REF_EVERY-th epoch end is followed by a
    host-speed sample, which the clock leaves out.
    """
    from abel_sched.models import Model

    train_step, error_rate = Model.train_step_stats, Model.error_rate

    @functools.wraps(train_step)
    def train_step_stats(*args, **kwargs):
        if not recorder.epoch_ends:
            recorder.epoch_ends.append(recorder.clock())
        return train_step(*args, **kwargs)

    @functools.wraps(error_rate)
    def timed_error_rate(*args, **kwargs):
        out = error_rate(*args, **kwargs)
        recorder.epoch_ends.append(recorder.clock())
        if (len(recorder.epoch_ends) - 1) % REF_EVERY == 0:
            recorder.sample()
        return out

    Model.train_step_stats = train_step_stats
    Model.error_rate = timed_error_rate


def _traced(recorder: Recorder, span_name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(span_name, fn, *args, **kwargs)

    return traced


def install_spans(recorder: Recorder) -> None:
    """Wrap every call of TRACED_CALLS in a span of ``recorder``."""
    for module_name, attribute, span_name in TRACED_CALLS:
        owner, name = _resolve(module_name, attribute)
        original = getattr(owner, name)

        traced = _traced(recorder, span_name, original)
        if isinstance(owner, type):
            setattr(owner, name, traced)
        else:
            _replace_everywhere(original, traced)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, busy seconds and self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += s.duration
        agg["self_s"] += own[s.id]
    return out


def spans_to_json(spans: list[Span]) -> list[list]:
    return [[s.id, s.name, s.start, s.end, s.parent, s.run] for s in spans]


def spans_from_json(rows: list[list]) -> list[Span]:
    return [Span(*row) for row in rows]
