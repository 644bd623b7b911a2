"""Offline analysis of logged weight-norm traces.

A *bounce* is a monotonic decrease of the squared weight norm followed by a
monotonic increase, at a fixed learning rate. This module quantifies that
with tolerant monotone runs: epoch m is a bounce point when a non-increasing
run of at least two steps ends at m and a non-decreasing run of at least two
steps starts at m (each step may wiggle against the trend by up to
``noise_tol`` relative to its predecessor), and the net drop over the
down-run and net rise over the up-run each exceed ``noise_tol * wsq(m)``.
With ``noise_tol = 0`` this reduces to strict monotone flanks with nonzero
net drop and rise.

Traces are segmented at decay epochs and each fixed-lr segment is analyzed
independently; segments shorter than 5 epochs give no verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_NOISE_TOL = 0.005
MIN_SEGMENT_LEN = 5


@dataclass(frozen=True)
class NormTrace:
    """Per-epoch squared weight norms, with optional per-layer traces and decay epochs."""

    epochs: tuple[int, ...]
    wsq: tuple[float, ...]
    per_layer: dict[str, tuple[float, ...]] | None = None
    decay_epochs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.epochs) != len(self.wsq):
            raise ValueError("epochs and wsq must have equal length")
        if any(e2 <= e1 for e1, e2 in zip(self.epochs, self.epochs[1:])):
            raise ValueError("epochs must be strictly increasing")
        if any(not (v > 0 and math.isfinite(v)) for v in self.wsq):
            raise ValueError("wsq values must be positive and finite")
        if self.per_layer is not None:
            for name, values in self.per_layer.items():
                if len(values) != len(self.epochs):
                    raise ValueError(f"per-layer trace {name!r} length mismatch")

    @staticmethod
    def from_values(wsq, decay_epochs=(), per_layer=None) -> "NormTrace":
        """Trace with epochs numbered 1..n."""
        wsq = tuple(float(v) for v in wsq)
        return NormTrace(
            epochs=tuple(range(1, len(wsq) + 1)),
            wsq=wsq,
            per_layer=None if per_layer is None else
            {k: tuple(float(x) for x in v) for k, v in per_layer.items()},
            decay_epochs=tuple(int(e) for e in decay_epochs),
        )


@dataclass
class DecayVerdict:
    epoch: int
    alignment: str  # "after_bounce" | "before_bounce" | "no_bounce_segment"
    epochs_since_bounce: int | None


@dataclass
class SegmentReport:
    start_epoch: int
    end_epoch: int
    classification: str  # "decreasing" | "increasing" | "bounced" | "flat" | "insufficient"
    bounce_epochs: list[int]


@dataclass
class AnalysisReport:
    classification: str
    segments: list[SegmentReport]
    bounce_epochs: list[int]
    decays: list[DecayVerdict]
    drops: list["DecayDrop"] = field(default_factory=list)
    monotone_drops: bool | None = None
    top_layers: list["LayerShare"] = field(default_factory=list)
    growth_rate_deciles: list[float] = field(default_factory=list)


@dataclass
class DecayDrop:
    epoch: int
    drop: float
    partial: bool


@dataclass
class LayerShare:
    name: str
    max_wsq: float
    mean_share: float
    classification: str
    matches_total: bool


def _segment_bounds(trace: NormTrace) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of fixed-lr segments; a decay epoch ends its segment."""
    bounds = []
    lo = 0
    for d in sorted(set(trace.decay_epochs)):
        hi = 0
        while hi < len(trace.epochs) and trace.epochs[hi] <= d:
            hi += 1
        if hi > lo:
            bounds.append((lo, hi))
            lo = hi
    if lo < len(trace.epochs):
        bounds.append((lo, len(trace.epochs)))
    return bounds


def _bounce_indices(values, noise_tol: float) -> list[int]:
    """Indices m satisfying the bounce test inside one segment.

    ``down[m]`` is the start of the longest tolerant non-increasing run
    ending at m (every step satisfies v[i+1] <= v[i] + tol*v[i]); ``up[m]``
    is the end of the longest tolerant non-decreasing run starting at m.
    m is a bounce when both runs span at least two steps, the run start and
    end lie at least two epochs inside the segment, and the net drop and
    rise each exceed tol*v[m].
    """
    n = len(values)
    down = [0] * n  # start index of the tolerant non-increasing run ending here
    for i in range(1, n):
        if values[i] <= values[i - 1] + noise_tol * values[i - 1]:
            down[i] = down[i - 1]
        else:
            down[i] = i
    up = [n - 1] * n  # end index of the tolerant non-decreasing run starting here
    for i in range(n - 2, -1, -1):
        if values[i + 1] >= values[i] - noise_tol * values[i]:
            up[i] = up[i + 1]
        else:
            up[i] = i
    hits = []
    for m in range(2, n - 2):
        tol = noise_tol * values[m]
        if (m - down[m] >= 2 and up[m] - m >= 2
                and values[down[m]] - values[m] > tol
                and values[up[m]] - values[m] > tol):
            hits.append(m)
    return hits


def detect_bounce(trace: NormTrace, noise_tol: float = DEFAULT_NOISE_TOL) -> list[int]:
    """Bounce epochs, per fixed-lr segment; short segments contribute none."""
    return _bounces(_segment_reports(trace, noise_tol))


def _bounces(segments: list[SegmentReport]) -> list[int]:
    return [epoch for seg in segments for epoch in seg.bounce_epochs]


def _monotone_label(values, noise_tol: float) -> str:
    first, last = values[0], values[-1]
    steps_up = all(b - a >= -noise_tol * a for a, b in zip(values, values[1:]))
    steps_down = all(b - a <= noise_tol * a for a, b in zip(values, values[1:]))
    if steps_up and last - first > noise_tol * first:
        return "increasing"
    if steps_down and first - last > noise_tol * first:
        return "decreasing"
    return "flat"


def classify_trace(trace: NormTrace, noise_tol: float = DEFAULT_NOISE_TOL) -> str:
    """One of bouncing / monotone_increasing / monotone_decreasing / flat."""
    return _classify(trace, _segment_reports(trace, noise_tol), noise_tol)


def _classify(trace: NormTrace, segments: list[SegmentReport], noise_tol: float) -> str:
    """``classify_trace`` from the trace's segment reports."""
    if _bounces(segments):
        return "bouncing"
    label = _monotone_label(trace.wsq, noise_tol)
    return {"increasing": "monotone_increasing", "decreasing": "monotone_decreasing",
            "flat": "flat"}[label]


def _segment_reports(trace: NormTrace, noise_tol: float) -> list[SegmentReport]:
    if noise_tol < 0:
        raise ValueError("noise_tol must be >= 0")
    reports = []
    for lo, hi in _segment_bounds(trace):
        values = trace.wsq[lo:hi]
        if hi - lo < MIN_SEGMENT_LEN:
            label = "insufficient"
            bounces: list[int] = []
        else:
            bounces = [trace.epochs[lo + m] for m in _bounce_indices(values, noise_tol)]
            label = "bounced" if bounces else _monotone_label(values, noise_tol)
        reports.append(SegmentReport(
            start_epoch=trace.epochs[lo], end_epoch=trace.epochs[hi - 1],
            classification=label, bounce_epochs=bounces))
    return reports


def decay_alignment(trace: NormTrace, noise_tol: float = DEFAULT_NOISE_TOL) -> list[DecayVerdict]:
    """Alignment verdict for every decay event on the trace.

    ``after_bounce`` when the fixed-lr segment ending at the decay contains a
    bounce before it; ``before_bounce`` when the only bounces of the run come
    later; ``no_bounce_segment`` when the run never bounces at all.
    """
    return _alignment(trace, _segment_reports(trace, noise_tol))


def _alignment(trace: NormTrace, segments: list[SegmentReport]) -> list[DecayVerdict]:
    """``decay_alignment`` from the trace's segment reports."""
    all_bounces = _bounces(segments)
    verdicts = []
    for d in sorted(set(trace.decay_epochs)):
        own = next((seg for seg in segments if seg.start_epoch <= d <= seg.end_epoch), None)
        prior = [b for b in (own.bounce_epochs if own else []) if b < d]
        if prior:
            verdicts.append(DecayVerdict(epoch=d, alignment="after_bounce",
                                         epochs_since_bounce=d - max(prior)))
        elif any(b > d for b in all_bounces):
            verdicts.append(DecayVerdict(epoch=d, alignment="before_bounce",
                                         epochs_since_bounce=None))
        else:
            verdicts.append(DecayVerdict(epoch=d, alignment="no_bounce_segment",
                                         epochs_since_bounce=None))
    return verdicts


def post_decay_drops(errors: list[float], epochs: list[int], decay_epochs: list[int],
                     window: int = 5) -> tuple[list[DecayDrop], bool | None]:
    """Error improvement across each decay.

    drop = (min error in the ``window`` epochs up to and including the decay)
    minus (min error in the ``window`` epochs after it). A drop whose window
    is cut short by the series bounds is flagged partial. Also returns
    whether the drops are non-increasing over successive decays (None when
    fewer than two decays have a value).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(errors) != len(epochs):
        raise ValueError("errors and epochs must have equal length")
    index_of = {e: i for i, e in enumerate(epochs)}
    drops = []
    for d in sorted(set(decay_epochs)):
        if d not in index_of:
            raise ValueError(f"decay epoch {d} not present in the series")
        i = index_of[d]
        before = errors[max(0, i - window + 1):i + 1]
        after = errors[i + 1:i + 1 + window]
        partial = len(before) < window or len(after) < window
        if not after:
            drops.append(DecayDrop(epoch=d, drop=math.nan, partial=True))
            continue
        drops.append(DecayDrop(epoch=d, drop=min(before) - min(after), partial=partial))
    valued = [dr.drop for dr in drops if not math.isnan(dr.drop)]
    monotone = None
    if len(valued) >= 2:
        monotone = all(b <= a for a, b in zip(valued, valued[1:]))
    return drops, monotone


def top_layer_contribution(trace: NormTrace, k: int,
                           noise_tol: float = DEFAULT_NOISE_TOL) -> list[LayerShare]:
    """Top-k layers by peak norm: their share of the total and their trace class.

    Shares at each epoch are relative to the sum over all layers, so with
    k = layer count they sum to one.
    """
    if trace.per_layer is None or not trace.per_layer:
        raise ValueError("trace carries no per-layer data")
    if k < 1:
        raise ValueError("k must be >= 1")
    totals = [sum(vals[i] for vals in trace.per_layer.values())
              for i in range(len(trace.epochs))]
    total_class = classify_trace(
        NormTrace(trace.epochs, tuple(totals), None, trace.decay_epochs), noise_tol)
    ranked = sorted(trace.per_layer.items(), key=lambda kv: max(kv[1]), reverse=True)
    out = []
    for name, values in ranked[:k]:
        sub = NormTrace(trace.epochs, tuple(values), None, trace.decay_epochs)
        cls = classify_trace(sub, noise_tol)
        shares = [v / t for v, t in zip(values, totals)]
        out.append(LayerShare(
            name=name, max_wsq=max(values), mean_share=sum(shares) / len(shares),
            classification=cls, matches_total=(cls == total_class)))
    return out


def growth_rate_deciles(trace: NormTrace) -> list[float]:
    """Deciles of the per-epoch relative growth rate of the squared norm."""
    rates = sorted((b - a) / a for a, b in zip(trace.wsq, trace.wsq[1:]))
    if not rates:
        return []
    n = len(rates)
    return [rates[min(n - 1, int(q * (n - 1) / 10 + 0.5))] for q in range(11)]


def analyze_trace(trace: NormTrace, errors: list[float] | None = None,
                  noise_tol: float = DEFAULT_NOISE_TOL, top_k: int = 3,
                  drop_window: int = 5) -> AnalysisReport:
    """Full report: classification, segments, alignment, drops, layer shares.
    The segment reports are computed once and shared by every part."""
    segments = _segment_reports(trace, noise_tol)
    report = AnalysisReport(
        classification=_classify(trace, segments, noise_tol),
        segments=segments,
        bounce_epochs=_bounces(segments),
        decays=_alignment(trace, segments),
        growth_rate_deciles=growth_rate_deciles(trace),
    )
    if errors is not None and trace.decay_epochs:
        report.drops, report.monotone_drops = post_decay_drops(
            errors, list(trace.epochs), list(trace.decay_epochs), drop_window)
    if trace.per_layer:
        report.top_layers = top_layer_contribution(trace, min(top_k, len(trace.per_layer)),
                                                   noise_tol)
    return report
