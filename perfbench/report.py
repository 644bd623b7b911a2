"""Metrics from a workload's outcome: end to end, or per layer from its spans.

Per-layer times of calls made inside the epoch loop are self time per
epoch, so they add up with ``runner.self_ms`` to the traced epoch. Times of
calls made once per run or per checkpoint file are per call. A layer that a
workload bypasses reports 0.
"""

from __future__ import annotations

from measures import median, peak_rss_mb, percentile, tail_percentile
from spans import layer_totals

# (metric, span name): self time per traced epoch, in ms
PER_EPOCH_MS = (
    ("models.train_step_ms", "models.train_step"),
    ("models.eval_ms", "models.eval"),
    ("optim.step_ms", "optim.step"),
    ("optim.clip_ms", "optim.clip"),
    ("params.norm_ms", "params.norm"),
    ("params.inner_gw_ms", "params.inner_gw"),
    ("runner.self_ms", "runner.run"),
)
# (metric, span name, scale to unit, unit): mean busy time per call
PER_CALL = (
    ("adaptive.observe_us", "adaptive.observe", 1e6, "us"),
    ("state_io.serialize_us", "state_io.serialize", 1e6, "us"),
    ("state_io.restore_us", "state_io.restore", 1e6, "us"),
    ("checkpoint.save_ms", "checkpoint.save", 1e3, "ms"),
    ("analysis.analyze_ms", "analysis.analyze", 1e3, "ms"),
)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(out, at_reference_speed: bool = True) -> dict:
    """Metrics of the untraced units: rates over their total time, times as medians
    or percentiles over all of them.

    Each time is divided by the host's slowdown measured beside it, so it reads
    as on the reference host of hostspeed.py; ``at_reference_speed=False``
    gives the times as measured instead.
    """
    def scale(slow: float) -> float:
        return slow if at_reference_speed else 1.0

    epochs = [ms / scale(slow) for traced, group, slowdowns in out.epoch_groups if not traced
              for ms, slow in zip(group, slowdowns)]
    unit_s = [s / scale(slow) for s, slow in zip(out.unit_s, out.unit_slowdown)]
    setup_s = [s / scale(slow) for s, slow in zip(out.setup_s, out.setup_slowdown)]
    return {
        "setup_s": _metric(median(setup_s), "s"),
        "train_samples_per_s": _metric(sum(out.unit_samples) / sum(unit_s), "1/s"),
        "epoch_ms.p50": _metric(percentile(epochs, 50), "ms"),
        "epoch_ms.p95": _metric(tail_percentile(epochs, 95), "ms"),
        "sweep_s": _metric(median(unit_s), "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def _merged_totals(span_lists) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        for name, agg in layer_totals(spans).items():
            into = merged.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key, value in agg.items():
                into[key] += value
    return merged


def per_layer(out) -> dict:
    totals = _merged_totals(out.spans)
    epochs = sum(map(len, out.groups(True)))
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics = {}
    for metric, span in PER_EPOCH_MS:
        metrics[metric] = _metric(totals.get(span, empty)["self_s"] / epochs * 1e3, "ms")
    metrics["models.train_step_calls"] = _metric(
        totals.get("models.train_step", empty)["calls"] / epochs, "1/epoch")
    for metric, span, scale, unit in PER_CALL:
        agg = totals.get(span, empty)
        metrics[metric] = _metric(agg["busy_s"] / agg["calls"] * scale if agg["calls"] else 0.0,
                                  unit)
    metrics["checkpoint.bytes"] = _metric(
        median(out.checkpoint_bytes) if out.checkpoint_bytes else 0, "B")
    loads = [s.duration * 1e3 for spans in out.spans for s in spans
             if s.name == "checkpoint.load"]
    metrics["checkpoint.load_ms.p50"] = _metric(percentile(loads, 50) if loads else 0.0, "ms")
    metrics["checkpoint.load_ms.p95"] = _metric(tail_percentile(loads, 95) if loads else 0.0,
                                                "ms")
    metrics["runner.log_bytes"] = _metric(median(out.log_bytes) if out.log_bytes else 0.0,
                                          "B/epoch")
    metrics["setup.import_ms"] = _metric(median([p["import_ms"] for p in out.setup_phases]), "ms")
    metrics["config.parse_ms"] = _metric(median([p["parse_ms"] for p in out.setup_phases]), "ms")
    metrics["datasets.make_ms"] = _metric(median([p["dataset_ms"] for p in out.setup_phases]),
                                          "ms")
    for name in ("cpu_s_per_point", "inherited_s", "inherited_cpu_s_per_point"):
        metrics[f"sweep.{name}"] = _metric(out.sweep.get(name, 0.0), "s")
    for name in ("points_ok_ratio", "busy_share"):
        metrics[f"sweep.{name}"] = _metric(out.sweep.get(name, 0.0), "ratio")
    metrics["trace.overhead_share"] = _metric(_overhead_share(out), "ratio")
    return metrics


def _overhead_share(out) -> float:
    """Median over traced epoch groups of their median epoch against the untraced
    group that ran just before, minus 1. Epochs are taken at the reference host
    speed, and pairing neighbours cancels what drift is left."""
    ratios = []
    before = None
    for traced, epochs, slowdowns in out.epoch_groups:
        at_reference = median([ms / slow for ms, slow in zip(epochs, slowdowns)])
        if not traced:
            before = at_reference
        elif before is not None:
            ratios.append(at_reference / before)
    return median(ratios) - 1.0


def accounting(out) -> str:
    """How the traced epoch splits into layers' self time and the runner's."""
    totals = _merged_totals(out.spans)
    epochs = sum(map(len, out.groups(True)))
    run_ms = totals["runner.run"]["busy_s"] / epochs * 1e3
    layers_ms = sum(agg["self_s"] for name, agg in totals.items()
                    if name not in ("runner.run", "checkpoint.load", "analysis.analyze")
                    ) / epochs * 1e3
    runner_ms = totals["runner.run"]["self_s"] / epochs * 1e3
    untraced = [ms for g in out.groups(False) for ms in g]
    untraced_ms = sum(untraced) / len(untraced)
    return (f"accounting per epoch: layers' self time {layers_ms:.4f} ms + runner.self_ms "
            f"{runner_ms:.4f} ms = traced run wall {run_ms:.4f} ms; untraced epoch mean "
            f"{untraced_ms:.4f} ms")
