"""Cross-module properties of the standard toy task (see helpers.py).

These are slower, integration-level checks: the bounce precondition,
scheduler/detector consistency, layer-wise norm behaviour, the optimizer
variants, and init-scale robustness. Each run trains once per session, with
its family (see ``helpers.run_cached``).
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from abel_sched import (
    AbelScheduler,
    NormTrace,
    OptimizerSpec,
    classify_trace,
    decay_alignment,
    detect_bounce,
    run_experiment,
    run_sweep,
    top_layer_contribution,
)

from helpers import CLASSIFY_TOL, FlipReplay, run_cached, standard_config


def trace_from(result, with_layers=False) -> NormTrace:
    per_layer = None
    if with_layers:
        per_layer = {name: tuple(r.per_layer_wsq[name] for r in result.records)
                     for name in result.records[0].per_layer_wsq}
    return NormTrace(
        epochs=tuple(r.epoch for r in result.records),
        wsq=tuple(r.wsq_total for r in result.records),
        per_layer=per_layer,
        decay_epochs=tuple(ev.epoch for ev in result.events),
    )


def test_bounce_precondition_across_the_lr_grid(run_root):
    """No weight decay, no bounce, at any grid learning rate; with weight
    decay the large stable rates always bounce."""
    for lr in (1.0, 4.0, 8.0):
        zero = run_cached(standard_config("constant", base_lr=lr, weight_decay=0.0),
                          run_root)
        assert detect_bounce(trace_from(zero), CLASSIFY_TOL) == [], lr
        # growth is strict step by step for the fully scale-invariant net
        wsqs = [r.wsq_total for r in zero.records]
        assert all(b > a for a, b in zip(wsqs, wsqs[1:]))
    for lr in (4.0, 8.0):
        bounce = run_cached(standard_config("constant", base_lr=lr), run_root)
        assert classify_trace(trace_from(bounce), CLASSIFY_TOL) == "bouncing", lr


def test_scheduler_decays_replay_from_logged_history(run_root):
    """An independent arm/fire replay of the logged norm trace must predict
    exactly the decay epochs the run recorded."""
    result = run_cached(standard_config("abel"), run_root)
    replay = FlipReplay(total_epochs=200, window=5)
    bounces, finals = replay.decay_epochs([r.wsq_total for r in result.records])
    assert bounces == [e.epoch for e in result.events if e.trigger == "bounce"]
    assert finals == [e.epoch for e in result.events if e.trigger == "final_decay"]


def test_detector_sees_scheduler_bounces_on_clean_traces():
    """On a noiseless synthetic trace the strict detector finds a bounce
    before the bounce-triggered decay."""
    history = [100, 90, 80, 72, 66, 62, 60, 61, 63, 66, 70, 73, 75, 76, 76.5,
               76.4, 76.2]
    s = AbelScheduler(base_lr=1.0, decay_factor=0.2, total_epochs=50)
    decays = []
    for v in history:
        _, events = s.observe_epoch(v)
        decays.extend(e.epoch for e in events if e.trigger == "bounce")
    assert decays == [16]
    bounces = detect_bounce(NormTrace.from_values(history), 0.0)
    assert bounces and bounces[0] < decays[0]


def test_abel_decays_align_after_bounce_on_the_standard_run(run_root):
    """On the standard task (with its documented tolerance) every
    bounce-triggered decay lands after a detector-visible bounce."""
    result = run_cached(standard_config("abel"), run_root)
    bounce_epochs = {e.epoch for e in result.events if e.trigger == "bounce"}
    assert bounce_epochs
    verdicts = decay_alignment(trace_from(result), CLASSIFY_TOL)
    for verdict in verdicts:
        if verdict.epoch in bounce_epochs:
            assert verdict.alignment == "after_bounce", verdict


def test_top_layers_classify_like_the_total(run_root):
    result = run_cached(standard_config("constant"), run_root)
    trace = trace_from(result, with_layers=True)
    shares = top_layer_contribution(trace, k=3, noise_tol=CLASSIFY_TOL)
    assert sum(s.mean_share for s in shares) == pytest.approx(1.0)  # k = all layers
    matching = sum(s.matches_total for s in shares)
    assert matching >= 2  # majority behaves like the total


def test_adam_with_l2_also_bounces(run_root):
    config = standard_config("constant", base_lr=0.02, weight_decay=1e-3, epochs=150)
    config = replace(config, optimizer=OptimizerSpec(kind="adam"))
    result = run_cached(config, run_root)
    assert classify_trace(trace_from(result), 0.02) == "bouncing"


def test_final_norm_roughly_independent_of_init_scale(tmp_path):
    """Runs started at very different norms equilibrate to similar final
    norms (the bouncing regime); a 16x spread of init scales stays within a
    factor of two in final squared norm."""
    template = replace(standard_config("abel"), log_dir=str(tmp_path / "unused"))
    points = run_sweep(template, {"init_scale": [0.25, 1.0, 4.0]}, tmp_path / "sweep")
    finals = {}
    for p in points:
        records = np.loadtxt(Path(p.log_dir) / "metrics.csv", delimiter=",", skiprows=1,
                             usecols=5)
        finals[p.values["init_scale"]] = float(records[-1])
    values = list(finals.values())
    assert max(values) / min(values) < 2.0, finals
    initials = [0.25 ** 2, 1.0, 4.0 ** 2]
    assert max(initials) / min(initials) == 256.0  # the spread we started from
