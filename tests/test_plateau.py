import math

import pytest

from abel_sched import PlateauScheduler, ScheduleSpec, restore_scheduler, serialize_scheduler


def test_constant_stream_first_decay_on_observation_12():
    s = PlateauScheduler(base_lr=1.0, factor=0.1, patience=10)
    decayed_at = []
    for obs in range(1, 30):
        _, events = s.observe_epoch(0.5)
        if events:
            decayed_at.append(obs)
    # observation 1 sets the best; the counter exceeds 10 on observation 12,
    # then resets, so the next decay lands 11 observations later
    assert decayed_at == [12, 23]
    assert s.current_lr == pytest.approx(0.01)


def test_strictly_improving_stream_never_decays():
    s = PlateauScheduler(base_lr=0.5, factor=0.2, patience=3, threshold=1e-4)
    loss = 1.0
    for _ in range(100):
        loss *= 0.99  # a 1% improvement clears the 0.01% threshold
        lr, events = s.observe_epoch(loss)
        assert events == []
    assert lr == 0.5


def test_relative_threshold_min_mode():
    s = PlateauScheduler(base_lr=1.0, factor=0.5, patience=0, threshold=0.01)
    s.observe_epoch(1.0)
    # exactly at best*(1 - threshold) is not an improvement
    _, events = s.observe_epoch(0.99)
    assert len(events) == 1
    assert s.best_metric == 1.0
    _, events = s.observe_epoch(0.98)  # below the line: improvement
    assert events == [] and s.best_metric == 0.98


def test_relative_threshold_max_mode():
    s = PlateauScheduler(base_lr=1.0, factor=0.5, patience=1, threshold=0.05, mode="max")
    s.observe_epoch(10.0)
    s.observe_epoch(10.4)      # not > 10 * 1.05: counter 1
    _, events = s.observe_epoch(10.4)  # counter 2 > patience: decay
    assert len(events) == 1
    _, events = s.observe_epoch(11.0)  # > 10 * 1.05: improvement
    assert events == [] and s.best_metric == 11.0


@pytest.mark.parametrize("factor", [0.1, 0.2])
def test_paper_decay_factors(factor):
    s = PlateauScheduler(base_lr=0.8, factor=factor, patience=2)
    for _ in range(4):
        lr, _ = s.observe_epoch(1.0)
    assert lr == pytest.approx(0.8 * factor)


def test_non_finite_metric_rejected():
    s = PlateauScheduler(base_lr=1.0, factor=0.5)
    with pytest.raises(ValueError):
        s.observe_epoch(math.inf)
    with pytest.raises(ValueError):
        s.observe_epoch(math.nan)


def test_serialization_round_trip():
    a = PlateauScheduler(base_lr=1.0, factor=0.3, patience=4, threshold=1e-3, mode="min")
    for v in [1.0, 0.9, 0.91, 0.92, 0.93]:
        a.observe_epoch(v)
    b = restore_scheduler(serialize_scheduler(a))
    for v in [0.94, 0.95, 0.96, 0.97, 0.98, 0.99]:
        lr_a, ev_a = a.observe_epoch(v)
        lr_b, ev_b = b.observe_epoch(v)
        assert lr_a == lr_b and ev_a == ev_b
    assert a.decay_log == b.decay_log


@pytest.mark.parametrize("threshold", [float("nan"), -1e-4])
def test_threshold_must_be_a_nonnegative_number(threshold):
    # a NaN threshold made every epoch a non-improvement: with patience 2 a
    # strictly falling metric decayed at epochs 4, 7 and 10
    with pytest.raises(ValueError, match="threshold"):
        PlateauScheduler(base_lr=0.1, factor=0.5, patience=2, threshold=threshold)
    with pytest.raises(ValueError, match="threshold"):
        ScheduleSpec(kind="plateau", base_lr=0.1, threshold=threshold)
