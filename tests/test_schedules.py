import math

import numpy as np
import pytest

from abel_sched import ScheduleSpec, lr_at, warmup_scale


def bisect_crossing(f, lo, hi, tol=1e-12):
    """Smallest x in [lo, hi] with f(x) <= 0, for monotone f."""
    assert f(lo) > 0 and f(hi) <= 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return hi


def test_stepwise_paper_example():
    spec = ScheduleSpec(kind="stepwise", base_lr=0.8,
                        milestones=((30, 0.1), (60, 0.1)))
    assert lr_at(spec, 45) == pytest.approx(0.08, rel=1e-12)
    assert lr_at(spec, 10) == 0.8
    assert lr_at(spec, 60) == pytest.approx(0.008, rel=1e-12)


def test_stepwise_empty_milestones_is_constant():
    spec = ScheduleSpec(kind="stepwise", base_lr=0.3)
    for t in (0, 17, 123):
        assert lr_at(spec, t) == 0.3


def test_cosine_quarter_crosses_tenth_at_936_of_training():
    spec = ScheduleSpec(kind="cosine", base_lr=1.0, total_epochs=1, cosine_form="quarter")
    crossing = bisect_crossing(lambda x: lr_at(spec, x) - 0.1, 0.0, 1.0)
    assert abs(crossing - 0.936) < 1e-3


def test_cosine_half_crosses_tenth_at_795_of_training():
    spec = ScheduleSpec(kind="cosine", base_lr=1.0, total_epochs=1, cosine_form="half")
    crossing = bisect_crossing(lambda x: lr_at(spec, x) - 0.1, 0.0, 1.0)
    assert abs(crossing - 0.795) < 1e-3


def test_cosine_half_endpoint_is_zero():
    spec = ScheduleSpec(kind="cosine", base_lr=0.4, total_epochs=90, cosine_form="half")
    assert lr_at(spec, 90) == pytest.approx(0.0, abs=1e-16)


def test_simple_decay_definition():
    spec = ScheduleSpec(kind="simple", base_lr=0.1, total_epochs=100,
                        decay_fraction=0.85, factor=0.2)
    assert lr_at(spec, 0.9 * 100) == pytest.approx(0.02, rel=1e-12)
    assert lr_at(spec, 84.9) == 0.1
    assert lr_at(spec, 85) == pytest.approx(0.02, rel=1e-12)


def test_linear_interpolates_to_final_lr():
    spec = ScheduleSpec(kind="linear", base_lr=1.0, total_epochs=10, final_lr=0.2)
    assert lr_at(spec, 0) == 1.0
    assert lr_at(spec, 5) == pytest.approx(0.6)
    assert lr_at(spec, 10) == pytest.approx(0.2)


def test_domain_errors():
    spec = ScheduleSpec(kind="cosine", base_lr=1.0, total_epochs=10)
    with pytest.raises(ValueError):
        lr_at(spec, -1)
    with pytest.raises(ValueError):
        lr_at(spec, 11)
    with pytest.raises(ValueError):
        lr_at(ScheduleSpec(kind="abel", base_lr=1.0, total_epochs=10), 5)


def test_stateless_schedules_monotone_non_increasing():
    specs = [
        ScheduleSpec(kind="stepwise", base_lr=1.0, milestones=((3, 0.5), (7, 0.1))),
        ScheduleSpec(kind="cosine", base_lr=1.0, total_epochs=50, cosine_form="quarter"),
        ScheduleSpec(kind="cosine", base_lr=1.0, total_epochs=50, cosine_form="half"),
        ScheduleSpec(kind="linear", base_lr=1.0, total_epochs=50, final_lr=0.0),
        ScheduleSpec(kind="simple", base_lr=1.0, total_epochs=50),
    ]
    ts = np.linspace(0, 50, 201)
    for spec in specs:
        values = [lr_at(spec, float(t)) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:])), spec.kind


def test_warmup_scale_formula():
    assert warmup_scale(0, 16, 5) == 0.0
    # 2.5 epochs' worth of steps into a 5-epoch warmup
    assert warmup_scale(40, 16, 5) == pytest.approx(0.5)
    assert warmup_scale(80, 16, 5) == 1.0
    assert warmup_scale(10_000, 16, 5) == 1.0
    assert warmup_scale(3, 16, 0) == 1.0


def test_warmup_composes_with_schedule_value():
    # the effective lr is lr_at(...) * warmup_scale(...); lr_at itself ignores warmup
    spec = ScheduleSpec(kind="constant", base_lr=2.0, warmup_epochs=4)
    assert lr_at(spec, 1) == 2.0
    assert lr_at(spec, 1) * warmup_scale(16, 16, spec.warmup_epochs) == pytest.approx(0.5)
    assert lr_at(spec, 4) * warmup_scale(64, 16, spec.warmup_epochs) == 2.0
    assert lr_at(spec, 9) * warmup_scale(144, 16, spec.warmup_epochs) == 2.0


def test_warmup_scale_saturates_after_warmup():
    for step in range(0, 200):
        s = warmup_scale(step, 8, 3)
        assert 0.0 <= s <= 1.0
        if step >= 24:
            assert s == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(kind="nope", base_lr=0.1),
    dict(kind="constant", base_lr=0.0),
    dict(kind="constant", base_lr=0.1, warmup_epochs=-1),
    dict(kind="stepwise", base_lr=0.1, milestones=((5, 0.1), (5, 0.2))),
    dict(kind="stepwise", base_lr=0.1, milestones=((5, 1.5),)),
    dict(kind="cosine", base_lr=0.1, total_epochs=0),
    dict(kind="cosine", base_lr=0.1, total_epochs=10, cosine_form="third"),
    dict(kind="linear", base_lr=0.1, total_epochs=10, final_lr=-0.1),
    dict(kind="simple", base_lr=0.1, total_epochs=10, decay_fraction=1.5),
    dict(kind="simple", base_lr=0.1, total_epochs=10, factor=1.0),
    dict(kind="abel", base_lr=0.1, total_epochs=10, decay_factor=0.0),
    dict(kind="abel", base_lr=0.1, total_epochs=10, smoothing_window=0),
    dict(kind="abel", base_lr=0.1, total_epochs=10, min_history=2),
    dict(kind="plateau", base_lr=0.1, patience=-1),
    dict(kind="plateau", base_lr=0.1, mode="median"),
])
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ScheduleSpec(**kwargs)
