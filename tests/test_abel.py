import math

import numpy as np
import pytest

from abel_sched import AbelScheduler, StateDecodeError, restore_scheduler, serialize_scheduler

from helpers import FlipReplay


def feed(scheduler, values):
    out = []
    for v in values:
        out.append(scheduler.observe_epoch(v))
    return out


def test_hand_trace_arming_then_firing():
    s = AbelScheduler(base_lr=0.1, decay_factor=0.2, total_epochs=100)
    feed(s, [10, 8, 6])
    assert not s.reached_minimum and s.current_lr == 0.1

    lr, events = s.observe_epoch(7)  # delta +1 after -2: arming flip
    assert s.reached_minimum and lr == 0.1 and events == []

    lr, events = s.observe_epoch(7.5)
    assert lr == 0.1 and events == []
    lr, events = s.observe_epoch(7.6)
    assert lr == 0.1 and events == []

    lr, events = s.observe_epoch(7.55)  # delta -0.05 after +0.1: firing flip
    assert lr == pytest.approx(0.02, rel=1e-15)
    assert len(events) == 1 and events[0].trigger == "bounce" and events[0].epoch == 7
    assert not s.reached_minimum


def test_monotone_history_only_final_decay():
    s = AbelScheduler(base_lr=1.0, decay_factor=0.1, total_epochs=20)
    for epoch, value in enumerate(np.linspace(100, 40, 20), start=1):
        lr, events = s.observe_epoch(float(value))
        if epoch == 17:  # round(0.85 * 20)
            assert [e.trigger for e in events] == ["final_decay"]
        else:
            assert events == []
    assert s.current_lr == pytest.approx(0.1)
    assert [e.epoch for e in s.decay_log] == [17]


def test_final_decay_epoch_at_85_percent_of_200():
    s = AbelScheduler(base_lr=0.4, decay_factor=0.1, total_epochs=200)
    assert s.last_decay_epoch == 170
    for epoch in range(1, 201):
        _, events = s.observe_epoch(1000.0 - epoch)  # strictly decreasing
        if epoch == 170:
            assert [e.trigger for e in events] == ["final_decay"]
    assert [e.epoch for e in s.decay_log] == [170]


def test_no_arming_before_min_history_samples():
    # the flip at the third sample is visible immediately with min_history=3
    s3 = AbelScheduler(base_lr=1.0, decay_factor=0.5, total_epochs=50)
    feed(s3, [5.0, 4.0, 9.0])
    assert s3.reached_minimum
    # with min_history=5 the same prefix must stay quiet
    s5 = AbelScheduler(base_lr=1.0, decay_factor=0.5, total_epochs=50, min_history=5)
    feed(s5, [5.0, 4.0, 9.0, 3.0])
    assert not s5.reached_minimum and s5.decay_log == []


def test_decay_count_law_on_random_traces():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        total = int(rng.integers(10, 40))
        s = AbelScheduler(base_lr=float(rng.uniform(0.05, 2.0)),
                          decay_factor=float(rng.uniform(0.05, 0.9)),
                          total_epochs=total)
        value = float(rng.uniform(50, 150))
        for _ in range(total):
            value = max(1e-3, value + float(rng.normal(0, 5)))
            lr, _ = s.observe_epoch(value)
            expected = s.base_lr
            for _ in s.decay_log:
                expected *= s.decay_factor
            assert lr == expected == s.current_lr


def test_budget_independence_of_bounce_decays():
    rng = np.random.default_rng(7)
    walk = np.abs(np.cumsum(rng.normal(0, 3, size=100)) + 200.0) + 1.0
    short = AbelScheduler(base_lr=1.0, decay_factor=0.2, total_epochs=100)
    long = AbelScheduler(base_lr=1.0, decay_factor=0.2, total_epochs=200)
    for v in walk:
        short.observe_epoch(float(v))
        long.observe_epoch(float(v))
    bounces_short = [e.epoch for e in short.decay_log if e.trigger == "bounce"]
    bounces_long = [e.epoch for e in long.decay_log if e.trigger == "bounce"]
    assert bounces_short == bounces_long
    assert [e.epoch for e in short.decay_log if e.trigger == "final_decay"] == [85]
    assert [e.epoch for e in long.decay_log if e.trigger == "final_decay"] == []


def test_matches_independent_flip_replay():
    rng = np.random.default_rng(11)
    for window in (1, 3, 5):
        history = list(np.abs(np.cumsum(rng.normal(0, 2, size=120)) + 100.0) + 1.0)
        s = AbelScheduler(base_lr=1.0, decay_factor=0.5, total_epochs=120,
                          smoothing_window=window)
        for v in history:
            s.observe_epoch(float(v))
        replay = FlipReplay(120, window=window)
        bounces, finals = replay.decay_epochs(history)
        assert [e.epoch for e in s.decay_log if e.trigger == "bounce"] == bounces
        assert [e.epoch for e in s.decay_log if e.trigger == "final_decay"] == finals


def test_smoothing_window_block_means():
    s = AbelScheduler(base_lr=1.0, decay_factor=0.5, total_epochs=60, smoothing_window=3)
    # blocks average to 10, 8, 9, 8.5: arm on the third block, fire on the fourth
    raw = [9, 10, 11, 7, 8, 9, 9, 9, 9, 8.5, 8.5, 8.5]
    events_per_epoch = [s.observe_epoch(v)[1] for v in raw]
    assert s.smoothed_history == [10, 8, 9, 8.5]
    assert all(not ev for ev in events_per_epoch[:11])
    assert [e.trigger for e in events_per_epoch[11]] == ["bounce"]
    assert s.decay_log[0].epoch == 12


def test_no_flip_evaluation_between_emissions():
    # raw zig-zag inside a window must not trigger anything when the block
    # means are monotone
    s = AbelScheduler(base_lr=1.0, decay_factor=0.5, total_epochs=60, smoothing_window=2)
    for v in [10, 2, 9, 1, 8, 0.5, 7, 0.4]:  # means 6, 5, 4.25, 3.7
        _, events = s.observe_epoch(v)
        assert events == []
    assert not s.reached_minimum


def test_bounce_and_final_decay_can_coincide():
    s = AbelScheduler(base_lr=1.0, decay_factor=0.5, total_epochs=12,
                      last_decay_fraction=0.5)
    assert s.last_decay_epoch == 6
    feed(s, [10, 8, 6, 7, 7.5])
    lr, events = s.observe_epoch(7.2)  # firing flip exactly at epoch 6
    assert [e.trigger for e in events] == ["bounce", "final_decay"]
    assert lr == pytest.approx(0.25)
    assert len(s.decay_log) == 2


def test_input_validation():
    s = AbelScheduler(base_lr=1.0, decay_factor=0.5, total_epochs=10)
    with pytest.raises(ValueError):
        s.observe_epoch(0.0)
    with pytest.raises(ValueError):
        s.observe_epoch(-1.0)
    with pytest.raises(ValueError):
        s.observe_epoch(math.nan)
    with pytest.raises(ValueError):
        AbelScheduler(base_lr=1.0, decay_factor=0.5, total_epochs=10,
                      last_decay_fraction=0.0)


# -- serialization -------------------------------------------------------------


def test_serialize_restore_mid_bounce_identical_continuation():
    trace = [10, 8, 6, 7, 7.5, 7.6, 7.55, 7.7, 7.4, 7.8, 7.2]
    full = AbelScheduler(base_lr=0.1, decay_factor=0.2, total_epochs=50)
    prefix = AbelScheduler(base_lr=0.1, decay_factor=0.2, total_epochs=50)
    feed(full, trace)
    feed(prefix, trace[:5])
    restored = restore_scheduler(serialize_scheduler(prefix))
    for v in trace[5:]:
        restored.observe_epoch(v)
    assert restored.decay_log == full.decay_log
    assert restored.current_lr == full.current_lr
    assert restored.norm_history == full.norm_history
    assert restored.smoothed_history == full.smoothed_history


def test_restore_with_larger_budget_relocates_final_decay():
    trace = list(np.linspace(100, 60, 40))  # strictly decreasing: no bounces
    s = AbelScheduler(base_lr=1.0, decay_factor=0.2, total_epochs=40)
    feed(s, trace[:20])
    blob = serialize_scheduler(s)
    stayed = restore_scheduler(blob)
    moved = restore_scheduler(blob)
    moved.retarget(80)  # what the runner does on a resume with a new budget
    assert stayed.last_decay_epoch == 34
    assert moved.last_decay_epoch == 68
    for v in trace[20:]:
        stayed.observe_epoch(v)
        moved.observe_epoch(v)
    assert [(e.epoch, e.trigger) for e in stayed.decay_log] == [(34, "final_decay")]
    assert moved.decay_log == []  # relocated final decay now waits at epoch 68
    assert moved.smoothed_history == stayed.smoothed_history


def test_corrupt_state_raises_decode_error():
    s = AbelScheduler(base_lr=1.0, decay_factor=0.2, total_epochs=10)
    feed(s, [3.0, 2.0, 1.5])
    blob = serialize_scheduler(s)
    with pytest.raises(StateDecodeError):
        restore_scheduler(blob[:-3])
    with pytest.raises(StateDecodeError):
        restore_scheduler(b"XXXX" + blob[4:])
    with pytest.raises(StateDecodeError):
        restore_scheduler(blob + b"\x00")
    with pytest.raises(StateDecodeError):
        restore_scheduler(b"")


def test_serialization_is_byte_stable():
    s1 = AbelScheduler(base_lr=0.25, decay_factor=0.2, total_epochs=30)
    s2 = AbelScheduler(base_lr=0.25, decay_factor=0.2, total_epochs=30)
    for v in [5.0, 4.5, 4.0, 4.2, 4.4, 3.9]:
        s1.observe_epoch(v)
        s2.observe_epoch(v)
    assert serialize_scheduler(s1) == serialize_scheduler(s2)
