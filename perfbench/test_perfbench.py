"""Unit tests of the benchmark's own helpers.

Run with: python3 -m pytest -q perfbench/test_perfbench.py
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import LOCAL_EPOCHS, REF_EVERY, REF_MS, epoch_slowdowns, slowdown
from measures import (highest_percentile, log_digests, log_rows_after, percentile,
                      strip_wall_ms, tail_percentile)
from spans import Span, layer_totals, self_times


def test_highest_percentile_leaves_ten_samples_beyond_it():
    assert highest_percentile(200) == 95
    assert highest_percentile(199) == 94   # 5% of 199 is 9.95 samples
    assert highest_percentile(100) == 90
    assert highest_percentile(1000) == 99
    assert highest_percentile(11) == 9
    assert highest_percentile(10) is None
    for n in range(11, 500):
        q = highest_percentile(n)
        assert n * (100 - q) / 100 >= 10 - 1e-9
        assert n * (100 - (q + 1)) / 100 < 10


def test_tail_percentile_refuses_thin_tails():
    values = [float(v) for v in range(1, 201)]
    assert tail_percentile(values, 95) == pytest.approx(percentile(values, 95))
    with pytest.raises(ValueError):
        tail_percentile(values[:199], 95)


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 95) == pytest.approx(3.85)


METRICS = ("epoch,lr,train_loss,train_error,test_error,wsq_total,wsq_l2_only,gw_total,wall_ms\n"
           "1,0.8,1.2,0.5,0.4,10.0,10.0,,{a}\n"
           "2,0.8,1.1,0.4,0.3,9.5,9.5,,{b}\n")


def _write_run(path: Path, a: int, b: int, lr2: str = "0.8") -> Path:
    path.mkdir()
    (path / "metrics.csv").write_text(METRICS.format(a=a, b=b).replace("2,0.8", f"2,{lr2}"))
    (path / "layers.csv").write_text("epoch,layer,wsq\n1,fc1.w,10.0\n2,fc1.w,9.5\n")
    (path / "events.csv").write_text("epoch,old_lr,new_lr,trigger\n2,0.8,0.16,bounce\n")
    return path


def test_strip_wall_ms_drops_only_the_wall_clock_column():
    text = METRICS.format(a=7, b=12)
    stripped = strip_wall_ms(text)
    assert stripped.splitlines()[0].endswith(",gw_total")
    assert stripped.splitlines()[1] == "1,0.8,1.2,0.5,0.4,10.0,10.0,"
    layers = "epoch,layer,wsq\n1,fc1.w,10.0\n"
    assert strip_wall_ms(layers) == layers


def test_digests_ignore_wall_ms_and_see_every_other_byte(tmp_path):
    a = log_digests(_write_run(tmp_path / "a", 7, 12))
    b = log_digests(_write_run(tmp_path / "b", 9, 3))
    c = log_digests(_write_run(tmp_path / "c", 7, 12, lr2="0.81"))
    assert a == b
    assert a["metrics.csv"] != c["metrics.csv"]
    assert a["layers.csv"] == c["layers.csv"]
    assert a["layers.csv"] == hashlib.sha256(
        (tmp_path / "a" / "layers.csv").read_bytes()).hexdigest()


def test_log_rows_after_keeps_the_tail(tmp_path):
    rows = log_rows_after(_write_run(tmp_path / "a", 7, 12), 1)
    assert rows["metrics.csv"] == ["2,0.8,1.1,0.4,0.3,9.5,9.5,"]
    assert rows["layers.csv"] == ["2,fc1.w,9.5"]
    assert rows["events.csv"] == ["2,0.8,0.16,bounce"]


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "runner.run", 0.0, 10.0, -1, 0),
        Span(1, "models.train_step", 1.0, 4.0, 0, 0),
        Span(2, "optim.step", 4.0, 5.0, 0, 0),
        Span(3, "checkpoint.save", 6.0, 9.0, 0, 0),
        Span(4, "state_io.serialize", 7.0, 8.0, 3, 0),
        Span(5, "checkpoint.load", 11.0, 12.0, -1, 0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.0}
    totals = layer_totals(spans)
    assert totals["checkpoint.save"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}
    # Self times partition each root span.
    assert sum(own[s.id] for s in spans if s.id != 5) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "parent", 0.0, 10.0, -1, 0),
        Span(1, "a", 1.0, 5.0, 0, 0),
        Span(2, "b", 3.0, 7.0, 0, 0),
        Span(3, "c", 9.0, 12.0, 0, 0),   # runs past its parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_epoch_slowdowns_use_the_passes_near_each_epoch():
    # Passes follow epochs 1, 3 and 5 (counted from 0) when REF_EVERY is 2.
    assert (REF_EVERY, LOCAL_EPOCHS) == (2, 2)
    slow = epoch_slowdowns(7, [1.0 * REF_MS, 2.0 * REF_MS, 4.0 * REF_MS])
    assert slow == pytest.approx([1.0, 1.5, 1.5, 7 / 3, 3.0, 3.0, 4.0])
    assert slowdown([0.5 * REF_MS, 1.5 * REF_MS]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        slowdown([])
