"""The statistics of tools/bench_record.py, which writes BENCH_<pr>.json."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


@pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0],
                                    [0.5, 7.25, 1.0, 9.0, 3.5, 2.0, 8.0]])
def test_quartiles_interpolate_like_numpy(values):
    q = bench_record.quartiles(values)
    assert [q["q1"], q["median"], q["q3"]] == pytest.approx(
        list(np.percentile(values, [25, 50, 75])), rel=1e-12)
    assert q["n"] == len(values)


def _pair(parent: float, change: float) -> tuple[dict, dict]:
    return {"metrics": {"m": parent}}, {"metrics": {"m": change}}


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    pairs = [_pair(10.0, 8.0), _pair(10.0, 12.0), _pair(10.0, 10.0), _pair(9.0, 7.0)]
    lower = bench_record.compare(pairs, "m", "lower")
    assert (lower["wins"], lower["losses"]) == ("2/4", "1/4")
    higher = bench_record.compare(pairs, "m", "higher")
    assert (higher["wins"], higher["losses"]) == ("1/4", "2/4")
    assert bench_record.compare(pairs, "absent", "lower") is None


def test_the_gap_is_weighed_against_the_parents_spread():
    tight = [_pair(10.0 + d, 8.0) for d in (-0.1, 0.0, 0.1, 0.0)]
    assert bench_record.compare(tight, "m", "lower")["gap_exceeds_parent_iqr"]
    wide = [_pair(p, 9.0) for p in (6.0, 9.0, 11.0, 14.0)]
    assert not bench_record.compare(wide, "m", "lower")["gap_exceeds_parent_iqr"]


def test_per_layer_times_are_divided_by_the_host_slowdown():
    run = {"slowdown": 2.0, "metrics": {"a_ms": 4.0, "b_us": 6.0, "calls": 16.0},
           "units": {"a_ms": "ms", "b_us": "us", "calls": "1/epoch"}}
    assert bench_record.per_host_speed(run) == {"a_ms": 2.0, "b_us": 3.0}


def test_the_environment_records_whether_bytecode_is_written(monkeypatch):
    reported = {"numpy": "2.4.6"}
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_record.environment(reported) == {"numpy": "2.4.6",
                                                  "PYTHONDONTWRITEBYTECODE": "1"}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_record.environment(None) == {"PYTHONDONTWRITEBYTECODE": None}
    assert reported == {"numpy": "2.4.6"}
