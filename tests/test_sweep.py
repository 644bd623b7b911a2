import csv
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from abel_sched import (ConfigError, DivergenceError, OptimizerSpec, ScheduleSpec, apply_point,
                        format_config, parse_grid, run_experiment, run_sweep)
from abel_sched.cli import main as cli_main
from abel_sched.config import _FLOAT, _INT, _SCHEMA, _WRITTEN_WHEN_SET, _fmt_value, config_hash

from helpers import run_logs, standard_config
from test_runner import tiny_config


def test_parse_grid():
    grid = parse_grid("base_lr=0.5,1,2;decay_factor=0.5,0.2")
    assert grid == {"base_lr": [0.5, 1.0, 2.0], "decay_factor": [0.5, 0.2]}
    with pytest.raises(ConfigError):
        parse_grid("learning_rate=1")
    with pytest.raises(ConfigError):
        parse_grid("base_lr=one,two")
    with pytest.raises(ConfigError):
        parse_grid("")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_parse_grid_refuses_non_finite_values(value):
    """A weight_decay = inf point used to train and write checkpoints whose
    config text parse_config refuses, so they could never be resumed."""
    with pytest.raises(ConfigError, match="weight_decay"):
        parse_grid(f"weight_decay=0.1,{value}")


def test_parse_grid_refuses_a_repeated_axis():
    """The second group used to replace the first without a word."""
    with pytest.raises(ConfigError, match="'base_lr' is given twice"):
        parse_grid("base_lr=0.5;base_lr=1")


@pytest.mark.parametrize("jobs", [0, -3])
def test_a_sweep_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    """Both used to run the sweep serially without a word."""
    template = tiny_config(tmp_path / "unused")
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_sweep(template, {"base_lr": [0.5]}, tmp_path / "sweep", jobs=jobs)
    path = tmp_path / "template.txt"
    path.write_text(format_config(template))
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", str(path), "--grid", "base_lr=0.5", "--jobs", str(jobs),
                  "--sweep-dir", str(tmp_path / "sweep")])
    assert exc.value.code == 2
    assert "argument --jobs: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_apply_point_touches_the_right_knobs(tmp_path):
    cfg = tiny_config(tmp_path, schedule_kind="abel")
    out = apply_point(cfg, {"base_lr": 2.0, "decay_factor": 0.1,
                            "init_scale": 0.5, "weight_decay": 1e-3})
    assert out.base_lr == 2.0 and out.schedule.base_lr == 2.0
    assert out.schedule.decay_factor == 0.1
    assert out.model.init_scale == 0.5
    assert out.weight_decay == 1e-3

    step = tiny_config(tmp_path, schedule_kind="stepwise")
    out = apply_point(step, {"decay_factor": 0.25})
    assert all(f == 0.25 for _, f in out.schedule.milestones)

    cosine = tiny_config(tmp_path, schedule_kind="cosine")
    with pytest.raises(ConfigError):
        apply_point(cosine, {"decay_factor": 0.5})


def test_parse_grid_takes_any_numeric_config_key_typed_by_its_parser():
    grid = parse_grid("seed=3,4;schedule.smoothing_window=1,9;base_lr=4;init_scale=2")
    assert grid == {"seed": [3, 4], "schedule.smoothing_window": [1, 9], "base_lr": [4.0],
                    "init_scale": [2.0]}
    assert [type(v) for values in grid.values() for v in values] == [int] * 4 + [float] * 2


def test_a_point_dir_names_an_int_value_in_full():
    """:g would name seed 1234567 "1.23457e+06", as it names base_lr 4.0 "4"."""
    from abel_sched.sweep import _point_dir_name

    assert _point_dir_name(3, {"seed": 1234567, "base_lr": 4.0, "weight_decay": 1e-3}) == (
        "point_003__seed=1234567__base_lr=4__weight_decay=0.001")


@pytest.mark.parametrize("spec, message", [
    ("log_dir=a", "int or float config key, got 'log_dir'"),
    ("model.normalize=1", "int or float config key, got 'model.normalize'"),
    ("schedule.kind=1", "int or float config key, got 'schedule.kind'"),
    ("schedule.milestones=1", "int or float config key, got 'schedule.milestones'"),
    ("learning_rate=1", "int or float config key, got 'learning_rate'"),
    ("seed=1,2.5", "bad grid values for 'seed'"),
    ("schedule.smoothing_window=3.0", "bad grid values for 'schedule.smoothing_window'"),
    ("schedule.last_decay_fraction=0.8,inf", "bad grid values"),
])
def test_parse_grid_refuses_what_no_numeric_key_takes(spec, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_grid(spec)


@pytest.mark.parametrize("kind, values, message", [
    # without the check parse_config would drop a key of another kind, and
    # every point would train the template
    ("abel", {"schedule.factor": 0.5}, "does not carry 'schedule.factor'"),
    ("simple", {"optimizer.beta1": 0.5}, "does not carry 'optimizer.beta1'"),
    ("cosine", {"decay_factor": 0.5}, "does not carry 'schedule.decay_factor'"),
    ("abel", {"init_scale": 0.5, "model.init_scale": 2.0}, "two grid axes set 'model.init_scale'"),
    ("simple", {"decay_factor": 0.5, "schedule.factor": 0.1},
     "two grid axes set 'schedule.factor'"),
    ("abel", {"base_lr": -1.0}, "base_lr"),
    ("abel", {"schedule.smoothing_window": 0}, "smoothing_window"),
])
def test_apply_point_refuses_a_key_the_template_lacks_or_a_bad_value(tmp_path, kind, values,
                                                                      message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        apply_point(tiny_config(tmp_path, schedule_kind=kind), values)


def test_a_warmup_axis_applies_to_a_template_without_warmup(tmp_path):
    """format_config leaves out a zero warmup_epochs, yet every schedule kind takes it."""
    template = tiny_config(tmp_path, schedule_kind="abel")
    assert "schedule.warmup_epochs" not in format_config(template)
    points = [apply_point(template, {"schedule.warmup_epochs": w}) for w in (0, 3)]
    assert points[0] == template
    assert points[1] == replace(template, schedule=replace(template.schedule, warmup_epochs=3))


@pytest.mark.parametrize("config, grid", [
    ("blobs_abel.txt", "base_lr=-1"),
    ("blobs_abel.txt", "base_lr=1;schedule.min_history=0"),
    ("blobs_abel.txt", "init_scale=1;model.init_scale=2"),
    ("blobs_cosine.txt", "decay_factor=0.5"),
])
def test_a_refused_grid_point_exits_2_and_leaves_no_sweep_dir(tmp_path, capsys, config, grid):
    """base_lr=-1 used to die with a ValueError traceback and exit 1, and the
    sweep directory was made, holding template.txt, before any point was built."""
    path = Path(__file__).resolve().parents[1] / "configs" / config
    sweep_dir = tmp_path / "sweep"
    assert cli_main(["sweep", str(path), "--grid", grid, "--sweep-dir", str(sweep_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not sweep_dir.exists()


def test_a_decay_factor_axis_on_a_template_without_milestones_is_refused(tmp_path, capsys):
    """Every point used to equal the template: the axis set no milestone's factor."""
    template = tiny_config(tmp_path / "unused", schedule=ScheduleSpec(
        kind="stepwise", base_lr=0.5, total_epochs=12))
    with pytest.raises(ConfigError, match="does not carry 'schedule.milestones'"):
        apply_point(template, {"decay_factor": 0.1})
    path = tmp_path / "template.txt"
    path.write_text(format_config(template))
    sweep_dir = tmp_path / "sweep"
    assert cli_main(["sweep", str(path), "--grid", "decay_factor=0.1,0.5",
                     "--sweep-dir", str(sweep_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not sweep_dir.exists()


def _carried_key_and_value():
    """A template, a numeric key its text carries, and a value of that key's type."""
    templates = [tiny_config("unused", schedule_kind=kind) for kind in
                 ("abel", "simple", "plateau", "stepwise", "cosine", "linear")]
    templates.append(tiny_config("unused", schedule_kind="abel", optimizer=OptimizerSpec(
        kind="adam"), schedule=ScheduleSpec(kind="abel", base_lr=0.5, total_epochs=12,
                                            warmup_epochs=2)))

    def keys(template):
        lines = format_config(template).splitlines()
        return [line.split(" = ")[0] for line in lines
                if _SCHEMA[line.split(" = ")[0]][0] in (_INT, _FLOAT)]

    def value(key):
        if _SCHEMA[key][0] is _INT:
            return st.integers(0, 40)
        return st.floats(0.0, 1.0, exclude_max=True) | st.floats(0.0, 1e6)

    return st.sampled_from(templates).flatmap(
        lambda t: st.sampled_from(keys(t)).flatmap(
            lambda key: value(key).map(lambda v: (t, key, v))))


@settings(max_examples=150, deadline=None)
@given(_carried_key_and_value())
def test_a_point_changes_only_its_own_line_of_the_text(case):
    template, key, value = case
    try:
        point = apply_point(template, {key: value})
    except ConfigError:
        reject()  # a value out of the key's range
    lines = dict(line.split(" = ", 1) for line in format_config(template).splitlines())
    lines[key] = _fmt_value(value)
    if key in _WRITTEN_WHEN_SET and not value:
        del lines[key]
    assert format_config(point) == "".join(f"{k} = {v}\n" for k, v in lines.items())


def test_sweep_runs_grid_and_records_failures(tmp_path):
    template = tiny_config(tmp_path / "unused", epochs=4)
    grid = {"base_lr": [0.5, 1e160]}  # the second point diverges
    points = run_sweep(template, grid, tmp_path / "sweep")
    assert [p.status for p in points] == ["ok", "diverged"]
    assert points[0].best_test_error is not None
    assert points[1].best_test_error is None
    summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert summary[0] == ("point,base_lr,status,best_test_error,best_epoch,"
                          "final_test_error,first_decay_epoch,n_decays,decay_epochs")
    assert len(summary) == 3
    assert "diverged" in summary[2]
    assert (tmp_path / "sweep" / "template.txt").exists()
    # each point trained in its own directory
    assert (tmp_path / "sweep" / "point_000__base_lr=0.5" / "metrics.csv").exists()


def test_a_point_whose_weight_norm_overflows_reads_diverged(tmp_path):
    template = standard_config("abel", epochs=3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        points = run_sweep(template, {"init_scale": [1e160]}, tmp_path / "sweep")
    assert [p.status for p in points] == ["diverged"]


def test_summary_rows_keep_an_error_status_with_a_comma(tmp_path):
    template = tiny_config(tmp_path / "unused", epochs=2)
    template = replace(template, model=replace(template.model, kind="conv", hidden=(2, 2)))
    points = run_sweep(template, {"base_lr": [0.5, 1.0]}, tmp_path / "sweep")
    status = "error: conv models need input_shape=(channels, height, width)"
    assert [p.status for p in points] == [status, status]
    with open(tmp_path / "sweep" / "summary.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert [len(row) for row in rows] == [9, 9, 9]
    assert [row[2] for row in rows[1:]] == [status, status]


def test_a_failed_summary_write_leaves_the_previous_summary(tmp_path, monkeypatch):
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    (sweep_dir / "summary.csv").write_text("previous\n")
    replace_file = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "summary.csv":
            raise OSError("disk full")
        replace_file(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        run_sweep(tiny_config(tmp_path / "unused", epochs=2), {"base_lr": [0.5]}, sweep_dir)
    assert (sweep_dir / "summary.csv").read_text() == "previous\n"
    assert (sweep_dir / "template.txt").exists()
    assert not list(sweep_dir.glob(".*.tmp"))


def test_summary_error_columns_are_plain_numbers(tmp_path):
    template = tiny_config(tmp_path / "unused", epochs=3, schedule_kind="abel")
    points = run_sweep(template, {"decay_factor": [0.5, 0.2]}, tmp_path / "sweep")
    for p in points:
        assert type(p.best_test_error) is float and type(p.final_test_error) is float
    lines = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    columns = [header.index(name) for name in ("best_test_error", "final_test_error")]
    for line in lines[1:]:
        row = line.split(",")
        for column in columns:
            assert type(float(row[column])) is float, row[column]


def test_sweep_parallel_matches_serial(tmp_path):
    template = tiny_config(tmp_path / "unused", epochs=3)
    grid = {"base_lr": [0.25, 0.5]}
    serial = run_sweep(template, grid, tmp_path / "s1", jobs=1)
    parallel = run_sweep(template, grid, tmp_path / "s2", jobs=2)
    assert [p.best_test_error for p in serial] == [p.best_test_error for p in parallel]


def test_sweep_records_decay_epochs(tmp_path):
    template = tiny_config(tmp_path / "unused", epochs=12, schedule_kind="abel")
    points = run_sweep(template, {"decay_factor": [0.5]}, tmp_path / "sweep")
    assert points[0].n_decays >= 1  # at least the final decay at epoch 10
    assert points[0].decay_epochs[-1] >= 10


def test_sweep_workers_run_blas_on_one_thread(tmp_path, monkeypatch):
    """Each of the jobs workers runs its points with one BLAS thread, whatever the parent has."""
    import ctypes

    import abel_sched.sweep as sweep
    from abel_sched import EpochRecord, RunResult

    get, set_ = sweep._openblas("get_num_threads"), sweep._openblas("set_num_threads")
    if get is None or set_ is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread setter")
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None

    def record_threads(config, *args, **kwargs):  # forked workers inherit this stand-in
        (tmp_path / f"{Path(config.log_dir).name}.threads").write_text(str(get()))
        record = EpochRecord(epoch=1, lr=0.1, train_loss=1.0, train_error=0.5,
                             test_error=0.5, wsq_total=1.0, wsq_l2_only=1.0, per_layer_wsq={})
        meta = {"status": "completed", "best_test_error": 0.5, "best_epoch": 1,
                "final_test_error": 0.5, "decay_events": []}
        return RunResult(records=[record], events=[], meta=meta, log_dir=Path(config.log_dir))

    monkeypatch.setattr(sweep, "run_experiment", record_threads)
    before = get()
    set_(2)
    try:
        points = run_sweep(tiny_config(tmp_path / "unused"), {"base_lr": [0.1, 0.2, 0.3]},
                           tmp_path / "sweep", jobs=2)
        assert get() == 2  # the parent keeps its own setting
    finally:
        set_(before)
    assert [p.status for p in points] == ["ok"] * 3
    assert sorted(f.read_text() for f in tmp_path.glob("*.threads")) == ["1"] * 3


def test_importing_the_package_leaves_the_process_pool_unloaded():
    """The pool's modules load only when a sweep runs with jobs > 1."""
    import subprocess
    import sys

    import abel_sched

    src = str(Path(abel_sched.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import abel_sched; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_a_sweep_at_one_job_trains_in_this_process_without_the_pool(tmp_path):
    """With jobs = 1 the one scheduling loop trains each point in the calling
    process, follower forks included, and loads no process pool."""
    import subprocess
    import sys

    import abel_sched

    path = tmp_path / "template.txt"
    path.write_text(format_config(tiny_config(tmp_path / "unused", schedule_kind="abel")))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from abel_sched.cli import main; "
            "code = main(['sweep', sys.argv[2], '--grid', 'decay_factor=0.5,0.2', "
            "'--sweep-dir', sys.argv[3]]); "
            "print(code, sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code, str(Path(abel_sched.__file__).parents[1]),
                          str(path), str(tmp_path / "sweep")],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "0 []"
    starts = [json.loads(meta.read_text())["start_epoch"]
              for meta in sorted((tmp_path / "sweep").glob("point_*/meta.json"))]
    assert starts[0] == 0 and starts[1] > 0


# -- decay-factor families ----------------------------------------------------------


def _family_template(tmp_path, kind, optimizer):
    template = tiny_config(tmp_path / "unused", schedule_kind=kind)
    if kind == "plateau":  # a relative threshold of 0.5 makes it decay within 12 epochs
        template = replace(template, schedule=ScheduleSpec(
            kind="plateau", base_lr=0.5, total_epochs=12, patience=1, threshold=0.5))
    if optimizer == "momentum-0":
        template = replace(template, optimizer=OptimizerSpec(kind="momentum", momentum=0.0))
    elif optimizer == "adam":
        template = replace(template, optimizer=OptimizerSpec(kind="adam"))
    return template


def _assert_points_match_independent_runs(tmp_path, template, points) -> list[int]:
    """Each point's logs and summary equal a serial run of that point from scratch;
    returns each point's start_epoch."""
    starts = []
    for p in points:
        config = replace(apply_point(template, p.values), log_dir=p.log_dir)
        alone = tmp_path / "alone" / Path(p.log_dir).name
        if not alone.exists():  # one independent run per point, for every sweep
            try:
                run_experiment(replace(config, log_dir=str(alone)))
            except DivergenceError:
                pass
        expected = run_logs(alone)
        meta = expected["meta.json"]
        meta["config_hash"] = config_hash(config)
        assert run_logs(Path(p.log_dir)) == expected, p
        decays = tuple(ev["epoch"] for ev in meta.get("decay_events", ()))
        assert (p.best_test_error, p.best_epoch, p.final_test_error, p.decay_epochs) == (
            meta.get("best_test_error"), meta.get("best_epoch"),
            meta.get("final_test_error"), decays)
        assert p.status == {"completed": "ok"}.get(meta["status"], meta["status"])
        starts.append(json.loads((Path(p.log_dir) / "meta.json").read_text())["start_epoch"])
    return starts


@pytest.mark.parametrize("optimizer", ["momentum-0", "momentum-0.9", "adam"])
@pytest.mark.parametrize("kind", ["abel", "stepwise", "simple", "plateau"])
def test_every_family_point_equals_an_independent_run(tmp_path, kind, optimizer):
    template = _family_template(tmp_path, kind, optimizer)
    lrs = [0.01, 0.02] if optimizer == "adam" else [0.5, 1.0]
    grid = {"base_lr": lrs, "decay_factor": [0.5, 0.2]}
    for jobs in (1, 2):
        points = run_sweep(template, grid, tmp_path / f"jobs-{jobs}", jobs=jobs)
        starts = _assert_points_match_independent_runs(tmp_path, template, points)
        # the leaders (decay_factor 0.5) start at 0; each follower forked at
        # the end of its leader's first lr change epoch, the last epoch both
        # trained alike
        leaders = [p for p in points if p.values["decay_factor"] == 0.5]
        assert starts[::2] == [0, 0]
        assert starts[1::2] == [p.decay_epochs[0] for p in leaders]
        assert all(start > 0 for start in starts[1::2])


@pytest.mark.parametrize("kind, grid", [
    ("abel", {"schedule.smoothing_window": [1, 2, 3]}),
    ("simple", {"schedule.decay_fraction": [0.5, 0.75, 0.25]}),
    ("abel", {"seed": [0, 1, 2]}),
])
def test_config_key_axes_equal_independent_runs(tmp_path, kind, grid):
    """A schedule key's points form one family whose followers fork after epoch 0;
    each seed trains its own family from scratch."""
    # at weight decay 5e-3 the 20-epoch abel run bounces at epoch 7 with
    # window 1, and later with window 2 or 3
    template = tiny_config(tmp_path / "unused", epochs=20, schedule_kind=kind,
                           weight_decay=5e-3)
    for jobs in (1, 2):
        points = run_sweep(template, grid, tmp_path / f"jobs-{jobs}", jobs=jobs)
        assert [p.status for p in points] == ["ok"] * 3
        [(key, values)] = grid.items()
        for p, value in zip(points, values):
            assert f"{key} = {value}" in (Path(p.log_dir) / "config.txt").read_text().splitlines()
        starts = _assert_points_match_independent_runs(tmp_path, template, points)
        if key == "seed":
            assert starts == [0, 0, 0]
        else:
            assert starts[0] == 0 and all(start > 0 for start in starts[1:])


def _recording(monkeypatch, tamper=None):
    """Replace sweep.run_experiment with a wrapper that records each call's
    resume_state and passes each result through ``tamper``."""
    import abel_sched.sweep as sweep

    inner = sweep.run_experiment
    calls = {}

    def run(config, *args, **kwargs):
        leader = not calls  # a one-family grid run with jobs = 1 starts with its leader
        calls[Path(config.log_dir).name] = kwargs.get("resume_state")
        result = inner(config, *args, **kwargs)
        return tamper(result) if tamper and leader else result

    monkeypatch.setattr(sweep, "run_experiment", run)
    return calls


def _tamper_logged_lr(result):
    path = result.log_dir / "metrics.csv"
    lines = path.read_text().splitlines(keepends=True)
    parts = lines[1].split(",")
    lines[1] = ",".join([parts[0], repr(float(parts[1]) * 2), *parts[2:]])
    path.write_text("".join(lines))
    return result


@pytest.mark.parametrize("case", ["leader-diverges", "lr-never-changes"])
def test_followers_train_from_scratch_when_the_fork_fails(tmp_path, monkeypatch, case):
    template = tiny_config(tmp_path / "unused", schedule_kind="abel")
    lrs = [0.5]
    if case == "leader-diverges":
        lrs = [1e160]
    else:
        template = replace(template, schedule=ScheduleSpec(
            kind="plateau", base_lr=0.5, total_epochs=12, patience=100))
    calls = _recording(monkeypatch)
    points = run_sweep(template, {"base_lr": lrs, "decay_factor": [0.5, 0.2, 0.1]},
                       tmp_path / "sweep")
    assert len(calls) == 3 and all(state is None for state in calls.values())
    expected = ["diverged"] * 3 if case == "leader-diverges" else ["ok"] * 3
    assert [p.status for p in points] == expected
    _assert_points_match_independent_runs(tmp_path, template, points)


def test_a_tampered_leader_log_does_not_reach_its_followers(tmp_path, monkeypatch):
    """The leader writes its followers' shared rows from memory while it trains,
    so a leader metrics.csv edited after it returns changes no follower."""
    template = tiny_config(tmp_path / "unused", schedule_kind="abel")
    calls = _recording(monkeypatch, _tamper_logged_lr)
    points = run_sweep(template, {"base_lr": [0.5], "decay_factor": [0.5, 0.2, 0.1]},
                       tmp_path / "sweep")
    states = list(calls.values())
    assert states[0] is None and all(state is not None for state in states[1:])
    assert [p.status for p in points] == ["ok"] * 3
    # the followers' logs equal independent runs; the leader's was tampered with
    _assert_points_match_independent_runs(tmp_path, template, points[1:])


def test_a_grid_without_a_decay_factor_axis_resumes_nothing(tmp_path, monkeypatch):
    calls = _recording(monkeypatch)
    template = tiny_config(tmp_path / "unused", schedule_kind="abel")
    points = run_sweep(template, {"base_lr": [0.5, 1.0], "init_scale": [0.5, 1.0]},
                       tmp_path / "sweep")
    assert len(calls) == 4 and all(state is None for state in calls.values())
    assert all(p.decay_epochs for p in points)


def test_a_follower_starts_at_its_fork_while_its_leader_trains(tmp_path, monkeypatch):
    """With jobs = 2 the leader streams its fork to the parent, which starts the
    follower at once: after its real run the leader waits for the follower's
    start marker, which appears only if the follower did not wait for it."""
    import multiprocessing
    import time

    import abel_sched.sweep as sweep

    inner = sweep.run_experiment
    started = tmp_path / "follower-started"

    def run(config, *args, **kwargs):  # forked workers inherit this wrapper
        if kwargs.get("resume_state") is not None:
            started.touch()
            return inner(config, *args, **kwargs)
        result = inner(config, *args, **kwargs)
        deadline = time.monotonic() + 60
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        (tmp_path / "leader-saw-follower").write_text(str(started.exists()))
        return result

    monkeypatch.setattr(sweep, "run_experiment", run)
    template = tiny_config(tmp_path / "unused", schedule_kind="abel")
    points = run_sweep(template, {"base_lr": [0.5], "decay_factor": [0.5, 0.2]},
                       tmp_path / "sweep", jobs=2)
    assert (tmp_path / "leader-saw-follower").read_text() == "True"
    assert not multiprocessing.active_children()  # the pool's workers are gone
    assert [p.status for p in points] == ["ok", "ok"]
    starts = _assert_points_match_independent_runs(tmp_path, template, points)
    assert starts[0] == 0 and starts[1] > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_follower_forked_before_its_leader_failed_resumes_once(tmp_path, monkeypatch, jobs):
    """A leader that fails after its followers forked leaves them their forks:
    each runs once, from its fork, and logs what an independent run does."""
    import abel_sched.sweep as sweep

    inner = sweep.run_experiment
    calls = tmp_path / "calls"
    calls.mkdir()

    def run(config, *args, **kwargs):  # forked workers inherit this wrapper
        state = kwargs.get("resume_state")
        with open(calls / Path(config.log_dir).name, "a") as f:  # one line per call
            f.write(f"{0 if state is None else state.epoch}\n")
        result = inner(config, *args, **kwargs)
        if kwargs.get("on_epoch"):
            raise DivergenceError("the leader fails after its run")
        return result

    monkeypatch.setattr(sweep, "run_experiment", run)
    template = tiny_config(tmp_path / "unused", schedule_kind="abel")
    points = run_sweep(template, {"base_lr": [0.5], "decay_factor": [0.5, 0.2, 0.1]},
                       tmp_path / "sweep", jobs=jobs)
    assert [p.status for p in points] == ["diverged", "ok", "ok"]
    runs = {p.name: p.read_text().splitlines() for p in calls.iterdir()}
    assert [runs[Path(p.log_dir).name] for p in points[:1]] == [["0"]]
    starts = _assert_points_match_independent_runs(tmp_path, template, points[1:])
    assert all(start > 0 for start in starts)
    assert [runs[Path(p.log_dir).name] for p in points[1:]] == [[str(s)] for s in starts]
