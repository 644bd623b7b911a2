from pathlib import Path

import pytest

from abel_sched import ConfigError, apply_point, parse_grid, run_sweep

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
        return RunResult(records=[record], events=[], meta={"status": "completed"},
                         log_dir=Path(config.log_dir))

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
