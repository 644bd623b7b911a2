"""The comparison of tools/log_identity.py, which checks two revisions' logs."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "log_identity.py"
_spec = importlib.util.spec_from_file_location("log_identity", _PATH)
log_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(log_identity)

METRICS = "epoch,lr,train_loss,wall_ms\n1,0.5,1.25,{}\n2,0.5,1.125,{}\n"
META = {"config_hash": "ab12", "version": "0.1.0", "status": "completed", "start_epoch": 0,
        "epochs": 2, "epochs_run": 2, "best_test_error": 0.25, "best_epoch": 2,
        "final_test_error": 0.25, "decay_events": []}


def _run_dir(path: Path, wall=(3, 4), layers="epoch,layer,wsq\n1,fc1.w,2.0\n",
             ckpts: dict[str, bytes] | None = None, meta: dict | None = None) -> Path:
    path.mkdir()
    (path / "metrics.csv").write_text(METRICS.format(*wall))
    (path / "layers.csv").write_text(layers)
    (path / "events.csv").write_text("epoch,old_lr,new_lr,trigger\n")
    (path / "config.txt").write_text("epochs = 2\n")
    (path / "meta.json").write_text(json.dumps({**META, **(meta or {})}, indent=2))
    for name, data in (ckpts or {}).items():
        (path / name).write_bytes(data)
    return path


def test_runs_that_differ_only_in_wall_ms_match(tmp_path):
    ckpts = {"epoch_0001.ckpt": b"\x01\x02"}
    parent = _run_dir(tmp_path / "parent", ckpts=ckpts)
    change = _run_dir(tmp_path / "change", wall=(7, 1), ckpts=ckpts)
    assert log_identity.compare_runs(parent, change) == []


def test_every_log_and_checkpoint_is_compared(tmp_path):
    parent = _run_dir(tmp_path / "parent", ckpts={"epoch_0001.ckpt": b"\x01",
                                                   "epoch_0002.ckpt": b"\x02"})
    change = _run_dir(tmp_path / "change", layers="epoch,layer,wsq\n1,fc1.w,2.5\n",
                      ckpts={"epoch_0001.ckpt": b"\x09"})
    (change / "metrics.csv").write_text(METRICS.format(3, 4).replace("1.125", "1.0"))
    (change / "events.csv").unlink()
    assert log_identity.compare_runs(parent, change) == [
        "metrics.csv: differs from line 3 (wall_ms left out)",
        "layers.csv: bytes differ",
        "events.csv: only in parent",
        "epoch_0001.ckpt: bytes differ",
        "epoch_0002.ckpt: only in parent",
    ]


def test_meta_is_compared_but_for_its_version_and_config_by_its_bytes(tmp_path):
    """A follower that resumes from another fork logs the same rows; its
    ``start_epoch`` tells it apart."""
    parent = _run_dir(tmp_path / "parent")
    same = _run_dir(tmp_path / "same", meta={"version": "0.2.0"})
    assert log_identity.compare_runs(parent, same) == []
    change = _run_dir(tmp_path / "change", meta={"start_epoch": 1, "best_epoch": 1})
    (change / "config.txt").write_text("epochs = 3\n")
    assert log_identity.compare_runs(parent, change) == [
        "config.txt: bytes differ",
        "meta.json: differs in best_epoch, start_epoch (version left out)",
    ]
    (change / "meta.json").unlink()
    assert log_identity.compare_runs(parent, change)[1] == "meta.json: only in parent"


def test_a_metrics_file_cut_short_differs_after_its_last_row(tmp_path):
    parent = _run_dir(tmp_path / "parent")
    change = _run_dir(tmp_path / "change")
    (change / "metrics.csv").write_text(METRICS.format(3, 4).rsplit("2,", 1)[0])
    assert log_identity.compare_runs(parent, change) == [
        "metrics.csv: differs from line 3 (wall_ms left out)"]


def test_overrides_replace_keys_and_add_new_ones():
    text = "# comment\nepochs = 200\nbase_lr = 4.0\n"
    assert log_identity.with_overrides(text, {"epochs": "10", "log_gw": "true"}) == (
        "# comment\nbase_lr = 4.0\nepochs = 10\nlog_gw = true\n")


def test_differing_metrics_are_described_per_column(tmp_path):
    parent = _run_dir(tmp_path / "parent", layers="epoch,layer,wsq\n1,fc1.w,2.0\n1,out.w,4.0\n")
    change = _run_dir(tmp_path / "change", wall=(9, 9),
                      layers="epoch,layer,wsq\n1,fc1.w,2.0\n1,out.w,4.000000000000001\n")
    (change / "metrics.csv").write_text(METRICS.format(3, 4).replace("1.125", "1.0"))
    assert log_identity.compare_runs(parent, change) == [
        "metrics.csv: differs from line 3 (wall_ms left out)", "layers.csv: bytes differ"]
    assert log_identity.describe_differences(parent, change) == [
        "metrics.csv: train_loss differs in 1 of 2 rows, largest relative difference 1.1e-01, "
        "largest difference 1.2e-01 (1.0e-01 of the column's largest magnitude 1.2e+00)",
        "layers.csv: wsq differs in 1 of 2 rows, largest relative difference 2.2e-16, "
        "largest difference 8.9e-16 (2.2e-16 of the column's largest magnitude 4.0e+00)",
        "events.csv: matches",
    ]
    (change / "events.csv").write_text("epoch,old_lr,new_lr,trigger\n2,0.5,0.1,bounce\n")
    assert log_identity.describe_differences(parent, change)[-1] == "events.csv: differs"


def test_a_non_numeric_difference_has_no_finite_relative_difference():
    lines = log_identity.column_differences(
        "layers.csv", ["epoch,layer,wsq", "1,fc1.w,2.0", "2,fc1.w,2.0"],
        ["epoch,layer,wsq", "1,fc2.w,2.0", "2,fc1.w,nan"])
    assert lines == [
        "layers.csv: layer differs in 1 of 2 rows, largest relative difference inf, "
        "largest difference inf (inf of the column's largest magnitude 0.0e+00)",
        "layers.csv: wsq differs in 1 of 2 rows, largest relative difference inf, "
        "largest difference inf (inf of the column's largest magnitude 2.0e+00)",
    ]


def test_a_column_whose_exact_value_is_0_is_bounded_by_its_largest_magnitude():
    """Rounding noise around 0 differs by order 1 relative, which bounds
    nothing; its largest difference is an absolute bound, also given against
    the column's largest magnitude."""
    lines = log_identity.column_differences(
        "metrics.csv", ["epoch,gw_total", "1,3e-17", "2,-5e-17", "3,0.0"],
        ["epoch,gw_total", "1,-1e-17", "2,-5e-17", "3,-0.0"])
    assert lines == [
        "metrics.csv: gw_total differs in 2 of 3 rows, largest relative difference 1.3e+00, "
        "largest difference 4.0e-17 (8.0e-01 of the column's largest magnitude 5.0e-17)"]


def _sweep_dir(path: Path, points: dict[str, dict], summary: str = "point,status\n0,ok\n") -> Path:
    path.mkdir()
    (path / "summary.csv").write_text(summary)
    (path / "template.txt").write_text("epochs = 60\n")
    for name, kwargs in points.items():
        _run_dir(path / name, **kwargs)
    return path


def test_sweeps_are_compared_point_by_point_and_by_summary(tmp_path):
    parent = _sweep_dir(tmp_path / "parent", {"point_000__a": {}, "point_001__b": {}})
    same = _sweep_dir(tmp_path / "same", {"point_000__a": {"wall": (9, 9)}, "point_001__b": {}})
    assert log_identity.compare_sweeps(parent, same) == []
    change = _sweep_dir(tmp_path / "change",
                        {"point_000__a": {"layers": "epoch,layer,wsq\n1,fc1.w,3.0\n"},
                         "point_002__c": {}}, summary="point,status\n0,diverged\n")
    assert log_identity.compare_sweeps(parent, change) == [
        "summary.csv: bytes differ",
        "point_000__a: layers.csv: bytes differ",
        "point_001__b: only in parent",
        "point_002__c: only in change",
    ]
    (change / "summary.csv").unlink()
    assert log_identity.compare_sweeps(parent, change)[0] == "summary.csv: only in parent"


def test_the_resume_job_reads_each_sides_own_checkpoint_after_its_run(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for stem in ("blobs_abel", "blobs_abel_adam"):
        (configs / f"{stem}.txt").write_text("epochs = 10\n")
    shared, logs = tmp_path / "run", tmp_path / "logs"
    jobs = log_identity.jobs(configs, tmp_path / "sweep.txt", shared, logs)
    names = [name for _, name, _, _ in jobs]
    assert names == ["blobs_abel", "blobs_abel_adam", "blobs_abel_adam_resumed", "sweep",
                     "sweep_jobs1"]
    _, _, args, compare = jobs[2]
    assert compare is log_identity.compare_runs
    for side in ("parent", "change"):
        assert args[side] == ["resume", str(logs / side / "blobs_abel_adam" / "epoch_0005.ckpt"),
                              "--epochs", "12", "--log-dir", str(shared)]
    assert all(job_args["parent"] == job_args["change"]
               for _, name, job_args, _ in jobs if name != "blobs_abel_adam_resumed")
