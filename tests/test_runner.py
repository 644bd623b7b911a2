import json
import re
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abel_sched import (
    AbelScheduler,
    BlobsSpec,
    ConfigError,
    DivergenceError,
    ExperimentConfig,
    ModelSpec,
    MomentumState,
    NumericError,
    OptimizerSpec,
    ParamSet,
    ScheduleSpec,
    format_config,
    load_checkpoint,
    lr_at,
    parse_config,
    prepare_resume,
    read_events,
    read_metrics,
    restore_scheduler,
    run_experiment,
    save_checkpoint,
    serialize_scheduler,
)
from abel_sched import checkpoint, runner, sweep
from abel_sched.checkpoint import CheckpointError, ResumeRefusedError
from abel_sched.config import config_hash
from abel_sched.cli import main as cli_main
from abel_sched.runner import RunState, _should_auto_stop, build_model
from abel_sched.schedules import STATELESS_KINDS, LrEvent

from helpers import (STANDARD_LR, reference_epochs, reference_log_rows, run_cached, run_logs,
                     standard_config, strip_wall_ms)


def tiny_config(log_dir, *, epochs=12, schedule_kind="constant", base_lr=0.5,
                seed=0, **kwargs) -> ExperimentConfig:
    schedule_kwargs = {}
    if schedule_kind == "stepwise":
        schedule_kwargs["milestones"] = ((4, 0.5), (8, 0.5))
    if schedule_kind == "abel":
        schedule_kwargs.update(decay_factor=0.5, last_decay_fraction=0.85)
    defaults = dict(
        epochs=epochs,
        base_lr=base_lr,
        log_dir=str(log_dir),
        dataset=BlobsSpec(classes=3, dim=8, samples=256, test_samples=256,
                          label_noise=0.1, separation=3.0, seed=1),
        model=ModelSpec(kind="mlp", hidden=(8,), activation="relu"),
        optimizer=OptimizerSpec(kind="momentum", momentum=0.9),
        schedule=ScheduleSpec(kind=schedule_kind, base_lr=base_lr,
                              total_epochs=epochs, **schedule_kwargs),
        seed=seed,
        batch_size=64,
        weight_decay=5e-4,
        clip_norm=5.0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_identical_configs_give_byte_identical_logs(tmp_path):
    r1 = run_experiment(tiny_config(tmp_path / "a"))
    r2 = run_experiment(tiny_config(tmp_path / "b"))
    a = strip_wall_ms((tmp_path / "a" / "metrics.csv").read_text())
    b = strip_wall_ms((tmp_path / "b" / "metrics.csv").read_text())
    assert a == b
    assert (tmp_path / "a" / "layers.csv").read_text() == \
        (tmp_path / "b" / "layers.csv").read_text()
    assert [r.test_error for r in r1.records] == [r.test_error for r in r2.records]


def test_one_record_per_epoch_strictly_ordered(tmp_path):
    result = run_experiment(tiny_config(tmp_path / "run"))
    assert [r.epoch for r in result.records] == list(range(1, 13))
    read_back = read_metrics(tmp_path / "run")
    assert [r.epoch for r in read_back] == list(range(1, 13))
    for mem, disk in zip(result.records, read_back):
        assert disk.test_error == mem.test_error
        assert disk.wsq_total == mem.wsq_total
        assert disk.per_layer_wsq == mem.per_layer_wsq


def test_per_layer_norms_sum_to_total(tmp_path):
    result = run_experiment(tiny_config(tmp_path / "run"))
    for rec in result.records:
        assert sum(rec.per_layer_wsq.values()) == pytest.approx(rec.wsq_total, rel=1e-12)
        assert rec.wsq_total >= rec.wsq_l2_only >= 0
        assert rec.lr > 0


def test_stepwise_milestone_events_logged(tmp_path):
    run_experiment(tiny_config(tmp_path / "run", schedule_kind="stepwise"))
    events = read_events(tmp_path / "run")
    assert [(e.epoch, e.trigger) for e in events] == [(4, "milestone"), (8, "milestone")]
    records = read_metrics(tmp_path / "run")
    lrs = {r.epoch: r.lr for r in records}
    assert lrs[4] == 0.5 and lrs[5] == 0.25 and lrs[9] == 0.125


def test_warmup_ramps_effective_lr(tmp_path):
    cfg = tiny_config(tmp_path / "run", schedule_kind="constant")
    cfg = replace(cfg, schedule=replace(cfg.schedule, warmup_epochs=4))
    result = run_experiment(cfg)
    lrs = [r.lr for r in result.records]
    # logged lr is the effective lr of the epoch's last step: ramping for the
    # first 4 epochs, saturated afterwards
    assert lrs[0] < lrs[1] < lrs[2] < lrs[3] <= 0.5
    assert all(lr == 0.5 for lr in lrs[4:])


@pytest.fixture(scope="module")
def abel_ramp(tmp_path_factory):
    """ABEL's logged lr over epochs 1-5 of the standard task, as a share of base_lr."""
    cfg = standard_config("abel", epochs=10, log_dir=str(tmp_path_factory.mktemp("abel")))
    return [r.lr / STANDARD_LR for r in run_experiment(cfg).records[:5]]


def test_abel_warmup_ramp_is_linear_per_step(abel_ramp):
    # 16 steps per epoch, 5 warmup epochs: epoch e ends on step 16e - 1 of 80
    assert [STANDARD_LR * s for s in abel_ramp] == pytest.approx([0.75, 1.55, 2.35, 3.15, 3.95])


@pytest.mark.parametrize("kind", STATELESS_KINDS)
def test_every_stateless_kind_shares_the_abel_warmup_ramp(tmp_path, abel_ramp, kind):
    cfg = standard_config(kind, epochs=10, log_dir=str(tmp_path / kind))
    records = run_experiment(cfg).records
    assert records[0].lr > 0
    for epoch, (rec, scale) in enumerate(zip(records, abel_ramp), start=1):
        assert rec.lr == pytest.approx(lr_at(cfg.schedule, epoch - 1) * scale, rel=1e-15)


@pytest.mark.parametrize("kind,epochs", [("stepwise", [60, 120, 160]), ("simple", [170])])
def test_standard_runs_log_only_their_milestones(tmp_path_factory, kind, epochs):
    cfg = standard_config(kind)
    result = run_cached(cfg, tmp_path_factory.mktemp(kind))
    events = read_events(result.log_dir)
    assert events == result.events
    assert [(ev.epoch, ev.trigger) for ev in events] == [(e, "milestone") for e in epochs]
    for ev in events:  # pure schedule values, before and after the milestone
        assert (ev.old_lr, ev.new_lr) == (lr_at(cfg.schedule, ev.epoch - 1),
                                          lr_at(cfg.schedule, ev.epoch))


@pytest.mark.parametrize("case", ["loss", "weight-norm-abel", "weight-norm-constant"])
def test_divergence_aborts_with_status(tmp_path, case):
    """No RuntimeWarning escapes either divergence (the suite makes one an
    error); the squared norm's overflow in dot used to warn."""
    if case == "loss":
        cfg = tiny_config(tmp_path / "run", base_lr=1e18, clip_norm=0.0,
                          weight_decay=0.0)
    else:
        # a normalized net keeps its loss finite while |w|^2 overflows to inf
        cfg = standard_config(case.rsplit("-", 1)[1], epochs=3, log_dir=str(tmp_path / "run"))
        cfg = replace(cfg, model=replace(cfg.model, init_scale=1e160))
    (tmp_path / "run.txt").write_text(format_config(cfg))
    with pytest.raises(DivergenceError):
        run_experiment(cfg)
    assert cli_main(["run", str(tmp_path / "run.txt"), "--log-dir", str(tmp_path / "cli")]) == 3
    for run in ("run", "cli"):
        assert json.loads((tmp_path / run / "meta.json").read_text())["status"] == "diverged"


def test_an_overflowing_norm_diverges_when_runtime_warnings_are_errors(tmp_path):
    """The squared norm was measured outside the epoch's np.errstate, so under
    ``-W error::RuntimeWarning`` its overflow in dot ended the run with a
    traceback (exit 1) and left meta.json at status running."""
    import subprocess

    import abel_sched

    template = parse_config((Path(__file__).resolve().parents[1] / "configs"
                             / "blobs_abel.txt").read_text())
    path = tmp_path / "run.txt"
    path.write_text(format_config(sweep.apply_point(template, {"base_lr": 1e18,
                                                               "clip_norm": 0.0})))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from abel_sched.cli import main; "
            "sys.exit(main(['run', sys.argv[2], '--log-dir', sys.argv[3]]))")
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                          str(Path(abel_sched.__file__).parents[1]), str(path),
                          str(tmp_path / "run")], capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert "Warning" not in out.stderr
    assert json.loads((tmp_path / "run" / "meta.json").read_text())["status"] == "diverged"


def _state_with_velocity(config: ExperimentConfig, layer: str, entries: dict) -> RunState:
    """The epoch-0 state of ``config`` with its momentum buffer zero but for
    ``entries`` (flat index -> value) of ``layer``."""
    params = build_model(config)[0].init_params(config.seed)
    velocity = ParamSet.zeros(params.layout)
    for i, value in entries.items():
        velocity[layer].flat[i] = value
    return RunState(epoch=0, global_step=0, params=params,
                    opt=MomentumState(mu=config.optimizer.momentum, velocity=velocity),
                    scheduler=None, test_errors=())


# Each diverges in the middle of an epoch (4 steps of 64 rows per epoch):
# - lr-1e18, the [loss] case above: the logits of step 2 of epoch 3 overflow,
#   and so does that step's loss;
# - nan-weight: a NaN in the momentum buffer makes an out.w entry NaN at
#   step 1, so every logit of step 2 is NaN;
# - loss-then-logits: the momentum buffer drives out.b's first two entries
#   apart; step 2's logits are finite but its loss overflows, and step 4's
#   logits overflow.
_DIVERGING = {
    "lr-1e18": (dict(base_lr=1e18, clip_norm=0.0, weight_decay=0.0), None,
                "non-finite activations in forward pass", 2),
    "nan-weight": ({}, ("out.w", {0: np.nan}), "non-finite activations in forward pass", 0),
    "loss-then-logits": ({}, ("out.b", {0: -1.7e308, 1: 1.7e308}),
                         "non-finite loss at epoch 1", 0),
}


@pytest.mark.parametrize("case", list(_DIVERGING))
def test_divergence_in_an_epoch_reads_as_a_check_after_every_step(tmp_path, case):
    """The steps' losses and logits are checked at the epoch's end, in step
    order with logits before loss; meta.json reads as if each step were
    checked as it ran, as the per-step oracle does. A run resumed from any
    of its checkpoints diverges where it did, and its meta.json counts the
    epochs of the whole run."""
    overrides, velocity, error, epochs_run = _DIVERGING[case]
    cfg = tiny_config(tmp_path / "run", checkpoint_every=1, **overrides)
    state = None if velocity is None else _state_with_velocity(cfg, *velocity)
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = reference_epochs(cfg, state)
        completed = 0
        with pytest.raises(NumericError) as exc:
            for _ in oracle:
                completed += 1
    assert (str(exc.value), completed) == (error, epochs_run)
    with pytest.raises(DivergenceError, match=error):
        run_experiment(cfg, resume_state=state)
    meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert (meta["status"], meta["error"], meta["epochs_run"]) == ("diverged", error, epochs_run)
    checkpoints = sorted((tmp_path / "run").glob("epoch_*.ckpt"))
    assert len(checkpoints) == epochs_run
    for epoch, ckpt in enumerate(checkpoints, start=1):
        config, resumed = prepare_resume(ckpt, log_dir=str(tmp_path / f"resumed-{epoch}"))
        with pytest.raises(DivergenceError, match=error):
            run_experiment(config, resume_state=resumed)
        meta = json.loads((tmp_path / f"resumed-{epoch}" / "meta.json").read_text())
        assert (meta["status"], meta["error"], meta["start_epoch"], meta["epochs_run"]) == \
            ("diverged", error, epoch, epochs_run)


@pytest.mark.parametrize("key,value", [("model.activation", "sigmoid"), ("model.kind", "conv"),
                                       ("model.hidden", "32,0"), ("model.hidden", "32,-4")],
                         ids=["activation-sigmoid", "conv-without-input-shape",
                              "hidden-width-0", "hidden-width-negative"])
def test_invalid_model_settings_exit_2_without_a_log_dir(tmp_path, capsys, key, value):
    rows = format_config(tiny_config(tmp_path / "run")).splitlines()
    assert sum(row.startswith(f"{key} = ") for row in rows) == 1
    path = tmp_path / "bad.txt"
    path.write_text("".join(f"{key} = {value}\n" if row.startswith(f"{key} = ") else row + "\n"
                            for row in rows))
    with pytest.raises(ConfigError):
        run_experiment(parse_config(path.read_text()))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("arch", ["mlp", "conv"])
@pytest.mark.parametrize("lines", ["eval_batch = 0", "eval_batch = -1",
                                   "optimizer.kind = adam\noptimizer.beta2 = 1.0"],
                         ids=["eval-batch-0", "eval-batch-negative", "adam-beta2-1"])
def test_out_of_range_settings_exit_2_without_a_log_dir(tmp_path, capsys, arch, lines):
    """Each of these made its log dir and then died with a traceback, logged
    test error 0 (a convnet at eval_batch -1), or was reported as diverged."""
    conv = dict(dataset=BlobsSpec(classes=3, dim=64, samples=256, test_samples=256,
                                  label_noise=0.1, separation=3.0, seed=1),
                model=ModelSpec(kind="conv", hidden=(4, 6), activation="tanh",
                                input_shape=(1, 8, 8)))
    cfg = tiny_config(tmp_path / "run", epochs=2, **(conv if arch == "conv" else {}))
    keys = {line.split(" = ")[0] for line in lines.splitlines()}
    rows = [row for row in format_config(cfg).splitlines() if row.split(" = ")[0] not in keys]
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(rows + lines.splitlines()) + "\n")
    with pytest.raises(ConfigError):
        parse_config(path.read_text())
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


def test_gw_logging_optional_column(tmp_path):
    cfg = tiny_config(tmp_path / "run", log_gw=True, epochs=3)
    result = run_experiment(cfg)
    assert all(r.gw_total is not None for r in result.records)
    back = read_metrics(tmp_path / "run")
    assert all(r.gw_total == m.gw_total for r, m in zip(back, result.records))
    cfg2 = tiny_config(tmp_path / "run2", epochs=3)
    assert all(r.gw_total is None for r in run_experiment(cfg2).records)


def test_plateau_schedule_drives_lr_from_train_loss(tmp_path):
    cfg = tiny_config(tmp_path / "run", schedule_kind="plateau", epochs=20,
                      base_lr=1e-7)  # too small to improve the loss reliably
    cfg = replace(cfg, schedule=replace(cfg.schedule, patience=2, factor=0.5))
    result = run_experiment(cfg)
    assert any(e.trigger == "plateau" for e in result.events)


# -- auto-stop ------------------------------------------------------------------


# a bounce decay at epoch 5, and a final decay there that auto-stop ignores
DECAYS_AT_5 = [LrEvent(epoch=5, old_lr=0.1, new_lr=0.01, trigger="bounce"),
               LrEvent(epoch=5, old_lr=0.01, new_lr=0.001, trigger="final_decay")]


def test_auto_stop_triggers_on_small_improvement():
    cfg = tiny_config("unused", auto_stop_min_improvement=0.005)
    # decay at epoch 5; best before = 0.20, best in the 3 epochs after = 0.199
    errors = [0.30, 0.25, 0.22, 0.21, 0.20, 0.199, 0.23, 0.22]
    assert not _should_auto_stop(cfg, errors[:7], DECAYS_AT_5, 7)
    assert _should_auto_stop(cfg, errors, DECAYS_AT_5, 8)
    assert not _should_auto_stop(cfg, errors, DECAYS_AT_5[1:], 8)


def test_auto_stop_continues_on_large_improvement():
    cfg = tiny_config("unused", auto_stop_min_improvement=0.005)
    errors = [0.30, 0.25, 0.22, 0.21, 0.20, 0.15, 0.14, 0.14]
    assert not _should_auto_stop(cfg, errors, DECAYS_AT_5, 8)


def test_auto_stop_threshold_zero_never_stops():
    cfg = tiny_config("unused", auto_stop_min_improvement=0.0)
    errors = [0.30, 0.25, 0.22, 0.21, 0.20, 0.30, 0.30, 0.30]  # error got worse
    assert not _should_auto_stop(cfg, errors, DECAYS_AT_5, 8)


# -- checkpoint / resume ---------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config(tmp_path / "run", schedule_kind="abel", checkpoint_every=6)
    run_experiment(cfg)
    ckpt = tmp_path / "run" / "epoch_0006.ckpt"
    assert ckpt.exists()
    config, state = load_checkpoint(ckpt)
    assert config == cfg
    assert state.epoch == 6
    assert state.global_step == 6 * 4  # 256 samples / batch 64
    assert list(state.params) == ["fc1.w", "fc1.b", "out.w", "out.b"]


@pytest.mark.parametrize("block", ["default", "one-epoch"])
@pytest.mark.parametrize("cut", [1, 6, 11, 12])
def test_resume_reproduces_remaining_records_byte_identically(tmp_path, monkeypatch, cut, block):
    """Under the default block of drawn epoch orders (all 12 in one) and a
    block of one epoch's order, a resume at epoch 1, 6, 11 or 12 (none left
    to train) logs the rows the uninterrupted run logged after it."""
    if block == "one-epoch":  # 256 training rows, each index one byte
        monkeypatch.setattr(runner, "_ORDER_BLOCK_BYTES", 256)
    full_cfg = tiny_config(tmp_path / "full", epochs=12, checkpoint_every=0)
    run_experiment(full_cfg)
    cut_cfg = tiny_config(tmp_path / "cut", epochs=12, checkpoint_every=cut)
    run_experiment(cut_cfg)

    config, state = prepare_resume(tmp_path / "cut" / f"epoch_{cut:04d}.ckpt",
                                   log_dir=str(tmp_path / "resumed"))
    result = run_experiment(config, resume_state=state)
    assert [r.epoch for r in result.records] == list(range(cut + 1, 13))

    full_rows = strip_wall_ms((tmp_path / "full" / "metrics.csv").read_text()).splitlines()
    res_rows = strip_wall_ms((tmp_path / "resumed" / "metrics.csv").read_text()).splitlines()
    assert res_rows[1:] == full_rows[cut + 1:]  # rows for epochs cut + 1..12
    assert len(full_rows) == 13


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(1, 700), st.integers(65535, 65538)),
       seed=st.integers(0, 2**32 - 1), start_epoch=st.integers(0, 12), more=st.integers(0, 12),
       cap=st.integers(1, 3000))
def test_epoch_orders_are_the_per_epoch_permutations_in_bounded_blocks(n, seed, start_epoch,
                                                                      more, cap):
    """Epochs start + 1..epochs get ``default_rng([seed, e]).permutation(n)``
    in order, as intp; the blocks behind them use the narrowest unsigned
    dtype and hold as many orders as fit in the cap, and at least one."""
    epochs = start_epoch + more
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_ORDER_BLOCK_BYTES", cap)
        rows = list(runner._epoch_orders(seed, n, start_epoch, epochs))
        blocks = list(runner._order_blocks(seed, n, start_epoch, epochs))
    assert len(rows) == more
    for epoch, row in enumerate(rows, start=start_epoch + 1):
        assert row.dtype == np.intp
        np.testing.assert_array_equal(row, np.random.default_rng([seed, epoch]).permutation(n))
    dtype = np.dtype(np.uint8 if n <= 2**8 else np.uint16 if n <= 2**16 else np.uint32)
    per_block = max(1, cap // (n * dtype.itemsize))
    assert [b.shape for b in blocks] == \
        [(min(per_block, more - i), n) for i in range(0, more, per_block)]
    for block in blocks:
        assert block.dtype == dtype
        assert block.nbytes <= cap or len(block) == 1
    if blocks:
        np.testing.assert_array_equal(np.concatenate(blocks), np.array(rows).reshape(more, n))


def test_resume_refuses_budget_change_for_cosine(tmp_path):
    cfg = tiny_config(tmp_path / "run", schedule_kind="cosine", checkpoint_every=6)
    run_experiment(cfg)
    ckpt = str(tmp_path / "run" / "epoch_0006.ckpt")
    with pytest.raises(ResumeRefusedError):
        prepare_resume(ckpt, epochs=24)
    assert cli_main(["resume", ckpt, "--epochs", "24"]) == 4
    # unchanged budget is fine
    config, state = prepare_resume(ckpt, log_dir=str(tmp_path / "res"))
    assert config.epochs == 12


def test_resume_refuses_budget_before_checkpoint(tmp_path):
    cfg = tiny_config(tmp_path / "run", schedule_kind="abel", checkpoint_every=6)
    run_experiment(cfg)
    with pytest.raises(ResumeRefusedError):
        prepare_resume(tmp_path / "run" / "epoch_0006.ckpt", epochs=3)


def test_corrupt_checkpoint_detected(tmp_path):
    cfg = tiny_config(tmp_path / "run", checkpoint_every=6)
    run_experiment(cfg)
    ckpt = tmp_path / "run" / "epoch_0006.ckpt"
    data = bytearray(ckpt.read_bytes())
    data[10] ^= 0xFF  # flip a byte inside the embedded config text
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    bad.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    bad.write_bytes(ckpt.read_bytes()[:-20])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


@pytest.fixture(scope="module")
def saved_states(tmp_path_factory):
    """Config and state of an epoch-2 checkpoint, per schedule kind."""
    root = tmp_path_factory.mktemp("ckpts")
    out = {}
    for kind in ("abel", "plateau", "constant"):
        run_experiment(tiny_config(root / kind, epochs=2, schedule_kind=kind,
                                   checkpoint_every=2))
        out[kind] = load_checkpoint(root / kind / "epoch_0002.ckpt")
    return out


@pytest.mark.parametrize("kind,corrupt", [
    ("abel", lambda blobs: b"XXXX" + blobs["abel"][4:]),
    ("abel", lambda blobs: blobs["abel"][:-3]),
    ("abel", lambda blobs: blobs["abel"] + b"\x00"),
    ("plateau", lambda blobs: b"XXXX" + blobs["plateau"][4:]),
    ("plateau", lambda blobs: blobs["plateau"][:-3]),
    ("plateau", lambda blobs: blobs["plateau"] + b"\x00"),
    ("abel", lambda blobs: b""),
    ("plateau", lambda blobs: b""),
    ("constant", lambda blobs: blobs["abel"]),
    ("abel", lambda blobs: blobs["plateau"]),
    ("plateau", lambda blobs: blobs["abel"]),
    # blob v2: base_lr sits after the magic, u16 version and u8 kind; min_history
    # after three f64 fields and u16 smoothing_window; then the u32 budget count
    # and one (epoch, total) u32 pair per budget; the last 8 bytes are the last
    # observation (of two, after a u32 count)
    ("abel", lambda blobs: blobs["abel"][:7] + struct.pack("<d", -1.0) + blobs["abel"][15:]),
    ("abel", lambda blobs: blobs["abel"][:33] + struct.pack("<H", 2) + blobs["abel"][35:]),
    ("abel", lambda blobs: blobs["abel"][:-8] + struct.pack("<d", -1.0)),
    ("abel", lambda blobs: blobs["abel"][:-8] + struct.pack("<d", float("nan"))),
    ("abel", lambda blobs: blobs["abel"][:35] + struct.pack("<7I", 3, 0, 2, 2, 4, 1, 3)
     + blobs["abel"][47:]),
    ("abel", lambda blobs: blobs["abel"][:35] + struct.pack("<5I", 2, 0, 2, 3, 4)
     + blobs["abel"][47:]),
    ("abel", lambda blobs: blobs["abel"][:4] + struct.pack("<H", 1) + blobs["abel"][6:]),
    # a plateau blob's threshold follows base_lr and factor
    ("plateau", lambda blobs: blobs["plateau"][:23] + struct.pack("<d", float("nan"))
     + blobs["plateau"][31:]),
], ids=["abel-bad-magic", "abel-truncated", "abel-trailing", "plateau-bad-magic",
        "plateau-truncated", "plateau-trailing", "abel-empty", "plateau-empty",
        "constant-non-empty", "abel-plateau-state", "plateau-abel-state",
        "abel-negative-base-lr", "abel-min-history-2", "abel-negative-observation",
        "abel-nan-observation", "abel-budget-out-of-order",
        "abel-budget-past-observations", "abel-version-1", "plateau-nan-threshold"])
def test_checkpoint_with_bad_scheduler_state_is_rejected(tmp_path, monkeypatch, saved_states,
                                                         kind, corrupt):
    config, state = saved_states[kind]
    schedulers = {k: saved_states[k][1].scheduler for k in ("abel", "plateau")}
    blob = corrupt({k: serialize_scheduler(s) for k, s in schedulers.items()})
    bad = tmp_path / "bad.ckpt"
    # the save writes ``blob`` as the state of whatever scheduler the state carries
    monkeypatch.setattr(checkpoint, "serialize_scheduler", lambda scheduler: blob)
    save_checkpoint(bad, config, replace(state, scheduler=schedulers["abel"]))
    monkeypatch.undo()
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    assert cli_main(["resume", str(bad), "--log-dir", str(tmp_path / "resumed")]) == 2
    assert not (tmp_path / "resumed").exists()


@pytest.mark.parametrize("epochs", [None, 24], ids=["same-budget", "retarget"])
def test_one_resume_state_serves_two_resumes(tmp_path, epochs):
    run_experiment(tiny_config(tmp_path / "run", schedule_kind="abel", checkpoint_every=6))
    config, state = prepare_resume(tmp_path / "run" / "epoch_0006.ckpt", epochs=epochs)
    blob = serialize_scheduler(state.scheduler)
    logs = []
    for name in ("first", "second"):
        run_experiment(replace(config, log_dir=str(tmp_path / name)), resume_state=state)
        logs.append([strip_wall_ms((tmp_path / name / "metrics.csv").read_text()),
                     *((tmp_path / name / f).read_bytes() for f in ("layers.csv", "events.csv"))])
    assert logs[0] == logs[1]
    assert serialize_scheduler(state.scheduler) == blob


def test_a_load_restores_the_scheduler_once_and_a_resume_never(tmp_path, monkeypatch):
    run_experiment(tiny_config(tmp_path / "run", epochs=4, schedule_kind="abel",
                               checkpoint_every=2))
    blobs = []

    def counting_restore(blob):
        blobs.append(blob)
        return restore_scheduler(blob)

    for module in [m for name, m in sys.modules.items() if name.startswith("abel_sched")]:
        if getattr(module, "restore_scheduler", None) is restore_scheduler:
            monkeypatch.setattr(module, "restore_scheduler", counting_restore)
    config, state = prepare_resume(tmp_path / "run" / "epoch_0002.ckpt",
                                   log_dir=str(tmp_path / "resumed"))
    assert len(blobs) == 1
    run_experiment(config, resume_state=state)
    assert len(blobs) == 1


def test_resume_refuses_a_state_whose_test_errors_miss_epochs(tmp_path):
    cfg = tiny_config(tmp_path / "run", epochs=4, checkpoint_every=2)
    run_experiment(cfg)
    config, state = load_checkpoint(tmp_path / "run" / "epoch_0002.ckpt")
    assert len(state.test_errors) == 2
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, config, replace(state, test_errors=state.test_errors[1:]))
    config, state = prepare_resume(bad, log_dir=str(tmp_path / "resumed"))
    with pytest.raises(ResumeRefusedError):
        run_experiment(config, resume_state=state)
    assert cli_main(["resume", str(bad), "--log-dir", str(tmp_path / "resumed")]) == 4


def test_resume_refuses_a_scheduler_that_saw_other_epochs(tmp_path):
    # the uninterrupted run bounces at 10 and 13 and takes its final decay at 17
    cfg = tiny_config(tmp_path / "run", epochs=20, schedule_kind="abel", checkpoint_every=10)
    run_experiment(cfg)
    config, state = load_checkpoint(tmp_path / "run" / "epoch_0010.ckpt")
    scheduler = AbelScheduler.from_spec(config.schedule)
    for wsq in (3.0, 2.0, 1.0):
        scheduler.observe_epoch(wsq)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, config, replace(state, scheduler=scheduler))
    config, state = prepare_resume(bad, log_dir=str(tmp_path / "resumed"))
    with pytest.raises(ResumeRefusedError, match="seen 3 epochs"):
        run_experiment(config, resume_state=state)
    assert cli_main(["resume", str(bad), "--log-dir", str(tmp_path / "resumed-cli")]) == 4


_UNFIT_RESUMES = {
    "sgd-state-under-adam": lambda cfg: replace(cfg, optimizer=OptimizerSpec(kind="adam")),
    "mu-0-state-under-momentum-0.9": lambda cfg: replace(
        cfg, optimizer=OptimizerSpec(kind="momentum", momentum=0.9)),
    "32,16-state-under-16,32": lambda cfg: replace(
        cfg, model=replace(cfg.model, hidden=(16, 32))),
    "epoch-6-state-under-4-epochs": lambda cfg: replace(
        cfg, epochs=4, schedule=replace(cfg.schedule, total_epochs=4)),
}


@pytest.mark.parametrize("case", list(_UNFIT_RESUMES))
def test_resume_refuses_a_state_that_does_not_fit_its_config(tmp_path, case):
    """The loop trains the resume state's layout with the update kernel of its
    optimizer, so a config that disagrees with the state would be ignored."""
    cfg = tiny_config(tmp_path / "run", epochs=6, checkpoint_every=6,
                      model=ModelSpec(kind="mlp", hidden=(32, 16), activation="relu"),
                      optimizer=OptimizerSpec(kind="momentum", momentum=0.0))
    run_experiment(cfg)
    _, state = load_checkpoint(tmp_path / "run" / "epoch_0006.ckpt")
    unfit = replace(_UNFIT_RESUMES[case](cfg), log_dir=str(tmp_path / "resumed"))
    with pytest.raises(ResumeRefusedError, match="resume state"):
        run_experiment(unfit, resume_state=state)
    assert not (tmp_path / "resumed").exists()
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, unfit, state)
    assert cli_main(["resume", str(bad), "--log-dir", str(tmp_path / "resumed-cli")]) == 4
    assert not (tmp_path / "resumed-cli").exists()


def test_a_final_decay_survives_a_second_resume_at_a_new_budget(tmp_path):
    # checkpoint at 18, after the final decay at round(0.85 * 20) = 17; resume
    # to 40 epochs, checkpoint at 30 and resume again: the blob at 30 must keep
    # the budget change at 18, or its replay would drop the decay at 17
    cfg = tiny_config(tmp_path / "run", epochs=20, schedule_kind="abel", checkpoint_every=6)
    run_experiment(cfg)
    config, state = prepare_resume(tmp_path / "run" / "epoch_0018.ckpt", epochs=40,
                                   log_dir=str(tmp_path / "run"))
    run_experiment(config, resume_state=state)
    _, state = load_checkpoint(tmp_path / "run" / "epoch_0030.ckpt")
    assert state.scheduler.budgets == [(0, 20), (18, 40)]
    config, state = prepare_resume(tmp_path / "run" / "epoch_0030.ckpt",
                                   log_dir=str(tmp_path / "run"))
    resumed = run_experiment(config, resume_state=state)
    assert [(ev["epoch"], ev["trigger"]) for ev in resumed.meta["decay_events"]] == \
        [(10, "bounce"), (13, "bounce"), (17, "final_decay"), (34, "final_decay")]
    assert [ev.epoch for ev in read_events(tmp_path / "run")] == [10, 13, 17, 34]


@pytest.mark.parametrize("checkpoint, epochs, finals", [(6, 7, None), (6, 8, [7]), (12, 13, [10])],
                         ids=["untaken-and-behind", "ahead", "taken"])
def test_a_resume_refuses_a_budget_that_puts_an_untaken_final_decay_behind_it(
        tmp_path, checkpoint, epochs, finals):
    """The 12-epoch run takes its final decay at round(0.85 * 12) = 10. Resumed
    at epoch 6 with 7 epochs, the final decay falls at round(0.85 * 7) = 6,
    behind the checkpoint: the resume used to exit 0 and train epoch 7 without
    it, where an uninterrupted 7-epoch run decays at 6. A final decay ahead of
    the checkpoint, or one already taken, still resumes."""
    run_experiment(tiny_config(tmp_path / "run", schedule_kind="abel", checkpoint_every=6))
    ckpt = tmp_path / "run" / f"epoch_{checkpoint:04d}.ckpt"
    resumed_dir = tmp_path / "resumed"
    config, state = prepare_resume(ckpt, epochs=epochs, log_dir=str(resumed_dir))
    if finals is None:
        with pytest.raises(ResumeRefusedError, match="final decay at epoch 6"):
            run_experiment(config, resume_state=state)
        assert cli_main(["resume", str(ckpt), "--epochs", str(epochs),
                         "--log-dir", str(resumed_dir)]) == 4
        assert not resumed_dir.exists()
        return
    meta = run_experiment(config, resume_state=state).meta
    assert [ev["epoch"] for ev in meta["decay_events"] if ev["trigger"] == "final_decay"] == finals
    if checkpoint < finals[0]:  # as the uninterrupted run at the new budget decays
        full = run_experiment(tiny_config(tmp_path / "full", schedule_kind="abel", epochs=epochs))
        assert meta["decay_events"] == full.meta["decay_events"]


def test_resume_auto_stops_where_the_uninterrupted_run_does(tmp_path):
    # the standard ABEL run: a bounce decay at 140 that gains less than 0.5
    cfg = replace(standard_config("abel", log_dir=str(tmp_path / "full")),
                  auto_stop_min_improvement=0.5, checkpoint_every=1)
    full = run_experiment(cfg)
    assert [(ev.epoch, ev.trigger) for ev in full.events] == [(140, "bounce")]
    assert (full.meta["status"], full.records[-1].epoch) == ("auto_stopped", 143)
    for epoch in (140, 141, 142):
        config, state = prepare_resume(tmp_path / "full" / f"epoch_{epoch:04d}.ckpt",
                                       log_dir=str(tmp_path / f"resumed-{epoch}"))
        resumed = run_experiment(config, resume_state=state)
        assert (resumed.meta["status"], resumed.records[-1].epoch) == ("auto_stopped", 143)
        assert [r.test_error for r in resumed.records] == \
            [r.test_error for r in full.records[epoch:]]


@pytest.mark.parametrize("kind,resumes", [("abel", (100, 150)), ("stepwise", (100,))])
def test_a_resumed_run_reports_the_whole_run_in_its_meta(tmp_path, kind, resumes):
    # the standard ABEL run: best test error at epoch 11, a bounce decay at 140;
    # the step-wise run: milestones at 60, 120 and 160
    cfg = replace(standard_config(kind, log_dir=str(tmp_path / "run")), checkpoint_every=50)
    full = run_experiment(cfg)
    expected = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert expected.pop("start_epoch") == 0
    assert expected["best_epoch"] == 11
    assert [ev["epoch"] for ev in expected["decay_events"]] == \
        ([140, 170] if kind == "abel" else [60, 120, 160])
    for epoch in resumes:
        config, state = prepare_resume(tmp_path / "run" / f"epoch_{epoch:04d}.ckpt",
                                       log_dir=str(tmp_path / "run"))
        resumed = run_experiment(config, resume_state=state)
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta.pop("start_epoch") == epoch
        assert meta == expected
        assert (resumed.best_test_error, resumed.final_test_error) == \
            (full.best_test_error, full.final_test_error)


# -- the per-epoch hook and the sweep's watcher ------------------------------------

WATCH_WEIGHT_DECAY = 5e-3  # lets the bounce scheduler of window 1 fire at epoch 7


def _watched(tmp_path, name, kind, **schedule_changes):
    """The watch tests' constant-schedule leader config, with another schedule and log_dir."""
    config = tiny_config(tmp_path / name, schedule_kind=kind, weight_decay=WATCH_WEIGHT_DECAY)
    return replace(config, schedule=replace(config.schedule, **schedule_changes))


def _watch(leader, followers) -> list:
    """Train ``leader`` with the sweep's watcher over ``followers``: each one's fork, or None."""
    forks = [None] * len(followers)
    run_experiment(leader, on_epoch=sweep._watcher(leader, followers, forks.__setitem__))
    return forks


def test_a_resumed_fork_logs_what_an_independent_run_logs(tmp_path):
    leader = tiny_config(tmp_path / "leader", weight_decay=WATCH_WEIGHT_DECAY)
    watch = [_watched(tmp_path, "abel", "abel", smoothing_window=2),
             _watched(tmp_path, "stepwise", "stepwise"),
             _watched(tmp_path, "simple", "simple"),
             _watched(tmp_path, "abel-early", "abel", smoothing_window=1)]
    forks = _watch(leader, watch)
    first_changes = []
    for config, fork in zip(watch, forks, strict=True):
        alone = replace(config, log_dir=str(tmp_path / "alone" / Path(config.log_dir).name))
        first_changes.append(run_experiment(alone).events[0].epoch)
        # the fork is the end of the last epoch the two lrs agreed on
        assert fork.epoch == first_changes[-1]
        run_experiment(config, resume_state=fork)
        expected = run_logs(Path(alone.log_dir))
        expected["meta.json"]["config_hash"] = config_hash(config)
        assert run_logs(Path(config.log_dir)) == expected, config.log_dir
        meta = json.loads((Path(config.log_dir) / "meta.json").read_text())
        assert meta["start_epoch"] == fork.epoch
    # the other smoothing window departs first: the watched runs fork apart
    assert first_changes[3] < first_changes[0]
    # watching leaves the leader's own logs as they are
    run_experiment(replace(leader, log_dir=str(tmp_path / "alone" / "leader")))
    logs = [run_logs(Path(d)) for d in (leader.log_dir, tmp_path / "alone" / "leader")]
    for run in logs:
        del run["meta.json"]["config_hash"]
    assert logs[0] == logs[1]


def test_runs_that_depart_before_epoch_1_or_never_get_no_fork(tmp_path):
    leader = tiny_config(tmp_path / "leader", weight_decay=WATCH_WEIGHT_DECAY)
    watch = [_watched(tmp_path, "milestone-at-0", "stepwise", milestones=((0, 0.5),)),
             # its lr would depart at epoch 4, but its warmup ramp does from epoch 1 on
             _watched(tmp_path, "warmup", "stepwise", warmup_epochs=2),
             _watched(tmp_path, "never", "stepwise", milestones=((20, 0.5),))]
    assert _watch(leader, watch) == [None, None, None]
    assert not any(Path(config.log_dir).exists() for config in watch)


def test_each_fork_is_the_checkpoint_an_independent_run_saves(tmp_path):
    leader = tiny_config(tmp_path / "leader", weight_decay=WATCH_WEIGHT_DECAY)
    watch = [_watched(tmp_path, "stepwise", "stepwise"),
             _watched(tmp_path, "abel-early", "abel", smoothing_window=1)]
    forks = _watch(leader, watch)
    assert all(fork is not None for fork in forks)
    for config, fork in zip(watch, forks, strict=True):
        alone = replace(config, log_dir=str(tmp_path / "alone" / Path(config.log_dir).name),
                        checkpoint_every=1)
        run_experiment(alone)
        saved = Path(alone.log_dir) / f"epoch_{fork.epoch:04d}.ckpt"
        save_checkpoint(tmp_path / "fork.ckpt", alone, fork)
        assert (tmp_path / "fork.ckpt").read_bytes() == saved.read_bytes(), config.log_dir


# -- the live vectors never leak -----------------------------------------------------
#
# The epoch loop writes one weight vector and the optimizer's flat state in
# place. A state handed in (a resume) or handed out (to ``on_epoch``) must hold
# its own vectors, or a later step would change it silently.


def _state_bytes(state: RunState) -> tuple:
    opt = state.opt
    buffers = (opt.velocity,) if isinstance(opt, MomentumState) else (opt.m, opt.v)
    return (state.epoch, state.global_step, state.params.flat.tobytes(),
            *(b.flat.tobytes() for b in buffers), getattr(opt, "t", None), state.test_errors,
            serialize_scheduler(state.scheduler) if state.scheduler is not None else None)


@pytest.mark.parametrize("optimizer", [OptimizerSpec(kind="momentum", momentum=0.9),
                                       OptimizerSpec(kind="momentum", momentum=0.0),
                                       OptimizerSpec(kind="adam")],
                         ids=["momentum-0.9", "momentum-0", "adam"])
def test_a_resume_leaves_its_state_bit_for_bit(tmp_path, optimizer):
    run_experiment(tiny_config(tmp_path / "run", schedule_kind="abel", checkpoint_every=4,
                               optimizer=optimizer))
    config, state = prepare_resume(tmp_path / "run" / "epoch_0004.ckpt",
                                   log_dir=str(tmp_path / "resumed"))
    # the loaded vectors are writable copies, so a write into them would not raise
    assert state.params.flat.flags.writeable
    before = _state_bytes(state)
    run_experiment(config, resume_state=state)
    assert _state_bytes(state) == before


@pytest.mark.parametrize("optimizer, kind, auto_stop, last", [
    (OptimizerSpec(kind="momentum", momentum=0.9), "stepwise", 0.0, 12),
    (OptimizerSpec(kind="momentum", momentum=0.0), "stepwise", 0.0, 12),
    (OptimizerSpec(kind="adam"), "stepwise", 0.0, 12),
    # the bounce decay at epoch 7 gains less than 0.5: auto-stop after epoch 10
    (OptimizerSpec(kind="momentum", momentum=0.9), "abel", 0.5, 10),
], ids=["momentum-0.9", "momentum-0", "adam", "abel-auto-stop"])
def test_on_epoch_gets_each_boundary_the_run_goes_on_from(tmp_path, optimizer, kind,
                                                          auto_stop, last):
    config = replace(_watched(tmp_path, "run", kind, smoothing_window=1), optimizer=optimizer,
                     auto_stop_min_improvement=auto_stop)
    alone = replace(config, log_dir=str(tmp_path / "alone"), checkpoint_every=1)
    seen = []

    def record(rec, state):
        save_checkpoint(tmp_path / f"hook_{rec.epoch:04d}.ckpt", alone, state)
        seen.append((rec.epoch, state, _state_bytes(state)))

    result = run_experiment(config, on_epoch=record)
    assert result.records[-1].epoch == last
    # neither after the last epoch nor after the auto-stop check fired
    assert [epoch for epoch, _, _ in seen] == list(range(1, last))
    run_experiment(alone)
    for epoch, state, before in seen:
        saved = Path(alone.log_dir) / f"epoch_{epoch:04d}.ckpt"
        assert (tmp_path / f"hook_{epoch:04d}.ckpt").read_bytes() == saved.read_bytes(), epoch
        # the vectors are the state's own; its scheduler is the run's live one (see RunState)
        assert _state_bytes(state)[:-1] == before[:-1], epoch
        if state.scheduler is None:
            assert _state_bytes(state) == before


def test_checkpoint_preserves_adam_state(tmp_path):
    cfg = tiny_config(tmp_path / "run", epochs=8, checkpoint_every=4,
                      optimizer=OptimizerSpec(kind="adam"))
    run_experiment(cfg)
    _, state = load_checkpoint(tmp_path / "run" / "epoch_0004.ckpt")
    from abel_sched import AdamState
    assert isinstance(state.opt, AdamState)
    assert state.opt.t == 16  # 4 epochs x 4 steps
    config, st = prepare_resume(tmp_path / "run" / "epoch_0004.ckpt",
                                log_dir=str(tmp_path / "resumed"))
    full = run_experiment(tiny_config(tmp_path / "full", epochs=8,
                                      optimizer=OptimizerSpec(kind="adam")))
    resumed = run_experiment(config, resume_state=st)
    assert [r.test_error for r in resumed.records] == \
        [r.test_error for r in full.records[4:]]


@pytest.mark.parametrize("optimizer,model", [
    (OptimizerSpec(kind="momentum", momentum=0.9),
     ModelSpec(kind="mlp", hidden=(8,), activation="relu")),
    (OptimizerSpec(kind="adam"),
     ModelSpec(kind="mlp", hidden=(8,), activation="tanh", normalize=True)),
], ids=["momentum-biases", "adam-normalized"])
def test_checkpoint_save_load_save_is_byte_identical(tmp_path, optimizer, model):
    cfg = tiny_config(tmp_path / "run", epochs=4, checkpoint_every=2, schedule_kind="abel",
                      optimizer=optimizer, model=model)
    run_experiment(cfg)
    original = tmp_path / "run" / "epoch_0004.ckpt"
    config, state = load_checkpoint(original)
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, config, state)
    assert again.read_bytes() == original.read_bytes()


def test_conv_model_with_idx_dataset_end_to_end(tmp_path):
    from abel_sched import IdxSpec
    from abel_sched.datasets import write_idx_images, write_idx_labels
    rng = np.random.default_rng(0)
    root = tmp_path / "data"
    root.mkdir()
    write_idx_images(root / "train-images-idx3-ubyte",
                     rng.integers(0, 256, size=(96, 8, 8)).astype(np.uint8))
    write_idx_labels(root / "train-labels-idx1-ubyte",
                     rng.integers(0, 3, size=96).astype(np.uint8))
    write_idx_images(root / "t10k-images-idx3-ubyte",
                     rng.integers(0, 256, size=(32, 8, 8)).astype(np.uint8))
    write_idx_labels(root / "t10k-labels-idx1-ubyte",
                     rng.integers(0, 3, size=32).astype(np.uint8))
    cfg = tiny_config(
        tmp_path / "run", epochs=3,
        dataset=IdxSpec(path=str(root)),
        model=ModelSpec(kind="conv", hidden=(4, 6), activation="tanh",
                        input_shape=(1, 8, 8)),
        batch_size=32)
    result = run_experiment(cfg)
    assert len(result.records) == 3
    assert "conv1.w" in result.records[0].per_layer_wsq


def test_cli_run_and_exit_codes(tmp_path):
    cfg_text = (tmp_path / "c.txt")
    cfg_text.write_text(
        "epochs = 3\nbase_lr = 0.5\nlog_dir = {}\n"
        "dataset.kind = blobs\ndataset.samples = 128\ndataset.test_samples = 128\n"
        "dataset.dim = 8\nmodel.hidden = 8\nbatch_size = 64\n".format(tmp_path / "run"))
    assert cli_main(["run", str(cfg_text)]) == 0
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert cli_main(["run", str(tmp_path / "nope.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("epochs = -3\n")
    assert cli_main(["run", str(bad)]) == 2
    div = tmp_path / "div.txt"
    div.write_text(cfg_text.read_text().replace("base_lr = 0.5", "base_lr = 1e160")
                   .replace(str(tmp_path / "run"), str(tmp_path / "run2")))
    assert cli_main(["run", str(div)]) == 3


@pytest.mark.parametrize("lines, flag", [("seed = -1", None), ("dataset.seed = -1", None),
                                         ("", "-1")],
                         ids=["config-seed", "config-dataset-seed", "cli-seed"])
def test_a_negative_seed_exits_2_without_a_log_dir(tmp_path, capsys, lines, flag):
    rows = [row for row in format_config(tiny_config(tmp_path / "run")).splitlines()
            if not (lines and row.startswith(lines.split(" = ")[0] + " = "))]
    path = tmp_path / "c.txt"
    path.write_text("\n".join(rows + lines.splitlines()) + "\n")
    assert cli_main(["run", str(path)] + (["--seed", flag] if flag else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args", [["--window", "0"], ["--top-k", "0"], ["--noise-tol", "-1"]],
                         ids=["window-0", "top-k-0", "noise-tol-negative"])
def test_cli_analyze_refuses_out_of_range_options(tmp_path, capsys, args):
    """Each of these crashed the analysis with a ValueError traceback (exit 1);
    argparse now refuses it as a usage error, before the logs are read."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["analyze", str(tmp_path / "no-run"), *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {args[0]}: must be >= " in err and "Traceback" not in err


def test_cli_plotdata_and_analyze(tmp_path, capsys):
    cfg_text = tmp_path / "c.txt"
    cfg_text.write_text(
        "epochs = 6\nbase_lr = 0.5\nlog_dir = {}\n"
        "dataset.kind = blobs\ndataset.samples = 128\ndataset.test_samples = 128\n"
        "dataset.dim = 8\nmodel.hidden = 8\nbatch_size = 64\n".format(tmp_path / "run"))
    assert cli_main(["run", str(cfg_text)]) == 0
    capsys.readouterr()  # drop the run summary line
    assert cli_main(["plotdata", str(tmp_path / "run"), "--what", "wsq"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "epoch,wsq_total"
    assert len(out.splitlines()) == 7
    assert cli_main(["analyze", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "report.txt").exists()
    assert (tmp_path / "run" / "report.csv").exists()


@pytest.mark.parametrize("damage", ["garbled-metrics-row", "layers-lack-the-last-epoch"])
def test_cli_refuses_damaged_logs_with_exit_2(tmp_path, capsys, damage):
    """The first crashed both verbs, the second analyze, with a traceback (exit 1);
    both verbs now refuse both. The second is what a run killed between its
    metrics and layers writes leaves."""
    run = tmp_path / "run"
    run_experiment(tiny_config(run, epochs=3))
    if damage == "garbled-metrics-row":
        name = "metrics.csv"
        lines = (run / name).read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(",", ",x", 1)
    else:
        name = "layers.csv"
        lines = [line for line in (run / name).read_text().splitlines(keepends=True)
                 if not line.startswith("3,")]
    (run / name).write_text("".join(lines))
    for verb in ("analyze", "plotdata"):
        assert cli_main([verb, str(run), *(["--what", "lr"] if verb == "plotdata" else [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(run / name) in err, (verb, err)


# -- calls per epoch -------------------------------------------------------------


@pytest.mark.parametrize("log_gw", [False, True])
def test_model_calls_per_epoch(tmp_path, monkeypatch, log_gw):
    """ceil(n / batch) training steps (plus the g.w probe) and one evaluation
    per epoch. perfbench's epoch clock opens a run's first epoch at its first
    ``train_step_stats`` call and closes each epoch at ``error_rate``."""
    from abel_sched import Model, TrainSet

    calls = []
    rows = []
    train_step, error_rate = Model.train_step_stats, Model.error_rate

    def counted_train_step(self, params, batch, stats):
        assert isinstance(batch, TrainSet)
        calls.append("train_step")
        rows.append(len(batch))
        return train_step(self, params, batch, stats)

    def counted_error_rate(*args, **kwargs):
        calls.append("error_rate")
        return error_rate(*args, **kwargs)

    monkeypatch.setattr(Model, "train_step_stats", counted_train_step)
    monkeypatch.setattr(Model, "error_rate", counted_error_rate)
    run_experiment(tiny_config(tmp_path / "run", epochs=3, batch_size=100, log_gw=log_gw))
    per_epoch = " ".join(calls).split("error_rate")
    assert per_epoch[-1] == ""
    steps = 3 + (1 if log_gw else 0)  # 256 samples in batches of 100
    assert [part.split() for part in per_epoch[:-1]] == [["train_step"] * steps] * 3
    assert rows == ([100, 100, 56] + ([100] if log_gw else [])) * 3


# -- the epoch loop against a plain reference ------------------------------------


_SGD = OptimizerSpec(kind="momentum", momentum=0.0)
_HOT_LOOP_CASES = {
    "momentum-0": dict(model=ModelSpec(kind="mlp", hidden=(8, 6), activation="tanh",
                                       normalize=True),
                       optimizer=_SGD, label_smoothing=0.1),
    "momentum-0.9": {},
    "adam": dict(base_lr=0.01, optimizer=OptimizerSpec(kind="adam")),
    "conv": dict(dataset=BlobsSpec(classes=3, dim=36, samples=256, test_samples=256,
                                   label_noise=0.1, separation=3.0, seed=1),
                 model=ModelSpec(kind="conv", hidden=(3, 4), activation="tanh",
                                 input_shape=(1, 6, 6))),
    "clip-off": dict(clip_norm=0.0),
    "no-weight-decay": dict(weight_decay=0.0),
    # biases split the L2 runs: the L2 term is added run by run
    "relu-biases-momentum-0": dict(optimizer=_SGD),
}


def _hot_loop_config(log_dir, case: str) -> ExperimentConfig:
    """Five epochs with a partial last minibatch, a partial last eval chunk, a
    warmup, and (but for clip-off) a clip norm that some steps' gradients exceed."""
    cfg = tiny_config(log_dir, **{"clip_norm": 0.5, **_HOT_LOOP_CASES[case]})
    return replace(cfg, epochs=5, batch_size=60, eval_batch=100,
                   schedule=replace(cfg.schedule, total_epochs=5, warmup_epochs=2))


@pytest.mark.parametrize("optimizer", list(_HOT_LOOP_CASES))
def test_runner_logs_match_the_reference_loop_bit_for_bit(tmp_path, optimizer):
    cfg = _hot_loop_config(tmp_path / "run", optimizer)
    run_experiment(cfg)
    metrics, layers = reference_log_rows(cfg)
    logged = strip_wall_ms((tmp_path / "run" / "metrics.csv").read_text()).splitlines()
    assert logged[1:] == metrics
    assert (tmp_path / "run" / "layers.csv").read_text().splitlines()[1:] == layers


# -- resume into the original log directory ----------------------------------------


def _log_texts(log_dir: Path) -> dict[str, str]:
    """The three logs, ``wall_ms`` stripped from metrics.csv."""
    texts = {name: (log_dir / name).read_text() for name in ("layers.csv", "events.csv")}
    return {"metrics.csv": strip_wall_ms((log_dir / "metrics.csv").read_text()), **texts}


def test_resume_into_the_same_log_dir_keeps_the_history(tmp_path):
    run_experiment(tiny_config(tmp_path / "full", schedule_kind="stepwise"))
    cut = tiny_config(tmp_path / "cut", schedule_kind="stepwise", checkpoint_every=6)
    run_experiment(cut)
    config, state = prepare_resume(tmp_path / "cut" / "epoch_0006.ckpt",
                                   log_dir=str(tmp_path / "cut"))
    run_experiment(config, resume_state=state)
    expected = _log_texts(tmp_path / "full")
    assert expected["events.csv"].count("milestone") == 2  # epochs 4 and 8, either side of 6
    assert _log_texts(tmp_path / "cut") == expected


def test_resume_appends_to_a_directory_an_earlier_resume_wrote(tmp_path):
    run_experiment(tiny_config(tmp_path / "full", schedule_kind="stepwise"))
    run_experiment(tiny_config(tmp_path / "cut", schedule_kind="stepwise", checkpoint_every=3))
    config, state = prepare_resume(tmp_path / "cut" / "epoch_0003.ckpt",
                                   log_dir=str(tmp_path / "res"))
    run_experiment(config, resume_state=state)  # logs epochs 4-12, checkpoints 6, 9, 12
    config, state = prepare_resume(tmp_path / "res" / "epoch_0009.ckpt",
                                   log_dir=str(tmp_path / "res"))
    run_experiment(config, resume_state=state)
    rows = strip_wall_ms((tmp_path / "full" / "metrics.csv").read_text()).splitlines()
    assert _log_texts(tmp_path / "res")["metrics.csv"].splitlines() == rows[:1] + rows[4:]


def _drop_metrics_row(log_dir: Path, epoch: int) -> None:
    path = log_dir / "metrics.csv"
    path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                            if not line.startswith(f"{epoch},")))


def _edit_file(path: Path, edit) -> None:
    path.write_text("".join(edit(line) for line in path.read_text().splitlines(keepends=True)))


# what each case's refusal names
_REFUSALS = {
    "metrics-row": "lack rows up to the checkpoint epoch 6",
    "layers-file": "no layers.csv",
    "metrics-header": "unexpected header",
    "splice": "seed is '1' there, '0' in the resumed run",
    "test-error": "epoch 3 logs another test error",
    "config-key": "clip_norm is '4.0' there, '5.0'",
    "cosine-budget": "epochs is '24' there, '12'",
}


@pytest.mark.parametrize("damage", list(_REFUSALS))
def test_resume_refuses_logs_that_lack_rows(tmp_path, damage):
    """Logs that lack rows, or that the checkpointed run did not write, refuse
    the resume and are left as they were. The splice is another seed's run in
    the same directory, which leaves the first run's checkpoint beside its
    own logs: resuming it used to splice the two runs' rows into one log.
    A cosine schedule's budget may not change, so neither may its logs'."""
    cfg = tiny_config(tmp_path / "run", checkpoint_every=6,
                      schedule_kind="cosine" if damage == "cosine-budget" else "constant")
    run_experiment(cfg)
    run_dir = tmp_path / "run"
    if damage == "metrics-row":
        _drop_metrics_row(run_dir, 5)
    elif damage == "layers-file":
        (run_dir / "layers.csv").unlink()
    elif damage == "metrics-header":
        (run_dir / "metrics.csv").write_text("epoch,lr\n")
    elif damage == "splice":
        run_experiment(tiny_config(run_dir, seed=1))
    elif damage == "test-error":
        def other_test_error(line):
            fields = line.split(",")
            if fields[0] == "3":
                fields[4] = repr(float(fields[4]) + 0.25)
            return ",".join(fields)
        _edit_file(run_dir / "metrics.csv", other_test_error)
    else:
        key, new = ("clip_norm", "4.0") if damage == "config-key" else ("epochs", "24")
        _edit_file(run_dir / "config.txt", lambda line: f"{key} = {new}\n"
                   if line.startswith(f"{key} = ") else line)
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    config, state = prepare_resume(run_dir / "epoch_0006.ckpt", log_dir=str(run_dir))
    with pytest.raises(ResumeRefusedError, match=re.escape(_REFUSALS[damage])):
        run_experiment(config, resume_state=state)
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    ckpt = str(run_dir / "epoch_0006.ckpt")
    assert cli_main(["resume", ckpt, "--log-dir", str(run_dir)]) == 4


# -- atomic writes -----------------------------------------------------------------


class _FailingFile:
    """Writes half of what it is given, then fails like a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failure", ["write", "replace"])
@pytest.mark.parametrize("target", ["checkpoint", "meta"])
def test_a_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, failure, target):
    import builtins
    import os

    import abel_sched.runner as runner

    cfg = tiny_config(tmp_path / "run", epochs=2, checkpoint_every=1)
    run_experiment(cfg)
    path = tmp_path / "run" / ("epoch_0001.ckpt" if target == "checkpoint" else "meta.json")
    before = path.read_bytes()
    if failure == "write":
        real_open = builtins.open
        monkeypatch.setattr(runner, "open", lambda *a, **k: _FailingFile(real_open(*a, **k)),
                            raising=False)
    else:
        def failing_replace(src, dst):
            raise OSError(5, "Input/output error")
        monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        if target == "checkpoint":
            _, state = load_checkpoint(path)
            save_checkpoint(path, cfg, replace(state, epoch=7))
        else:
            runner.write_atomic(path, b"{}\n")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == [
        "config.txt", "epoch_0001.ckpt", "epoch_0002.ckpt", "events.csv", "layers.csv",
        "meta.json", "metrics.csv"]


# -- a crash at any write -----------------------------------------------------------

# Run in a subprocess: ``abel-sched run`` of argv[2], killed by os._exit at the
# argv[4]-th write of kind argv[3]. A kind is a log file's appended rows (written
# at each flush), or the temp file or os.replace of write_atomic for a
# checkpoint or meta.json. A "torn" crash (argv[5]) first writes half of the
# bytes; a rename has no bytes to halve, so its torn crash dies just after it.
_CRASHING_RUN = """
import os, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import abel_sched.runner as runner
from abel_sched.cli import main

config, kind, occurrence, torn = sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5] == "torn"
seen = []

def boundary(this_kind, write_half):
    if this_kind == kind:
        seen.append(this_kind)
        if len(seen) == occurrence:
            if torn:
                write_half()
            os._exit(9)

def target(path, suffix):
    name = Path(path).name
    if name.endswith(".tmp"):  # write_atomic's temp file .<name>.<pid>.tmp
        name = name[1:].rsplit(".", 2)[0]
    return ("checkpoint" if name.endswith(".ckpt") else name) + suffix

class File:
    def __init__(self, f, kind):
        self.f, self.kind, self.pending = f, kind, []
    def write(self, data):
        self.pending.append(data)
    def flush(self):
        if self.pending:
            data, self.pending = self.pending[0][:0].join(self.pending), []
            def write_half():
                self.f.write(data[:len(data) // 2])
                self.f.flush()
            boundary(self.kind, write_half)
            self.f.write(data)
        self.f.flush()
    def close(self):
        self.flush()
        self.f.close()
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.close()

real_open, real_replace = open, os.replace
runner.open = lambda path, mode: File(real_open(path, mode),
                                      target(path, "" if "a" in mode else " temp"))
def replace(src, dst):
    boundary(target(dst, " replace"), lambda: real_replace(src, dst))
    real_replace(src, dst)
os.replace = replace
sys.exit(main(["run", config]))
"""

# (kind, occurrence): epoch 3 of 4 for the per-epoch writes (its events are
# the second milestone's), the closing meta.json for the others
_CRASHES = [("metrics.csv", 3), ("layers.csv", 3), ("events.csv", 2), ("checkpoint temp", 3),
            ("checkpoint replace", 3), ("meta.json temp", 2), ("meta.json replace", 2)]


def _crash_config(log_dir) -> ExperimentConfig:
    return tiny_config(log_dir, epochs=4, checkpoint_every=1, schedule=ScheduleSpec(
        kind="stepwise", base_lr=0.5, total_epochs=4, milestones=((2, 0.5), (3, 0.5))))


@pytest.mark.parametrize("torn", ["clean", "torn"])
@pytest.mark.parametrize("kind, occurrence", _CRASHES)
def test_a_resume_after_a_crash_at_any_write_gives_the_uninterrupted_logs(
        tmp_path, kind, occurrence, torn):
    """Each epoch writes and flushes its rows and events before its checkpoint,
    and each checkpoint and meta.json goes through a temp file and os.replace.
    So a resume from the newest checkpoint after a crash at any of these writes
    must give the uninterrupted run's bytes, or be refused (exit 4); it must
    never exit 0 with other bytes."""
    import subprocess

    import abel_sched

    run_experiment(_crash_config(tmp_path / "full"))
    expected = run_logs(tmp_path / "full")
    config = _crash_config(tmp_path / "run")
    expected["meta.json"]["config_hash"] = config_hash(config)
    path = tmp_path / "config.txt"
    path.write_text(format_config(config))
    src = str(Path(abel_sched.__file__).parents[1])
    crashed = subprocess.run([sys.executable, "-c", _CRASHING_RUN, src, str(path), kind,
                              str(occurrence), torn], capture_output=True, text=True, timeout=120)
    assert crashed.returncode == 9, crashed.stderr
    run_dir = tmp_path / "run"
    if torn == "torn" and kind.endswith(".csv"):
        # half of epoch 3's rows: a part of a row, or one layer's row of two
        assert (run_dir / kind).read_text().splitlines()[-1].startswith("3,")
    newest = max(run_dir.glob("epoch_*.ckpt"))
    code = cli_main(["resume", str(newest), "--log-dir", str(run_dir)])
    # every case resumes today; a refusal (exit 4) would also keep the logs whole
    assert code == 0
    assert run_logs(run_dir) == expected
    assert list(run_dir.glob("*.tmp")) == []  # a temp file the crash left is removed
