"""Property tests for the binary codecs (checkpoints, scheduler state) and the
config text format.

Every truncation and every appended suffix must be refused, never loaded;
encode -> decode -> encode must give back the same bytes. Every single-bit
flip of a checkpoint is refused (its sha256 covers every byte), and a flip
in a scheduler state blob either decodes or raises StateDecodeError. A
scheduler blob holds only the spec, the budgets and the observations, so
every scheduler that restores, flipped or not, has the lr and epoch that
replaying its observations gives.
"""

import struct
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from abel_sched import (
    AbelScheduler,
    AdamState,
    BlobsSpec,
    CheckpointError,
    ExperimentConfig,
    IdxSpec,
    Model,
    ModelArch,
    ModelSpec,
    MomentumState,
    OptimizerSpec,
    PlateauScheduler,
    ScheduleSpec,
    SpiralsSpec,
    StateDecodeError,
    format_config,
    load_checkpoint,
    parse_config,
    restore_scheduler,
    save_checkpoint,
    serialize_scheduler,
)
from abel_sched.cli import main as cli_main
from abel_sched.config import ConfigError
from abel_sched.runner import RunState
from abel_sched.schedules import COSINE_FORMS, PLATEAU_MODES, SCHEDULE_KINDS

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

unit = st.floats(0.01, 0.99)
positive = st.floats(1e-6, 100.0)
metrics = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def abel_schedulers(draw):
    s = AbelScheduler(base_lr=draw(positive), decay_factor=draw(unit),
                      total_epochs=draw(st.integers(1, 400)),
                      last_decay_fraction=draw(st.floats(0.01, 1.0)),
                      smoothing_window=draw(st.integers(1, 5)),
                      min_history=draw(st.integers(3, 6)))
    for v in draw(st.lists(st.floats(1e-3, 1e3), max_size=40)):
        if draw(st.integers(0, 9)) == 0:  # a resume with a new budget
            s.retarget(draw(st.integers(1, 400)))
        s.observe_epoch(v)
    return s


@st.composite
def plateau_schedulers(draw):
    p = PlateauScheduler(base_lr=draw(positive), factor=draw(unit),
                         patience=draw(st.integers(0, 20)), threshold=draw(st.floats(0, 1)),
                         mode=draw(st.sampled_from(PLATEAU_MODES)))
    for v in draw(st.lists(metrics, max_size=40)):
        p.observe_epoch(v)
    return p


schedulers = st.one_of(abel_schedulers(), plateau_schedulers())

# free text: a config line must carry it unchanged or the config must refuse it
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)

SCHEDULE_PARAMS = {
    "constant": st.fixed_dictionaries({}),
    "stepwise": st.fixed_dictionaries({"milestones": st.lists(
        st.tuples(st.integers(1, 1000), unit), max_size=4, unique_by=lambda m: m[0]
    ).map(lambda ms: tuple(sorted(ms)))}),
    "cosine": st.fixed_dictionaries({"cosine_form": st.sampled_from(COSINE_FORMS)}),
    "linear": st.fixed_dictionaries({"final_lr": st.floats(0, 10)}),
    "simple": st.fixed_dictionaries({"decay_fraction": st.floats(0.01, 1.0),
                                     "factor": unit}),
    "abel": st.fixed_dictionaries({"decay_factor": unit,
                                   "last_decay_fraction": st.floats(0.01, 1.0),
                                   "smoothing_window": st.integers(1, 10),
                                   "min_history": st.integers(3, 10)}),
    "plateau": st.fixed_dictionaries({"factor": unit, "patience": st.integers(0, 100),
                                      "threshold": st.floats(0, 1),
                                      "mode": st.sampled_from(PLATEAU_MODES)}),
}

datasets = st.one_of(
    st.builds(BlobsSpec, classes=st.integers(2, 10), dim=st.integers(1, 64),
              samples=st.integers(1, 10_000), test_samples=st.integers(1, 10_000),
              label_noise=st.floats(0, 0.99), separation=st.floats(0.01, 10),
              seed=st.integers(0, 2**31)),
    st.builds(SpiralsSpec, samples=st.integers(1, 10_000),
              test_samples=st.integers(1, 10_000), turns=st.floats(0.1, 5),
              jitter=st.floats(0, 1), label_noise=st.floats(0, 0.99),
              seed=st.integers(0, 2**31)),
    st.builds(IdxSpec, path=texts.filter(bool), subsample=st.integers(0, 1000)),
)

optimizers = st.one_of(
    st.builds(OptimizerSpec, kind=st.just("momentum"), momentum=st.floats(0, 0.99)),
    st.builds(OptimizerSpec, kind=st.just("adam"), beta1=unit, beta2=unit,
              eps=st.floats(1e-12, 1e-3)),
)


@st.composite
def configs(draw, kinds=SCHEDULE_KINDS):
    kind = draw(st.sampled_from(kinds))
    epochs = draw(st.integers(1, 2000))
    base_lr = draw(positive)
    schedule = ScheduleSpec(kind=kind, base_lr=base_lr, total_epochs=epochs,
                            warmup_epochs=draw(st.integers(0, 20)),
                            **draw(SCHEDULE_PARAMS[kind]))
    try:
        return ExperimentConfig(
            epochs=epochs, base_lr=base_lr, log_dir=draw(texts), dataset=draw(datasets),
            model=ModelSpec(hidden=tuple(draw(st.lists(st.integers(1, 64), max_size=3))),
                            activation=draw(st.sampled_from(("relu", "tanh"))),
                            normalize=draw(st.booleans()),
                            init_scale=draw(st.floats(0.01, 10))),
            optimizer=draw(optimizers), schedule=schedule,
            seed=draw(st.integers(0, 2**31)), batch_size=draw(st.integers(1, 4096)),
            weight_decay=draw(st.floats(0, 0.1)), label_smoothing=draw(st.floats(0, 0.99)),
            clip_norm=draw(st.floats(0, 100)), checkpoint_every=draw(st.integers(0, 50)),
            log_gw=draw(st.booleans()), eval_batch=draw(st.integers(1, 8192)),
            auto_stop_min_improvement=draw(st.floats(0, 0.1)))
    except ConfigError:
        reject()  # text the line format cannot carry is refused up front


# -- scheduler state -------------------------------------------------------------


@PROPERTY
@given(schedulers)
def test_scheduler_state_round_trip_is_byte_identical(scheduler):
    blob = serialize_scheduler(scheduler)
    assert serialize_scheduler(restore_scheduler(blob)) == blob


@PROPERTY
@given(schedulers)
def test_every_truncation_of_a_scheduler_state_is_refused(scheduler):
    blob = serialize_scheduler(scheduler)
    for cut in range(len(blob)):
        with pytest.raises(StateDecodeError):
            restore_scheduler(blob[:cut])


@PROPERTY
@given(schedulers, st.binary(min_size=1, max_size=64))
def test_any_suffix_after_a_scheduler_state_is_refused(scheduler, suffix):
    with pytest.raises(StateDecodeError):
        restore_scheduler(serialize_scheduler(scheduler) + suffix)


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@PROPERTY
@given(schedulers)
def test_every_bit_flip_in_a_scheduler_state_restores_or_is_refused(scheduler):
    blob = serialize_scheduler(scheduler)
    for bit in range(8 * len(blob)):
        try:
            restore_scheduler(_flip(blob, bit))
        except StateDecodeError:
            pass


def _assert_replayed(scheduler):
    """The lr is base_lr carried through the decay log, each event multiplying
    the one before by the factor, and the epoch is the observation count."""
    if isinstance(scheduler, AbelScheduler):
        factor, observed = scheduler.decay_factor, scheduler.norm_history
    else:
        factor, observed = scheduler.factor, scheduler.history
    lr = scheduler.base_lr
    for ev in scheduler.decay_log:
        assert (ev.old_lr, ev.new_lr) == (lr, lr * factor)
        lr = ev.new_lr
    assert scheduler.current_lr == lr
    assert scheduler.epoch == len(observed)


@PROPERTY
@given(schedulers)
def test_every_restored_scheduler_is_its_observations_replayed(scheduler):
    blob = serialize_scheduler(scheduler)
    _assert_replayed(restore_scheduler(blob))
    for data in (_flip(blob, bit) for bit in range(8 * len(blob))):
        try:
            restored = restore_scheduler(data)
        except StateDecodeError:
            continue
        _assert_replayed(restored)
        assert serialize_scheduler(restored) == data


@PROPERTY
@given(schedulers, st.floats())
def test_a_current_lr_off_the_decay_log_is_refused(scheduler, lr):
    """The blob has no field for the current lr: an lr set off the decay log
    leaves the bytes unchanged, and restore gives back the replayed lr."""
    if lr == scheduler.current_lr:
        reject()
    blob, replayed_lr = serialize_scheduler(scheduler), scheduler.current_lr
    scheduler.current_lr = lr
    assert serialize_scheduler(scheduler) == blob
    restored = restore_scheduler(blob)
    _assert_replayed(restored)
    assert restored.current_lr == replayed_lr


@st.composite
def decayed_schedulers(draw):
    """A scheduler with at least one decay: a plateau scheduler of patience 0
    fed a constant metric, or a bounce scheduler fed a zigzag."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        s = PlateauScheduler(base_lr=draw(positive), factor=draw(unit), patience=0)
        trace = [1.0] * (n + 1)
    else:
        s = AbelScheduler(base_lr=draw(positive), decay_factor=draw(unit), total_epochs=400)
        trace = [3.0, 2.0] + [1.0, 2.0] * n + [1.0]
    for v in trace:
        s.observe_epoch(v)
    return s


@PROPERTY
@given(decayed_schedulers(), st.data())
def test_a_decay_event_that_breaks_the_lr_chain_is_refused(scheduler, data):
    """The blob has no field for the decay log: an event edited to break the
    lr chain leaves the bytes unchanged, and restore gives back the replayed
    log."""
    blob, replayed_log = serialize_scheduler(scheduler), list(scheduler.decay_log)
    i = data.draw(st.integers(0, len(scheduler.decay_log) - 1))
    ev = scheduler.decay_log[i]
    field = data.draw(st.sampled_from(("old_lr", "new_lr")))
    value = data.draw(st.floats().filter(lambda v: v != getattr(ev, field)))
    scheduler.decay_log[i] = replace(ev, **{field: value})
    assert serialize_scheduler(scheduler) == blob
    restored = restore_scheduler(blob)
    _assert_replayed(restored)
    assert restored.decay_log == replayed_log


# -- config text -----------------------------------------------------------------


@PROPERTY
@given(configs())
def test_config_text_round_trip_is_identical(config):
    text = format_config(config)
    assert format_config(parse_config(text)) == text


@pytest.mark.parametrize("log_dir", ["runs/a#b", "runs/a\nseed = 3", "runs/a\u2028b",
                                     " runs", "runs\t"])
def test_log_dir_a_config_line_cannot_carry_is_refused(log_dir):
    with pytest.raises(ConfigError):
        ExperimentConfig(epochs=1, base_lr=0.1, log_dir=log_dir, dataset=BlobsSpec())
    with pytest.raises(ConfigError):
        ExperimentConfig(epochs=1, base_lr=0.1, log_dir="runs",
                         dataset=IdxSpec(path=log_dir))


# -- checkpoints -----------------------------------------------------------------

ARCH = ModelArch(input_dim=3, hidden=(4,), classes=2)


@st.composite
def checkpoints(draw):
    """Config and state of a checkpoint: a small MLP, any optimizer, any schedule."""
    scheduler = draw(st.one_of(st.none(), abel_schedulers(), plateau_schedulers()))
    kinds = {AbelScheduler: ("abel",), PlateauScheduler: ("plateau",)}.get(
        type(scheduler), ("constant", "stepwise", "cosine", "linear", "simple"))
    config = draw(configs(kinds))
    params = Model(ARCH).init_params(draw(st.integers(0, 1000)))
    if config.optimizer.kind == "momentum":
        opt = MomentumState.init(params, mu=config.optimizer.momentum)
    else:
        opt = AdamState.init(params, beta1=config.optimizer.beta1,
                             beta2=config.optimizer.beta2, eps=config.optimizer.eps)
        opt = replace(opt, t=draw(st.integers(0, 2**40)))
    state = RunState(epoch=draw(st.integers(0, 2**32 - 1)),
                     global_step=draw(st.integers(0, 2**64 - 1)), params=params, opt=opt,
                     scheduler=scheduler,
                     test_errors=tuple(draw(st.lists(st.floats(0, 1), max_size=40))))
    return config, state


def _saved(tmp_path, config, state) -> bytes:
    path = tmp_path / "saved.ckpt"
    save_checkpoint(path, config, state)
    return path.read_bytes()


@PROPERTY
@given(checkpoints())
def test_checkpoint_save_load_save_is_byte_identical(tmp_path, checkpoint):
    data = _saved(tmp_path, *checkpoint)
    config, state = load_checkpoint(tmp_path / "saved.ckpt")
    assert _saved(tmp_path, config, state) == data


@PROPERTY
@given(checkpoints(), st.data())
def test_every_truncation_of_a_checkpoint_is_refused(tmp_path, checkpoint, data):
    raw = _saved(tmp_path, *checkpoint)
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


@PROPERTY
@given(checkpoints(), st.binary(min_size=1, max_size=64))
def test_any_suffix_after_a_checkpoint_is_refused(tmp_path, checkpoint, suffix):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_saved(tmp_path, *checkpoint) + suffix)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


@PROPERTY
@given(checkpoints(), st.data())
def test_every_single_bit_flip_of_a_checkpoint_is_refused(tmp_path, checkpoint, data):
    raw = _saved(tmp_path, *checkpoint)
    bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_flip(raw, bit))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


@PROPERTY
@given(st.binary(max_size=256))
def test_a_version_1_checkpoint_is_refused(tmp_path, rest):
    bad = tmp_path / "v1.ckpt"
    bad.write_bytes(b"ABCK" + struct.pack("<H", 1) + rest)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(bad)


def test_resume_from_a_version_1_checkpoint_exits_2(tmp_path, capsys):
    text = format_config(ExperimentConfig(epochs=2, base_lr=0.1, log_dir=str(tmp_path / "run"),
                                          dataset=BlobsSpec())).encode()
    v1 = tmp_path / "v1.ckpt"  # a v1 header: magic, version, config length and text
    v1.write_bytes(b"ABCK" + struct.pack("<HI", 1, len(text)) + text)
    assert cli_main(["resume", str(v1), "--log-dir", str(tmp_path / "resumed")]) == 2
    assert "unsupported checkpoint version 1" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()
