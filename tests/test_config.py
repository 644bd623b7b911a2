import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from abel_sched import (BlobsSpec, ConfigError, ExperimentConfig, IdxSpec, ModelSpec,
                        OptimizerSpec, ScheduleSpec, SpiralsSpec, config_hash, format_config,
                        parse_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
epochs = 100
base_lr = 0.1
log_dir = runs/x
dataset.kind = blobs
"""


def test_minimal_config_fills_documented_defaults():
    config = parse_config(MINIMAL)
    assert config.epochs == 100
    assert config.batch_size == 128
    assert config.weight_decay == 0.0  # omitting lambda disables regularization
    assert config.optimizer.kind == "momentum"
    assert config.optimizer.momentum == 0.9
    assert config.schedule.kind == "constant"
    assert config.schedule.base_lr == 0.1
    assert isinstance(config.dataset, BlobsSpec)


def test_abel_schedule_defaults_mirror_cifar_recipe():
    config = parse_config(MINIMAL + "schedule.kind = abel\n")
    assert config.schedule.decay_factor == 0.2
    assert config.schedule.last_decay_fraction == 0.85
    assert config.schedule.total_epochs == 100
    assert config.schedule.smoothing_window == 1


def test_plateau_defaults():
    config = parse_config(MINIMAL + "schedule.kind = plateau\n")
    assert config.schedule.patience == 10
    assert config.schedule.threshold == 1e-4
    assert config.schedule.mode == "min"


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="dataset.flavour"):
        parse_config(MINIMAL + "dataset.flavour = vanilla\n")


def test_bad_value_is_named():
    with pytest.raises(ConfigError, match="epochs"):
        parse_config("epochs = ten\nbase_lr = 0.1\nlog_dir = x\ndataset.kind = blobs\n")


def test_missing_required_key_is_named():
    with pytest.raises(ConfigError, match="base_lr"):
        parse_config("epochs = 10\nlog_dir = x\ndataset.kind = blobs\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "epochs = 7\n")


def test_out_of_range_value_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("base_lr = 0.1", "base_lr = -1"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "schedule.kind = abel\nschedule.decay_factor = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "optimizer.momentum = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "dataset.label_noise = 1.0\n")


def test_milestones_syntax():
    config = parse_config(MINIMAL + "schedule.kind = stepwise\n"
                          "schedule.milestones = 30:0.1, 60:0.1\n")
    assert config.schedule.milestones == ((30, 0.1), (60, 0.1))


@pytest.mark.parametrize("extra", [
    "",
    "schedule.kind = abel\nschedule.smoothing_window = 5\n",
    "schedule.kind = stepwise\nschedule.milestones = 60:0.2,120:0.2,160:0.2\n",
    "schedule.kind = cosine\nschedule.cosine_form = half\nschedule.warmup_epochs = 5\n",
    "schedule.kind = simple\nschedule.decay_fraction = 0.9\nschedule.factor = 0.1\n",
    "schedule.kind = plateau\nschedule.patience = 7\nschedule.mode = max\n",
    "optimizer.kind = adam\noptimizer.beta1 = 0.95\n",
    # a key of the other optimizer kind is not part of the config
    "optimizer.kind = momentum\noptimizer.beta1 = 0.5\n",
    "dataset.kind = spirals\ndataset.samples = 512\n",
    "model.kind = conv\nmodel.hidden = 4,6\nmodel.input_shape = 1,8,8\n",
    "model.normalize = true\nmodel.activation = tanh\nmodel.init_scale = 4.0\n",
    "clip_norm = 5.0\nlabel_smoothing = 0.1\nauto_stop.min_improvement = 0.005\n",
])
def test_round_trip(extra):
    text = MINIMAL.replace("dataset.kind = blobs\n", "") \
        if "dataset.kind" in extra else MINIMAL
    config = parse_config(text + extra)
    assert parse_config(format_config(config)) == config


def test_round_trip_idx():
    config = parse_config("epochs = 5\nbase_lr = 0.5\nlog_dir = r\n"
                          "dataset.kind = idx\ndataset.path = /data/mnist\n"
                          "dataset.subsample = 100\n")
    assert isinstance(config.dataset, IdxSpec)
    assert parse_config(format_config(config)) == config


def test_config_hash_tracks_content():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL)
    c = parse_config(MINIMAL.replace("epochs = 100", "epochs = 101"))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_equal_configs_that_format_differently_each_get_their_own_text():
    """format_config remembers its last text by identity: 0.0 == -0.0 and
    4 == 4.0, but each pair formats differently."""
    negative = parse_config(MINIMAL + "weight_decay = -0.0\n")
    positive = parse_config(MINIMAL + "weight_decay = 0.0\n")
    as_int = replace(positive, clip_norm=4)
    as_float = replace(positive, clip_norm=4.0)
    assert negative == positive and as_int == as_float
    for _ in range(2):
        assert "weight_decay = -0.0\n" in format_config(negative)
        assert "weight_decay = 0.0\n" in format_config(positive)
        assert format_config(as_int) != format_config(as_float)
    assert config_hash(negative) != config_hash(positive)


def test_comments_and_blank_lines_ignored():
    config = parse_config("# a comment\n\nepochs = 10  # trailing\nbase_lr = 0.1\n"
                          "log_dir = x\ndataset.kind = blobs\n")
    assert config.epochs == 10


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(MINIMAL + "this is not an assignment\n")


@pytest.mark.parametrize("schedule_lr, schedule_epochs", [(1.0, 20), (1.0, 10), (4.0, 20)])
def test_schedule_must_agree_with_the_top_level_lr_and_budget(schedule_lr, schedule_epochs):
    """The config text carries one base_lr and one budget; a schedule with its
    own would resume from a checkpoint as a different schedule."""

    def config(base_lr, total):
        return ExperimentConfig(
            epochs=10, base_lr=4.0, log_dir="runs/x", dataset=BlobsSpec(),
            schedule=ScheduleSpec(kind="cosine", base_lr=base_lr, total_epochs=total))

    with pytest.raises(ConfigError):
        config(schedule_lr, schedule_epochs)
    agreed = config(4.0, 10)
    assert parse_config(format_config(agreed)) == agreed


def test_default_schedule_round_trips():
    config = ExperimentConfig(epochs=7, base_lr=0.3, log_dir="runs/x", dataset=BlobsSpec())
    assert config.schedule.total_epochs == 7
    assert parse_config(format_config(config)) == config


FLOAT_KEYS = ("base_lr", "weight_decay", "label_smoothing", "clip_norm",
              "auto_stop.min_improvement", "dataset.label_noise", "dataset.separation",
              "dataset.turns", "dataset.jitter", "model.init_scale", "optimizer.momentum",
              "optimizer.beta1", "optimizer.beta2", "optimizer.eps", "schedule.final_lr",
              "schedule.decay_fraction", "schedule.factor", "schedule.decay_factor",
              "schedule.last_decay_fraction", "schedule.threshold")


def test_float_keys_are_every_float_in_the_schema():
    from abel_sched.config import _FLOAT, _SCHEMA

    assert set(FLOAT_KEYS) == {key for key, (parser, _) in _SCHEMA.items() if parser is _FLOAT}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("key", FLOAT_KEYS + ("schedule.milestones",))
def test_non_finite_floats_are_refused(key, value):
    # clip_norm = nan would turn clipping off, schedule.threshold = nan would
    # make a plateau run decay while its metric improves
    base = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith(key + " "))
    text = f"{key} = 60:{value}" if key == "schedule.milestones" else f"{key} = {value}"
    with pytest.raises(ConfigError, match=key):
        parse_config(base + "\n" + text + "\n")


@pytest.mark.parametrize("key, value", [
    ("optimizer.beta1", "1.0"), ("optimizer.beta1", "-0.1"), ("optimizer.beta2", "1.0"),
    ("optimizer.beta2", "1.5"), ("optimizer.eps", "-1e-8"), ("eval_batch", "0"),
    ("eval_batch", "-1"),
])
def test_out_of_range_adam_and_eval_settings_are_refused(key, value):
    # beta2 = 1 zeroes Adam's bias correction, which a run reported as a
    # divergence; eval_batch < 1 failed or logged test error 0 after the
    # run had made its log dir
    with pytest.raises(ConfigError, match=key.split(".")[-1]):
        parse_config(MINIMAL + f"optimizer.kind = adam\n{key} = {value}\n")


def test_adam_settings_at_their_bounds_are_accepted():
    config = parse_config(MINIMAL + "optimizer.kind = adam\noptimizer.beta1 = 0.0\n"
                          "optimizer.beta2 = 0.0\noptimizer.eps = 0.0\neval_batch = 1\n")
    assert (config.optimizer.beta1, config.optimizer.beta2, config.optimizer.eps) == (0, 0, 0)
    assert config.eval_batch == 1


@pytest.mark.parametrize("key", ["seed", "dataset.seed"])
def test_a_negative_seed_is_refused(key):
    # numpy's generators refuse a negative seed with a bare ValueError
    # traceback, after the run has made its log dir
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        parse_config(MINIMAL + f"{key} = -1\n")
    assert parse_config(MINIMAL + f"{key} = 0\n")


def test_a_negative_seed_is_refused_on_replace():
    config = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        replace(config, seed=-1)


def test_the_section_table_gives_every_field_one_schema_key():
    """A field or key added in one place and not the other fails here by name."""
    from abel_sched.config import _SCHEMA, _SECTIONS

    keys_of: dict[tuple[type, str], set[str]] = {}
    for kinds in _SECTIONS.values():
        for entry in kinds.values():
            for name, key in entry.keys:
                keys_of.setdefault((entry.spec, name), set()).add(key)
    # sections are not keys; the schedule takes base_lr and total_epochs from the top level
    exempt = {(ExperimentConfig, name) for name in ("dataset", "model", "optimizer", "schedule")}
    exempt |= {(ScheduleSpec, "base_lr"), (ScheduleSpec, "total_epochs")}
    for spec in (ExperimentConfig, BlobsSpec, SpiralsSpec, IdxSpec, ModelSpec, OptimizerSpec,
                 ScheduleSpec):
        for f in fields(spec):
            if (spec, f.name) in exempt:
                assert (spec, f.name) not in keys_of
                continue
            keys = keys_of.get((spec, f.name), set())
            assert len(keys) == 1, f"{spec.__name__}.{f.name} has the keys {keys}"
            assert keys <= set(_SCHEMA), f"{spec.__name__}.{f.name}: {keys} not in _SCHEMA"
    # dataset.kind selects the spec class and is no field of it
    mapped = set().union(*keys_of.values())
    assert set(_SCHEMA) - mapped == {"dataset.kind"}


SHIPPED_CONFIG_HASHES = {
    "blobs_abel": "754f3b222d7052801f8f45006cfb2e3bcd02a1028f5be3c432731096a7262d1f",
    "blobs_cosine": "3b8016a2c16f331b82b57e69c908f4614a12da8a0a7b8c35e1bd18ce4ec4e042",
    "blobs_simple": "e7cbc283effc32a28e91bb98af567f4afe94b7a96b725f1d05470753dc31b697",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_HASHES))
def test_shipped_configs_keep_their_canonical_bytes(name):
    """config.txt, meta.json's config_hash and every checkpoint embed this text;
    a round trip alone would let its bytes drift."""
    assert sorted(p.stem for p in CONFIGS.glob("*.txt")) == sorted(SHIPPED_CONFIG_HASHES)
    config = parse_config((CONFIGS / f"{name}.txt").read_text())
    assert config_hash(config) == SHIPPED_CONFIG_HASHES[name]


# key -> a parsed MINIMAL config with that key's value replaced in Python
PYTHON_BUILT = {
    "weight_decay": lambda c, v: replace(c, weight_decay=v),
    "clip_norm": lambda c, v: replace(c, clip_norm=v),
    "auto_stop.min_improvement": lambda c, v: replace(c, auto_stop_min_improvement=v),
    "dataset.separation": lambda c, v: replace(c, dataset=replace(c.dataset, separation=v)),
    "dataset.turns": lambda c, v: replace(c, dataset=SpiralsSpec(turns=v)),
    "dataset.jitter": lambda c, v: replace(c, dataset=SpiralsSpec(jitter=v)),
    "model.init_scale": lambda c, v: replace(c, model=replace(c.model, init_scale=v)),
    "optimizer.eps": lambda c, v: replace(c, optimizer=OptimizerSpec(kind="adam", eps=v)),
    "schedule.final_lr": lambda c, v: replace(
        c, schedule=replace(c.schedule, kind="linear", final_lr=v)),
    "schedule.threshold": lambda c, v: replace(
        c, schedule=replace(c.schedule, kind="plateau", threshold=v)),
}


@pytest.mark.parametrize("key", sorted(PYTHON_BUILT))
def test_python_built_configs_refuse_infinite_floats(key):
    """Each passed its range check and made a config whose text parse_config
    refuses, so its checkpoints could not be resumed."""
    config = parse_config(MINIMAL)
    assert PYTHON_BUILT[key](config, 0.5)
    with pytest.raises(ConfigError, match=re.escape(key)):
        PYTHON_BUILT[key](config, math.inf)


def test_an_optimizer_kind_the_text_cannot_carry_is_refused():
    with pytest.raises(ConfigError, match="optimizer.kind"):
        ExperimentConfig(epochs=1, base_lr=0.1, log_dir="runs", dataset=BlobsSpec(),
                         optimizer=OptimizerSpec(kind="sgd"))
