import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abel_sched import (
    AdamState,
    Layout,
    Model,
    ModelArch,
    MomentumState,
    NumericError,
    ParamSet,
    StepStats,
    angle_cos_sin,
    inner_gw,
    load_checkpoint,
    loss_ce,
    save_checkpoint,
    weight_norm_sq,
)
from abel_sched.runner import RunState, build_model, run_experiment

from helpers import (
    gradcheck_worst_rel_err,
    param_set,
    ref_mlp_loss_and_grads,
    standard_config,
    strip_wall_ms,
)

MLP_RELU = ModelArch(input_dim=10, hidden=(16, 8), classes=4)
MLP_NORM = ModelArch(input_dim=10, hidden=(16, 8), classes=4, activation="tanh",
                     normalize=True)
CONV = ModelArch(input_dim=64, hidden=(4, 6), classes=3, kind="conv",
                 activation="tanh", input_shape=(1, 8, 8))


# -- loss ------------------------------------------------------------------


def test_uniform_logits_loss_is_log_classes():
    logits = np.zeros((5, 7))
    labels = np.arange(5) % 7
    assert loss_ce(logits, labels) == pytest.approx(math.log(7), rel=1e-12)


def test_label_smoothing_two_class_hand_computed():
    z = 3.0
    logits = np.array([[z, 0.0]])
    labels = np.array([0])
    s = 0.1
    p0 = math.exp(z) / (math.exp(z) + 1.0)
    expected = -(1 - s) * math.log(p0) - s * math.log(1.0 - p0)
    assert loss_ce(logits, labels, s) == pytest.approx(expected, rel=1e-12)


def test_zero_smoothing_equals_plain_cross_entropy():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(32, 5))
    labels = rng.integers(0, 5, size=32)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    plain = -logp[np.arange(32), labels].mean()
    assert loss_ce(logits, labels, 0.0) == pytest.approx(plain, rel=1e-12)


def test_loss_input_validation():
    with pytest.raises(ValueError):
        loss_ce(np.zeros((3, 4)), np.array([0, 1]), 0.0)
    with pytest.raises(ValueError):
        loss_ce(np.zeros((2, 3)), np.array([0, 3]), 0.0)
    with pytest.raises(ValueError):
        loss_ce(np.zeros((2, 3)), np.array([0, 1]), 1.0)


# -- gradients ---------------------------------------------------------------


@pytest.mark.parametrize("arch", [MLP_RELU, MLP_NORM, CONV],
                         ids=["mlp-relu", "mlp-normalized", "convnet"])
def test_gradients_match_central_differences(arch):
    worst, total = gradcheck_worst_rel_err(arch, seed=0)
    assert total >= 100
    assert worst < 1e-5


def test_duplicated_sample_batch_equals_single_sample_gradient():
    model = Model(MLP_RELU)
    params = model.init_params(3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 10))
    y = np.array([2])
    _, g_one = model.loss_and_grad(params, x, y)
    _, g_dup = model.loss_and_grad(params, np.repeat(x, 6, axis=0), np.repeat(y, 6))
    for name in g_one:
        np.testing.assert_allclose(g_dup[name], g_one[name], rtol=1e-12, atol=1e-15)


def test_zero_output_weights_block_upstream_gradients():
    model = Model(MLP_RELU)
    params = model.init_params(5)
    params["out.w"][:] = 0.0
    rng = np.random.default_rng(6)
    _, grads = model.loss_and_grad(params, rng.normal(size=(8, 10)),
                                   rng.integers(0, 4, 8))
    for name in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"):
        assert np.all(grads[name] == 0.0)
    assert np.any(grads["out.w"] != 0.0)


def test_non_finite_forward_raises_numeric_error():
    model = Model(MLP_RELU)
    params = model.init_params(0)
    params["fc1.w"][:] = 1e308
    x = np.full((2, 10), 1e5)
    with pytest.raises(NumericError):
        model.loss_and_grad(params, x, np.array([0, 1]))


# -- initialization ------------------------------------------------------------


def test_init_deterministic_in_seed():
    model = Model(MLP_RELU)
    a = model.init_params(11)
    b = model.init_params(11)
    c = model.init_params(12)
    for la, lb in zip(a.values(), b.values()):
        np.testing.assert_array_equal(la, lb)
    assert any(not np.array_equal(la, lc) for la, lc in zip(a.values(), c.values()))


def test_init_scale_scales_total_norm_quadratically():
    model = Model(MLP_RELU)
    full, _ = weight_norm_sq(model.init_params(2, init_scale=1.0))
    half, _ = weight_norm_sq(model.init_params(2, init_scale=0.5))
    assert half == pytest.approx(full / 4.0, rel=1e-12)


def test_biases_start_at_zero_and_are_not_l2_flagged():
    params = Model(MLP_RELU).init_params(0)
    for (name, value), l2 in zip(params.items(), params.layout.l2):
        if name.endswith(".b"):
            assert np.all(value == 0.0)
            assert not l2
        else:
            assert l2


def test_conv_init_shapes():
    params = Model(CONV).init_params(0)
    assert params["conv1.w"].shape == (4, 1, 3, 3)
    assert params["conv2.w"].shape == (6, 4, 3, 3)
    assert params["out.w"].shape == (3, 6 * 2 * 2)


# -- norms, inner products, angles ----------------------------------------------


def test_weight_norm_additivity():
    params = param_set([("a", (1,), True, False), ("b", (1,), False, False)],
                       {"a": [np.sqrt(3.0)], "b": [2.0]})
    total, per_layer = weight_norm_sq(params)
    assert total == pytest.approx(7.0)
    assert per_layer == {"a": pytest.approx(3.0), "b": pytest.approx(4.0)}
    l2_total, l2_layers = weight_norm_sq(params, include="l2_only")
    assert l2_total == pytest.approx(3.0) and "b" not in l2_layers


def test_per_layer_norms_nonnegative_zero_iff_zero():
    params = param_set([("z", (3, 3), True, False), ("w", (2,), True, False)],
                       {"z": np.zeros((3, 3)), "w": np.ones(2)})
    _, per_layer = weight_norm_sq(params)
    assert per_layer["z"] == 0.0 and per_layer["w"] > 0.0


def test_inner_gw_identity_and_additivity():
    rng = np.random.default_rng(0)
    params = param_set([("a", (4, 3), True, False), ("b", (5,), True, False)],
                       {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5)})
    grads = {"a": params["a"].copy(), "b": params["b"].copy()}
    total, per_layer = inner_gw(params, grads)
    wsq, _ = weight_norm_sq(params)
    assert total == pytest.approx(wsq, rel=1e-12)
    assert total == pytest.approx(sum(per_layer.values()), rel=1e-15)


def test_scale_invariant_layers_have_orthogonal_gradients():
    model = Model(MLP_NORM)
    params = model.init_params(9)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(16, 10))
    y = rng.integers(0, 4, 16)
    base = model.forward(params, x)
    for alpha in (0.5, 2.0, 10.0):
        scaled = ParamSet(params.layout, params.flat * alpha)
        np.testing.assert_allclose(model.forward(scaled, x), base, rtol=0, atol=1e-10)
    _, grads = model.loss_and_grad(params, x, y)
    assert all(invariant for _, _, _, invariant in params.layout.specs)
    for name, value in params.items():
        g = grads[name]
        gw = abs(float(np.dot(g.ravel(), value.ravel())))
        assert gw < 1e-6 * np.linalg.norm(g) * np.linalg.norm(value)


def test_angle_trivial_cases():
    rng = np.random.default_rng(1)
    params = param_set([("a", (3, 3), True, False)], {"a": rng.normal(size=(3, 3))})
    cos, sin = angle_cos_sin(params, params.copy())
    assert cos == pytest.approx(1.0) and sin == pytest.approx(0.0, abs=1e-12)
    cos, sin = angle_cos_sin(params, ParamSet(params.layout, params.flat * 2.0))
    assert cos == pytest.approx(1.0) and sin == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        angle_cos_sin(params, ParamSet(params.layout, params.flat * 0.0))


def test_a_layout_rejects_mismatched_values():
    layout = Layout((("a", (3,), True, False),))
    with pytest.raises(ValueError):
        layout.pack({"b": np.zeros(3)})
    with pytest.raises(ValueError):
        layout.pack({"a": np.zeros(4)})
    with pytest.raises(ValueError):
        Layout((("a", (1,), True, False), ("a", (1,), True, False)))


def test_arch_validation():
    with pytest.raises(ValueError):
        ModelArch(input_dim=4, hidden=(), classes=2)
    with pytest.raises(ValueError):
        ModelArch(input_dim=4, hidden=(3,), classes=2, init_scale=0.0)
    with pytest.raises(ValueError):
        ModelArch(input_dim=4, hidden=(3,), classes=2, activation="gelu")
    with pytest.raises(ValueError):
        ModelArch(input_dim=64, hidden=(4, 4), classes=2, kind="conv",
                  input_shape=(1, 4, 4))  # 4x4 can't take two 3x3 valid convs
    with pytest.raises(ValueError):
        ModelArch(input_dim=60, hidden=(4, 4), classes=2, kind="conv",
                  input_shape=(1, 8, 8))  # shape does not multiply out
    with pytest.raises(ValueError):
        ModelArch(input_dim=64, hidden=(4, 4), classes=2, kind="conv",
                  input_shape=(1, 8, 8), normalize=True)


@pytest.mark.parametrize("kind, hidden", [("mlp", (32, 0)), ("mlp", (32, -4)), ("mlp", (0,)),
                                          ("conv", (4, 0)), ("conv", (-1, 6))], ids=str)
def test_widths_and_channel_counts_below_1_are_refused(kind, hidden):
    """A width of 0 failed in init_params with a ZeroDivisionError, a negative
    one with numpy's "negative dimensions"."""
    shape = dict(kind="conv", input_dim=64, input_shape=(1, 8, 8)) if kind == "conv" else {}
    with pytest.raises(ValueError, match="must be >= 1"):
        ModelArch(**{"input_dim": 4, **shape}, hidden=hidden, classes=2)


def test_avgpool_matches_hand_computation():
    from abel_sched.models import _avgpool2
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    pooled = _avgpool2(x)
    expected = np.array([[[[2.5, 4.5], [10.5, 12.5]]]])
    np.testing.assert_array_equal(pooled, expected)


# -- evaluation ------------------------------------------------------------------


def _chunked_error(model, params, x, y, batch_size):
    """The unscreened reference: argmax of every chunk's float64 forward pass."""
    wrong = 0
    for start in range(0, x.shape[0], batch_size):
        logits = model.forward(params, x[start:start + batch_size])
        wrong += int(np.count_nonzero(logits.argmax(axis=1) != y[start:start + batch_size]))
    return wrong / x.shape[0]


@pytest.mark.parametrize("arch", [
    MLP_NORM, MLP_RELU, CONV,
    ModelArch(input_dim=10, hidden=(16, 8), classes=4, activation="relu", normalize=True),
    ModelArch(input_dim=10, hidden=(16, 8), classes=4, activation="tanh"),
], ids=["mlp-normalized", "mlp-relu", "convnet", "mlp-relu-normalized", "mlp-tanh"])
@pytest.mark.parametrize("batch_size", [1024, 1000, 8192, 10000])
def test_error_rate_equals_chunked_forward_count(arch, batch_size):
    """Chunks that fill, do not fill (a partial last chunk) and exceed the input."""
    model = Model(arch)
    params = model.init_params(3)
    rng = np.random.default_rng(4)
    n = 8192
    x = rng.normal(size=(n, arch.input_dim))
    y = rng.integers(0, arch.classes, n)
    want = _chunked_error(model, params, x, y, batch_size)
    assert 0 < want < 1
    assert model.error_rate(params, model.eval_set(x, y), batch_size=batch_size) == want


# -- the flat layout ---------------------------------------------------------------


def test_layers_are_views_into_one_flat_vector():
    params = Model(MLP_RELU).init_params(0)
    offset = 0
    for value in params.values():
        size = value.size
        assert np.shares_memory(value, params.flat)
        np.testing.assert_array_equal(params.flat[offset:offset + size], value.ravel())
        offset += size
    assert offset == params.flat.size
    params["fc1.b"][:] = 7.0  # in-place edits reach the flat vector
    assert np.count_nonzero(params.flat == 7.0) == params["fc1.b"].size
    with pytest.raises(TypeError):
        params["fc1.b"] = np.zeros(16)  # rebinding would detach the view
    # copies and scaled sets own their vectors
    assert not np.shares_memory(params.copy().flat, params.flat)
    assert not np.shares_memory(ParamSet(params.layout, params.flat * 2.0).flat, params.flat)


@pytest.mark.parametrize("arch", [MLP_NORM, MLP_RELU, CONV],
                         ids=["normalized", "with-biases", "conv"])
def test_an_init_draws_into_the_models_own_layout(arch):
    model = Model(arch)
    assert model.init_params(0).layout is model.layout
    assert model.init_params(1, init_scale=2.0).layout is model.layout


_SPECS = st.lists(st.tuples(st.lists(st.integers(1, 4), max_size=3).map(tuple),
                            st.booleans(), st.booleans()), min_size=1, max_size=6).map(
    lambda layers: tuple((f"t{i}", *layer) for i, layer in enumerate(layers)))


@settings(max_examples=60, deadline=None)
@given(specs=_SPECS, data=st.data())
def test_a_param_set_maps_names_to_views_of_its_own_vector(specs, data):
    """Over random layouts, in a random name order."""
    layout = Layout(specs)
    names = tuple(data.draw(st.permutations(layout.names)))
    params = ParamSet(layout, np.arange(layout.size, dtype=np.float64), names)
    assert list(params) == list(names) and len(params) == len(specs)
    for name, shape, _, _ in specs:
        view = params[name]
        assert view.shape == shape and np.shares_memory(view, params.flat)
        assert np.array_equal(view.ravel(), params.flat[layout.slice_of[name]])
    params[names[0]][...] = -1.0  # an in-place edit of a view reaches the vector
    assert np.all(params.flat[layout.slice_of[names[0]]] == -1.0)
    # an equal layout takes the set's own buffer; a plain mapping is checked and packed
    assert Layout(specs).flat_of(params, "value") is params.flat
    plain = {name: params[name].copy() for name in reversed(names)}
    packed = layout.flat_of(plain, "value")
    assert np.array_equal(packed, params.flat) and not np.shares_memory(packed, params.flat)
    with pytest.raises(ValueError):
        layout.flat_of({**plain, names[0]: np.zeros(params[names[0]].size + 1)}, "value")
    # a copy keeps the names' order over a vector of its own
    copy = params.copy()
    assert copy.names == names and list(copy) == list(names)
    assert np.array_equal(copy.flat, params.flat) and not np.shares_memory(copy.flat, params.flat)
    assert all(np.shares_memory(copy[name], copy.flat) for name in names)
    # sets compare by identity, so comparing optimizer states never compares arrays
    for init in (MomentumState.init, AdamState.init):
        state = init(params)
        assert state == state and state != init(params)


def test_gradients_share_the_parameter_layout():
    model = Model(MLP_RELU)
    params = model.init_params(0)
    rng = np.random.default_rng(1)
    _, grads = model.loss_and_grad(params, rng.normal(size=(4, 10)), rng.integers(0, 4, 4))
    assert grads.layout is params.layout
    for name, value in params.items():
        assert grads[name].shape == value.shape
        assert np.shares_memory(grads[name], grads.flat)


def _loss_with_row_max_along_rows(logits, labels, label_smoothing):
    """The loss and logit gradients with the row max taken as logits.max(axis=1)."""
    n, c = logits.shape
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    logp = logits - (np.log(s) + m)
    q = np.full((n, c), label_smoothing / (c - 1))
    q[np.arange(n), labels] = 1.0 - label_smoothing
    return float(-(q * logp).sum() / n), (e / s - q) / n


@pytest.mark.parametrize("classes", [2, 4, 10, 100])
def test_loss_is_bit_equal_to_the_row_max_formula(classes):
    from abel_sched.models import _dlogits, _targets

    rng = np.random.default_rng(classes)
    logits = rng.normal(scale=3.0, size=(128, classes))
    logits[:8] = rng.normal(size=8)[:, None]  # rows of ties
    logits[8:16, :2] = [[0.0, -0.0]] * 8      # +-0 ties at the row max
    logits[8:16, 2:] = -1.0
    logits[16:24, :2] = [[-0.0, 0.0]] * 8
    logits[16:24, 2:] = -1e3                  # far below: exp underflows to 0
    labels = rng.integers(0, classes, 128)
    for smoothing in (0.0, 0.1):
        stats = StepStats(128, classes)
        cols, row_max, row_sum = stats.record(128)
        targets = _targets(labels, classes, smoothing)
        dlogits = _dlogits(logits.copy(), targets, cols, row_max, row_sum,
                           np.empty((classes, 128)))
        assert np.array_equal(stats.class_logits, logits.T)
        (loss, _, _), = stats.reduce(targets, labels)
        ref_loss, ref_dlogits = _loss_with_row_max_along_rows(logits, labels, smoothing)
        assert loss == ref_loss
        assert np.array_equal(dlogits, ref_dlogits)
        assert np.array_equal(np.signbit(dlogits), np.signbit(ref_dlogits))


@settings(max_examples=80, deadline=None)
@given(classes=st.one_of(st.integers(2, 20), st.sampled_from([100, 129])),
       rows=st.integers(1, 300), spread=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(classes=4, rows=1, spread=30, seed=0)
@example(classes=7, rows=128, spread=30, seed=1)
@example(classes=8, rows=128, spread=30, seed=2)
@example(classes=129, rows=3, spread=30, seed=3)
def test_the_class_major_row_sum_is_numpys_row_sum(classes, rows, spread, seed):
    """The softmax sums each row of its class-major ``exp(logits - max)``
    as ``np.add.reduce(e, axis=1)`` sums the row-major array, bit for bit:
    in order below 8 classes, pairwise from 8 on (129 classes is one
    pairwise block of 128 past the first entry). Entries of mixed signs and
    magnitudes make every other order of the adds show."""
    from abel_sched.models import _row_sums

    rng = np.random.default_rng(seed)
    e = rng.normal(size=(rows, classes)) * 2.0 ** rng.integers(-spread, spread + 1,
                                                               (rows, classes))
    want = np.add.reduce(e, axis=1)
    cols = np.ascontiguousarray(e.T)
    got = _row_sums(cols, np.empty((rows, classes)), np.empty(rows))
    assert _same_bits(got, want)
    assert np.array_equal(cols, e.T)  # the class-major input is left as it was


def test_lazy_layer_views_alias_the_flat_vector():
    params = Model(MLP_NORM).init_params(0)
    lazy = ParamSet(params.layout, params.flat)
    items = dict(lazy.items())
    for name, value in zip(lazy, lazy.values()):
        assert np.shares_memory(value, params.flat)
        assert np.shares_memory(items[name], params.flat)
    assert lazy["fc1.w"] is lazy["fc1.w"]  # built once, then reused
    lazy["out.w"][0, 0] = 123.0
    assert params["out.w"][0, 0] == 123.0  # in-place edits reach every view
    assert list(lazy) == list(lazy.names) == list(lazy.layout.names)


# -- the slot table ----------------------------------------------------------------


def _step_outputs(model, params, x, y):
    loss, grads, error = model.batch_stats(params, model.train_set(x, y, 0.1))
    return (loss, {name: grads[name].copy() for name in grads}, error,
            model.error_rate(params, model.eval_set(x, y)))


def _assert_bit_identical(got, want):
    assert got[0] == want[0] and got[2] == want[2] and got[3] == want[3]
    assert list(got[1]) == list(want[1])
    for name in want[1]:
        assert np.array_equal(got[1][name], want[1][name]), name


def test_the_slot_table_follows_the_layout_object(tmp_path):
    """One model alternating between the equal layouts of an init and of a
    checkpoint load computes what a fresh model computes for each."""
    config = standard_config("constant", epochs=1, log_dir=str(tmp_path / "run"))
    model, data = build_model(config)
    init = model.init_params(config.seed)
    state = RunState(epoch=0, global_step=0, params=ParamSet(init.layout, init.flat * 0.5),
                     opt=MomentumState.init(init, mu=0.0), scheduler=None,
                     test_errors=())
    save_checkpoint(tmp_path / "saved.ckpt", config, state)
    loaded = load_checkpoint(tmp_path / "saved.ckpt")[1].params
    assert loaded.layout == init.layout and loaded.layout is not init.layout
    x, y = data["train"][0][:128], data["train"][1][:128]
    for params in (init, loaded, init, loaded):
        _assert_bit_identical(_step_outputs(model, params, x, y),
                              _step_outputs(Model(model.arch), params, x, y))


@pytest.mark.parametrize("arch", [MLP_NORM, MLP_RELU], ids=["normalized", "with-biases"])
def test_the_slot_table_is_rebuilt_for_a_reordered_layout(arch):
    """The same tensors in another layer order sit at other slices; a model
    that served the first layout's slots would read the wrong weights."""
    model = Model(arch)
    params = model.init_params(5)
    reordered = param_set(params.layout.specs[::-1], params)
    assert reordered.layout.slices != params.layout.slices
    rng = np.random.default_rng(6)
    x = rng.normal(size=(32, arch.input_dim))
    y = rng.integers(0, arch.classes, 32)
    want = _step_outputs(Model(arch), params, x, y)
    for p in (params, reordered, params, reordered):
        _assert_bit_identical(_step_outputs(model, p, x, y), want)


@pytest.mark.parametrize("reordered", [False, True], ids=["layout", "reordered"])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("hidden", [(32, 16), (7,), (64, 32, 16), (1,)], ids=str)
@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "with-biases"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_the_step_matches_the_per_layer_reference_bit_for_bit(
        activation, normalize, hidden, batch, smoothing, reordered):
    """The whole-vector normalize and pull-back, the in-place activation
    derivative and the direct ufunc reductions change no float of the step.
    Hidden width 1 runs on inputs of width 1, so every weight row is a
    reduceat segment of one entry."""
    input_dim = 1 if hidden == (1,) else 20
    arch = ModelArch(input_dim=input_dim, hidden=hidden, classes=4, activation=activation,
                     normalize=normalize, init_scale=4.0 if normalize else 1.0)
    model = Model(arch)
    params = model.init_params(3)
    if reordered:
        params = param_set(params.layout.specs[::-1], params)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, input_dim))
    y = rng.integers(0, 4, batch)
    loss, grads, error = model.batch_stats(params, model.train_set(x, y, smoothing))
    want_loss, want_grads, want_error = ref_mlp_loss_and_grads(arch, params, x, y, smoothing)
    assert loss == want_loss and error == want_error
    assert set(grads) == set(want_grads) == set(params)
    for name in want_grads:
        assert np.array_equal(grads[name], want_grads[name]), name


@settings(max_examples=40, deadline=None)
@given(classes=st.integers(2, 20), batch=st.integers(1, 1100), full=st.integers(1, 3),
       rest=st.integers(0, 1099), smoothing=st.sampled_from([0.0, 0.1]),
       normalize=st.booleans())
@example(classes=10, batch=1000, full=2, rest=300, smoothing=0.1, normalize=False)
@example(classes=20, batch=500, full=1, rest=37, smoothing=0.0, normalize=True)
@example(classes=2, batch=1, full=3, rest=0, smoothing=0.1, normalize=True)
def test_the_epoch_reduction_equals_one_batch_sinks_bit_for_bit(
        classes, batch, full, rest, smoothing, normalize):
    """One sink over an epoch of ``full`` batches and a partial one of
    ``rest % batch`` rows gives every step's loss, error and gradients as a
    sink per step does, and as the per-layer reference computes them; a step
    of more than 8192 products (``batch * classes``) is summed whole, as
    alone."""
    n = full * batch + rest % batch
    arch = ModelArch(input_dim=5, hidden=(6,), classes=classes, activation="tanh",
                     normalize=normalize)
    model = Model(arch)
    params = model.init_params(classes, init_scale=3.0)
    rng = np.random.default_rng([classes, batch, n])
    x = rng.normal(size=(n, 5))
    y = rng.integers(0, classes, n)
    epoch = model.train_set(x, y, smoothing)
    stats = StepStats(n, classes)
    grads = [model.train_step_stats(params, epoch[a:a + batch], stats).flat
             for a in range(0, n, batch)]
    got = list(stats.reduce(epoch.targets, epoch.y))
    alone = [model.batch_stats(params, epoch[a:a + batch]) for a in range(0, n, batch)]
    assert [rows for _, _, rows in got] == [len(epoch[a:a + batch]) for a in range(0, n, batch)]
    assert np.array_equal([loss for loss, _, _ in got], [loss for loss, _, _ in alone])
    assert np.array_equal([error for _, error, _ in got], [error for _, _, error in alone])
    assert all(np.array_equal(g, step[1].flat) for g, step in zip(grads, alone))
    for (loss, error, _), a in zip(got, range(0, n, batch)):
        want_loss, _, want_error = ref_mlp_loss_and_grads(arch, params, x[a:a + batch],
                                                          y[a:a + batch], smoothing)
        assert (loss, error) == (want_loss, want_error)


@settings(max_examples=80, deadline=None)
@given(classes=st.integers(2, 6), sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]), seed=st.integers(0, 2**32 - 1))
@example(classes=2, sizes=[2], bad=None, seed=0)
@example(classes=4, sizes=[3, 1], bad=np.nan, seed=1)
def test_the_reduction_counts_errors_as_argmax_does(classes, sizes, bad, seed):
    """Every finite step's error is the share of rows whose argmax is not
    their label, on rows of tied logits and of +0.0/-0.0 ties at the row
    max; a step holding a non-finite logit, placed after finite ones, raises
    once those are yielded."""
    from abel_sched.models import _softmax_numerators, _targets

    rng = np.random.default_rng(seed)
    n = sum(sizes)
    logits = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(n, classes))
    labels = rng.integers(0, classes, n)
    if n >= 2:  # a signed-zero tie at the max: argmax takes the first zero
        logits[:2] = -1.0
        logits[:2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
        labels[:2] = [1, 0]
    if bad is not None:
        logits[n - 1 - rng.integers(sizes[-1]), rng.integers(classes)] = bad
    stats = StepStats(n, classes)
    with np.errstate(over="ignore", invalid="ignore"):
        for size in sizes:
            cols, row_max, row_sum = stats.record(size)
            _softmax_numerators(logits[stats.filled - size:stats.filled].copy(), cols,
                                row_max, row_sum, np.empty((classes, size)))
    got = []
    if bad is None:
        got = list(stats.reduce(_targets(labels, classes, 0.0), labels))
    else:
        with pytest.raises(NumericError, match="non-finite activations"):
            got.extend(stats.reduce(_targets(labels, classes, 0.0), labels))
    assert len(got) == len(sizes) - (bad is not None)
    start = 0
    for (_, error, rows), size in zip(got, sizes):
        wrong = np.count_nonzero(logits[start:start + size].argmax(axis=1)
                                 != labels[start:start + size])
        assert rows == size and error == wrong / size
        start += size


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("arch", [MLP_NORM, MLP_RELU], ids=["normalized", "relu-with-biases"])
def test_the_kept_buffers_hold_nothing_from_an_earlier_call(arch):
    """One model stepping on 128, 48 and 128 rows over two equal but distinct
    layouts, with a one-batch probe of another size after each step, writes
    every gradient and sink row that a fresh model writes; a returned
    gradient is not changed by later calls."""
    model = Model(arch)
    first = model.init_params(0)
    other = ParamSet(first.layout, model.init_params(1).flat)  # the same layout
    second = param_set(first.layout.specs, model.init_params(2))  # an equal layout, another object
    assert second.layout == first.layout and second.layout is not first.layout
    rng = np.random.default_rng(1)
    x = rng.normal(size=(304, arch.input_dim))
    train = model.train_set(x, rng.integers(0, arch.classes, 304), 0.1)
    steps = [(first, train[:128]), (other, train[128:176]), (second, train[176:])]
    stats = StepStats(304, arch.classes)
    kept = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (params, batch), probe in zip(steps, (other, second, first)):
            grads = model.train_step_stats(params, batch, stats)
            kept.append((grads, grads.flat.copy()))
            _, probed, _ = model.batch_stats(probe, train[:7])
            _, fresh, _ = Model(arch).batch_stats(probe, train[:7])
            assert _same_bits(probed.flat, fresh.flat)
    start = 0
    for (grads, flat), (params, batch) in zip(kept, steps):
        assert _same_bits(grads.flat, flat)
        alone = StepStats(len(batch), arch.classes)
        with np.errstate(over="ignore", invalid="ignore"):
            want = Model(arch).train_step_stats(params, batch, alone)
        assert _same_bits(grads.flat, want.flat)
        rows = slice(start, start + len(batch))
        assert _same_bits(stats.class_logits[:, rows], alone.class_logits)
        assert _same_bits(stats.row_max[rows], alone.row_max)
        assert _same_bits(stats.row_sum[rows], alone.row_sum)
        start += len(batch)


@pytest.mark.parametrize("arch", [MLP_NORM, MLP_RELU, CONV],
                         ids=["normalized", "with-biases", "conv"])
def test_a_layer_beyond_the_models_is_refused(arch):
    """The backward pass writes only the model's own layers, so a stray
    layer's gradient entries were left as uninitialized memory."""
    model = Model(arch)
    params = model.init_params(0)
    extra = param_set(params.layout.specs + (("stray", (3,), False, False),),
                      {**params, "stray": np.zeros(3)})
    x = np.zeros((2, arch.input_dim))
    with pytest.raises(ValueError, match=r"layers the model does not have: \['stray'\]"):
        model.train_step_stats(extra, model.train_set(x, np.array([0, 1])),
                               StepStats(2, arch.classes))


@pytest.mark.parametrize("call", ["forward", "error_rate", "train_step_stats"])
@pytest.mark.parametrize("arch, other, wrong", [
    (replace(MLP_NORM, hidden=(16, 32)), replace(MLP_NORM, hidden=(32, 16)), r"fc1\.w \(32, 10\)"),
    (replace(MLP_RELU, hidden=(16, 32)), replace(MLP_RELU, hidden=(32, 16)), r"fc1\.w \(32, 10\)"),
    (CONV, replace(CONV, hidden=(6, 4)), r"conv1\.w \(6, 1, 3, 3\)"),
], ids=["normalized", "with-biases", "conv"])
def test_parameters_of_other_widths_are_refused(arch, other, wrong, call):
    """The same layer names at other shapes used to run the net the shapes
    describe, e.g. a (32, 16) ParamSet on a (16, 32) model."""
    model = Model(arch)
    params = Model(other).init_params(0)
    assert params.names == model.init_params(0).names
    x, y = np.zeros((4, arch.input_dim)), np.array([0, 1, 2, 0])
    calls = {"forward": lambda: model.forward(params, x),
             "error_rate": lambda: model.error_rate(params, model.eval_set(x, y)),
             "train_step_stats": lambda: model.train_step_stats(params, model.train_set(x, y),
                                                                StepStats(4, arch.classes))}
    with pytest.raises(ValueError, match="shapes differ from the model's: " + wrong):
        calls[call]()


def test_a_missing_layer_is_refused():
    model = Model(MLP_RELU)
    params = model.init_params(0)
    short = param_set([spec for spec in params.layout.specs if spec[0] != "fc1.b"],
                      {name: value for name, value in params.items() if name != "fc1.b"})
    with pytest.raises(ValueError, match=r"lack layers of the model: \['fc1.b'\]"):
        model.forward(short, np.zeros((2, MLP_RELU.input_dim)))


@pytest.mark.parametrize("x_dim, labels, smoothing", [
    (10, [0, 4], 0.0), (10, [-1, 0], 0.0), (9, [0, 1], 0.0), (10, [0, 1], 1.0),
    (10, [0, 1], -0.1), (10, [0.0, 1.0], 0.0)],
    ids=["label-at-classes", "negative-label", "wrong-width", "smoothing-1",
         "negative-smoothing", "float-labels"])
def test_train_set_refuses_what_the_step_used_to(x_dim, labels, smoothing):
    """The step checks nothing, so the training set is checked once, up front."""
    with pytest.raises(ValueError):
        Model(MLP_NORM).train_set(np.zeros((2, x_dim)), np.array(labels), smoothing)


def test_a_train_set_owns_read_only_rows_and_gathers_them_whole():
    model = Model(MLP_NORM)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 10))
    y = rng.integers(0, 4, 9)
    train = model.train_set(x, y, 0.1)
    x[0, 0] = 99.0  # an edit of the caller's rows does not reach the set
    assert train.x[0, 0] != 99.0
    order = rng.permutation(9)
    gathered = train.take(order)
    assert np.array_equal(gathered.x, train.x[order])
    assert np.array_equal(gathered.y, y[order])
    assert np.array_equal(gathered.targets, np.where(np.eye(4)[y[order]] == 1, 0.9, 0.1 / 3))
    batch = gathered[2:7]
    assert len(batch) == 5 and np.shares_memory(batch.x, gathered.x)
    for part in (train, gathered, batch):
        for a in (part.x, part.y, part.targets):
            assert not a.flags.writeable


def test_error_rates_are_python_floats():
    model = Model(MLP_NORM)
    params = model.init_params(0)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(64, 10))
    y = rng.integers(0, 4, 64)
    assert type(model.batch_stats(params, model.train_set(x, y))[2]) is float
    assert type(model.error_rate(params, model.eval_set(x, y))) is float


# -- the screened evaluation ---------------------------------------------------------


@pytest.fixture
def forward_calls(monkeypatch):
    """(dtype, rows) of every MLP forward pass, in call order."""
    calls = []
    forward_mlp = Model._forward_mlp

    def recorded(self, layers, x, outs=None):
        calls.append((x.dtype, x.shape[0]))
        return forward_mlp(self, layers, x, outs)

    monkeypatch.setattr(Model, "_forward_mlp", recorded)
    return calls


@pytest.mark.parametrize("labels", [
    np.zeros((100, 1), dtype=int),   # broadcast to an "error rate" above 1
    np.zeros(1, dtype=int),          # one label for every row
    np.full(100, 4),                 # one past the last class
    np.full(100, -1),
    np.zeros(99, dtype=int),
    np.zeros(100),                   # float labels
], ids=["column", "single", "too-large", "negative", "short", "float"])
@pytest.mark.parametrize("arch", [MLP_NORM, MLP_RELU], ids=["screened", "unscreened"])
def test_error_rate_refuses_bad_labels(arch, labels):
    model = Model(arch)
    x = np.random.default_rng(0).normal(size=(100, 10))
    with pytest.raises(ValueError):
        model.error_rate(model.init_params(0), model.eval_set(x, labels))


@given(normalize=st.booleans(), hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       classes=st.integers(2, 5), n=st.integers(1, 300), batch_size=st.integers(1, 70),
       log_scales=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@example(normalize=True, hidden=[16, 8], classes=4, n=7, batch_size=3,
         log_scales=[0.0] * 8, seed=0)
@example(normalize=False, hidden=[16, 8], classes=4, n=250, batch_size=64,
         log_scales=[1.0] * 8, seed=1)
@settings(max_examples=60, deadline=None)
def test_screened_error_rate_equals_the_chunked_loop(normalize, hidden, classes, n, batch_size,
                                                     log_scales, seed):
    """Random tanh MLPs, normalized or with biases, with scaled tensors,
    chunks that do and do not divide n, and n below 8."""
    arch = ModelArch(input_dim=6, hidden=tuple(hidden), classes=classes, activation="tanh",
                     normalize=normalize)
    model = Model(arch)
    rng = np.random.default_rng(seed)
    params = model.init_params(seed % 1000)
    for value, log_scale in zip(params.values(), log_scales):
        value[...] = rng.normal(size=value.shape) * 10.0 ** log_scale
    x = rng.normal(size=(n, 6)) * 10.0 ** log_scales[-1]
    y = rng.integers(0, classes, n)
    assert model.error_rate(params, model.eval_set(x, y), batch_size) == _chunked_error(
        model, params, x, y, batch_size)


def test_tied_rows_reach_the_float64_tiers(forward_calls):
    """All-zero inputs tie every class of a normalized net, in float32 and in
    float64, so they pass through tiers 2 and 3 to their exact chunks."""
    model = Model(MLP_NORM)
    params = model.init_params(1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 10))
    x[[3, 40, 41]] = 0.0  # in chunks 0 and 1 of 32 rows
    y = rng.integers(0, 4, 100)
    want = _chunked_error(model, params, x, y, 32)
    forward_calls.clear()
    assert model.error_rate(params, model.eval_set(x, y), batch_size=32) == want
    f64 = [rows for dtype, rows in forward_calls if dtype == np.float64]
    f32 = [rows for dtype, rows in forward_calls if dtype == np.float32]
    assert f32 == [32, 32, 32, 4]
    assert f64[0] == 3            # tier 2: the unproven rows as one batch
    assert f64[1:] == [32, 32]    # tier 3: each of their chunks once
    assert model.forward(params, x[[3]]).argmax() == 0  # a tie goes to the first class


def test_rows_whose_float32_class_is_wrong_are_not_taken_from_float32(forward_calls):
    """Two nearly equal output rows flip the float32 argmax of some inputs;
    those rows must get their float64 class (from tier 2)."""
    model = Model(MLP_NORM)
    params = model.init_params(1)
    rng = np.random.default_rng(7)
    out = params["out.w"]
    out[1] = out[0] + 1e-6 * rng.normal(size=out.shape[1])
    pool = rng.normal(size=(20000, 10))
    layers = model._prepared(params).layers
    logits64 = model._forward_mlp(layers, pool)
    logits32 = model._forward_mlp([(w_t.astype(np.float32), b) for w_t, b in layers],
                                  pool.astype(np.float32))
    flipped = np.flatnonzero(logits32.argmax(axis=1) != logits64.argmax(axis=1))
    clear = np.flatnonzero(np.sort(logits64, axis=1)[:, -1] - np.sort(logits64, axis=1)[:, -2]
                           > 1e-2)
    assert len(flipped) >= 8 and len(clear) >= 92
    x = pool[np.concatenate([flipped[:8], clear[:92]])]
    y = model.forward(params, x).argmax(axis=1)  # a float32 class counts as an error
    want = _chunked_error(model, params, x, y, 64)
    assert want == 0.0
    forward_calls.clear()
    assert model.error_rate(params, model.eval_set(x, y), batch_size=64) == want
    assert (np.float64, 8) in forward_calls  # tier 2 settled the flipped rows


def test_a_net_with_duplicated_output_rows_falls_back(forward_calls):
    """Identical output rows tie every row, far more than 1/8 of them."""
    model = Model(MLP_NORM)
    params = model.init_params(1)
    params["out.w"][1:] = params["out.w"][0]
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 10))
    y = rng.integers(0, 4, 100)
    want = _chunked_error(model, params, x, y, 32)
    forward_calls.clear()
    assert model.error_rate(params, model.eval_set(x, y), batch_size=32) == want
    f64 = [rows for dtype, rows in forward_calls if dtype == np.float64]
    assert f64 == [32, 32, 32, 4]  # the whole unscreened loop, and no tier 2


@pytest.mark.parametrize("ties, tier2_rows", [(8, 8), (9, None)])
def test_the_screen_falls_back_past_one_eighth_of_the_rows_unproven(forward_calls, ties,
                                                                   tier2_rows):
    """8 tied rows of 64 are exactly 1/8 and go to tier 2; 9 take the loop."""
    model = Model(MLP_NORM)
    params = model.init_params(1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(64, 10))
    x[rng.choice(64, ties, replace=False)] = 0.0
    y = rng.integers(0, 4, 64)
    want = _chunked_error(model, params, x, y, 32)
    forward_calls.clear()
    assert model.error_rate(params, model.eval_set(x, y), batch_size=32) == want
    f64 = [rows for dtype, rows in forward_calls if dtype == np.float64]
    if tier2_rows is None:
        assert f64 == [32, 32]  # the unscreened loop
    else:
        assert f64[0] == tier2_rows and f64[1:] == [32, 32]  # tiers 2 and 3


@pytest.mark.parametrize("classes, screened", [(16, True), (17, False)])
def test_nets_of_many_classes_are_not_screened(forward_calls, classes, screened):
    """The screen's top-two pass costs a few numpy calls per class, so it
    serves at most 16 classes."""
    model = Model(ModelArch(input_dim=10, hidden=(16, 8), classes=classes, activation="tanh",
                            normalize=True))
    params = model.init_params(3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(300, 10))
    y = rng.integers(0, classes, 300)
    assert model.error_rate(params, model.eval_set(x, y), batch_size=128) == _chunked_error(
        model, params, x, y, 128)
    assert any(dtype == np.float32 for dtype, _ in forward_calls) == screened


@pytest.mark.parametrize("arch", [
    MLP_RELU, CONV,
    ModelArch(input_dim=10, hidden=(16, 8), classes=4, activation="relu", normalize=True),
], ids=["mlp-relu", "convnet", "mlp-relu-normalized"])
def test_relu_and_conv_evaluation_is_not_screened(arch, forward_calls):
    model = Model(arch)
    params = model.init_params(3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(300, arch.input_dim))
    y = rng.integers(0, arch.classes, 300)
    assert model.error_rate(params, model.eval_set(x, y), batch_size=128) == _chunked_error(
        model, params, x, y, 128)
    assert all(dtype == np.float64 for dtype, _ in forward_calls)


def test_overflowing_weights_skip_the_float32_screen(forward_calls):
    model = Model(ModelArch(input_dim=10, hidden=(16, 8), classes=4, activation="tanh"))
    params = model.init_params(0)
    params["fc1.w"][0, 0] = 1e300  # would overflow a float32 cast
    rng = np.random.default_rng(5)
    x = rng.normal(size=(64, 10))
    y = rng.integers(0, 4, 64)
    assert model.error_rate(params, model.eval_set(x, y)) == _chunked_error(model, params, x, y,
                                                                            1024)
    assert all(dtype == np.float64 for dtype, _ in forward_calls)


def test_the_logit_bound_holds_on_a_trained_model(tmp_path):
    from abel_sched.models import _screen_bounds, _screen_weights

    config = replace(standard_config("constant", epochs=20, log_dir=str(tmp_path / "run")),
                     checkpoint_every=20)
    run_experiment(config)
    params = load_checkpoint(tmp_path / "run" / "epoch_0020.ckpt")[1].params
    model, data = build_model(config)
    test = model.eval_set(*data["test"])
    prepared = model._prepared(params)
    e32, e64 = _screen_bounds(prepared.dense, test.max_abs, normalize=True)
    as32 = _screen_weights(prepared.dense, normalize=True)
    # the screen's transposed weights: contiguous float32 arrays
    assert all(w_t.dtype == np.float32 and w_t.flags.c_contiguous for w_t, _ in as32)
    logits32 = model._forward_mlp(as32, test.x32)
    logits64 = model._forward_mlp(prepared.layers, test.x)
    gap = float(np.abs(logits32.astype(np.float64) - logits64).max())
    assert 0 < gap <= e32 + e64
    assert e32 + e64 < 1e-3  # loose enough to hold, tight enough to prove most rows


@pytest.mark.parametrize("arch", [MLP_NORM, MLP_RELU], ids=["screened", "unscreened"])
def test_an_in_place_edit_of_the_callers_arrays_does_not_reach_a_prepared_set(arch):
    model = Model(arch)
    params = model.init_params(1)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(300, 10))
    y = rng.integers(0, 4, 300)
    test = model.eval_set(x, y)
    assert (test.x32 is not None) == (arch is MLP_NORM)
    want = model.error_rate(params, test, batch_size=128)
    assert want == _chunked_error(model, params, x, y, 128)
    x *= -1.0
    y[:] = (y + 1) % 4
    assert _chunked_error(model, params, x, y, 128) != want
    assert model.error_rate(params, test, batch_size=128) == want
    with pytest.raises(ValueError):
        test.x[0, 0] = 0.0  # the set's own arrays are read-only


def test_the_screen_leaves_the_standard_logs_byte_identical(tmp_path, monkeypatch):
    """30 epochs of the shipped ABEL config log the same bytes (wall_ms
    aside) with the float32 screen and with the float64 loop alone."""
    from abel_sched import models, parse_config

    text = (Path(__file__).resolve().parent.parent / "configs" / "blobs_abel.txt").read_text()
    assert "\nepochs = 200\n" in text
    config = parse_config(text.replace("\nepochs = 200\n", "\nepochs = 30\n"))
    screened = []  # per call of the screen: whether it settled the classes
    screened_classes = Model._screened_classes

    def recorded(self, *args):
        classes = screened_classes(self, *args)
        screened.append(classes is not None)
        return classes

    monkeypatch.setattr(Model, "_screened_classes", recorded)
    logs = {}
    for screen in (True, False):
        if not screen:
            monkeypatch.setattr(models, "_SCREEN_MAX_CLASSES", 0)
        run_dir = tmp_path / ("screened" if screen else "loop")
        result = run_experiment(replace(config, log_dir=str(run_dir)))
        assert result.meta["status"] == "completed" and len(result.records) == 30
        logs[screen] = [strip_wall_ms((run_dir / name).read_text())
                        for name in ("metrics.csv", "layers.csv", "events.csv")]
        assert screened == [True] * 30  # every epoch of the first run, none of the second
    assert logs[True] == logs[False]


@pytest.mark.parametrize("dtype, wide, ulp", [
    (np.float32, np.float64, 2.0 ** -24), (np.float64, np.longdouble, 2.0 ** -53)])
def test_tanh_is_within_four_ulp(dtype, wide, ulp):
    """The screen's bound assumes numpy's tanh errs by at most 4 units in the
    last place, that is 4u absolute below magnitude 1."""
    if np.finfo(wide).eps >= np.finfo(dtype).eps / 4:
        pytest.skip("no wider float type to check against")
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.uniform(-20, 20, 200_000),
                        rng.choice([-1, 1], 200_000) * 10.0 ** rng.uniform(-30, 1.5, 200_000)])
    z = z.astype(dtype)
    exact = np.tanh(z.astype(wide))
    err = np.abs(np.tanh(z).astype(wide) - exact)
    # one ulp of a magnitude below 1 is at most u, and 2u|t| below that
    tiny = np.finfo(dtype).smallest_subnormal
    assert np.all(err <= 4 * np.minimum(ulp, 2 * ulp * np.abs(exact)) + tiny)
