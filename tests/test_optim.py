import numpy as np
import pytest

from abel_sched import (
    AdamState,
    GradSet,
    Layer,
    Model,
    ModelArch,
    MomentumState,
    ParamSet,
    clip_global_norm,
    growth_threshold_lr,
    inner_gw,
    predicted_delta_wsq,
    step_adam,
    step_sgd,
    weight_norm_sq,
)
from abel_sched.optim import _with_l2

from helpers import measured_delta_wsq, ref_clip_global_norm, ref_step_adam, ref_step_sgd

ARCH = ModelArch(input_dim=10, hidden=(16, 8), classes=4)


def setup_batch(seed=0, batch=32):
    model = Model(ARCH)
    params = model.init_params(seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(batch, 10))
    y = rng.integers(0, 4, batch)
    return model, params, x, y


def test_plain_sgd_is_exactly_w_minus_lr_g():
    model, params, x, y = setup_batch()
    _, grads = model.loss_and_grad(params, x, y)
    opt = MomentumState.init(params, mu=0.0)
    new, _ = step_sgd(params, opt, grads, lr=0.3, weight_decay=0.0)
    for layer in params:
        np.testing.assert_array_equal(new[layer.name].value,
                                      layer.value - 0.3 * grads[layer.name])


@pytest.mark.parametrize("lr", [0.1, 1.0])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4, 5e-3])
def test_exact_norm_identity_per_layer(lr, weight_decay):
    """Measured squared-norm change equals the exact update identity."""
    model, params, x, y = setup_batch(seed=1)
    opt = MomentumState.init(params, mu=0.0)
    for _ in range(100):
        _, grads = model.loss_and_grad(params, x, y)
        _, wsq = weight_norm_sq(params)
        _, gw = inner_gw(params, grads)
        new, opt = step_sgd(params, opt, grads, lr, weight_decay)
        measured = measured_delta_wsq(params, new)
        for layer in params:
            name = layer.name
            g = grads[name].ravel()
            gsq = float(np.dot(g, g))
            lam = weight_decay if layer.l2_enabled else 0.0
            predicted = predicted_delta_wsq(wsq[name], gsq, gw[name], lr, lam)
            rel = abs(measured[name] - predicted) / max(
                abs(measured[name]), abs(predicted), 1e-30)
            assert rel < 1e-10, (name, lr, weight_decay, rel)
        params = new


def test_lambda_zero_identity_reduces_to_two_terms():
    assert predicted_delta_wsq(5.0, 2.0, 0.7, 0.3, 0.0) == pytest.approx(
        0.3 ** 2 * 2.0 - 2 * 0.3 * 0.7, rel=1e-15)


def test_momentum_buffer_accumulates_l2_gradient():
    model, params, x, y = setup_batch(seed=2)
    _, grads = model.loss_and_grad(params, x, y)
    opt = MomentumState.init(params, mu=0.9)
    lam = 0.01
    p1, opt1 = step_sgd(params, opt, grads, lr=0.1, weight_decay=lam)
    for layer in params:
        expected_v = grads[layer.name] + (lam * layer.value if layer.l2_enabled else 0.0)
        np.testing.assert_allclose(opt1.velocity[layer.name], expected_v, rtol=1e-15)
        np.testing.assert_allclose(p1[layer.name].value,
                                   layer.value - 0.1 * expected_v, rtol=1e-15)
    # second step mixes the buffer
    _, grads2 = model.loss_and_grad(p1, x, y)
    p2, opt2 = step_sgd(p1, opt1, grads2, lr=0.1, weight_decay=lam)
    name = "fc1.w"
    expected_v2 = (0.9 * opt1.velocity[name] + grads2[name]
                   + lam * p1[name].value)
    np.testing.assert_allclose(opt2.velocity[name], expected_v2, rtol=1e-15)


def test_l2_filter_layers_without_flag_unaffected_by_lambda():
    """With frozen gradients, varying lambda must not move non-L2 layers."""
    model, params, x, y = setup_batch(seed=4)
    _, grads = model.loss_and_grad(params, x, y)
    opt = MomentumState.init(params, mu=0.0)
    deltas = {}
    for lam in (0.0, 0.05):
        new, _ = step_sgd(params, opt, grads, lr=0.2, weight_decay=lam)
        _, wsq_new = weight_norm_sq(new)
        _, wsq_old = weight_norm_sq(params)
        deltas[lam] = {n: wsq_new[n] - wsq_old[n] for n in wsq_new}
    for layer in params:
        if layer.l2_enabled:
            continue
        assert deltas[0.0][layer.name] == deltas[0.05][layer.name]
    assert deltas[0.0]["fc1.w"] != deltas[0.05]["fc1.w"]


def test_adam_first_step_magnitude_is_about_lr():
    params = ParamSet([Layer("w", np.array([1.0, -2.0, 3.0]))])
    grads = {"w": np.array([0.5, 0.5, 0.5])}
    opt = AdamState.init(params)
    new, opt = step_adam(params, opt, grads, lr=0.01)
    step = new["w"].value - params["w"].value
    np.testing.assert_allclose(np.abs(step), 0.01, rtol=1e-6)
    assert opt.t == 1


def test_adam_zero_gradient_zero_decay_is_fixed_point():
    params = ParamSet([Layer("w", np.array([1.0, -2.0]))])
    grads = {"w": np.zeros(2)}
    opt = AdamState.init(params)
    new, _ = step_adam(params, opt, grads, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(new["w"].value, params["w"].value)


def test_adam_applies_l2_only_to_flagged_layers():
    params = ParamSet([Layer("w", np.ones(3)), Layer("b", np.ones(3), l2_enabled=False)])
    grads = {"w": np.zeros(3), "b": np.zeros(3)}
    new, _ = step_adam(params, AdamState.init(params), grads, lr=0.1, weight_decay=0.1)
    assert np.all(new["w"].value != 1.0)
    np.testing.assert_array_equal(new["b"].value, np.ones(3))


@pytest.mark.parametrize("hyper", [{"beta1": 1.0}, {"beta2": 1.0}, {"beta1": 1.5},
                                   {"beta2": -0.1}, {"eps": -1.0}])
def test_adam_refuses_what_config_refuses(hyper):
    # beta = 1 would divide by 1 - beta**t = 0 and return nan weights
    params = ParamSet([Layer("w", np.array([1.0, -2.0]))])
    with pytest.raises(ValueError):
        AdamState.init(params, **hyper)
    AdamState.init(params, beta1=0.0, beta2=0.0, eps=0.0)  # the bounds' closed ends


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}  # norm 5
    clipped = clip_global_norm(grads, 2.5)
    np.testing.assert_allclose(clipped["a"], [1.5, 0.0])
    np.testing.assert_allclose(clipped["b"], [0.0, 2.0])
    same = clip_global_norm(grads, 10.0)
    np.testing.assert_array_equal(same["a"], grads["a"])
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = {str(i): rng.normal(size=rng.integers(1, 6)) for i in range(3)}
        c = clip_global_norm(g, 1.0)
        total = np.sqrt(sum(np.dot(v, v) for v in c.values()))
        assert total <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        clip_global_norm(grads, 0.0)


def test_growth_threshold_matches_identity_sign():
    rng = np.random.default_rng(6)
    for _ in range(300):
        gsq = rng.uniform(0.01, 10)
        gw = rng.normal(0, 3)
        thr = growth_threshold_lr(gsq, gw)
        if gw <= 0:
            assert thr is None
            # any lr grows the norm when g.w <= 0 and lambda = 0
            lr = rng.uniform(0.01, 5)
            assert predicted_delta_wsq(1.0, gsq, gw, lr, 0.0) >= 0
        else:
            for factor in (0.5, 2.0):
                lr = thr * factor
                delta = predicted_delta_wsq(1.0, gsq, gw, lr, 0.0)
                assert (delta > 0) == (factor > 1.0)


def test_per_step_growth_heuristic_on_the_toy_net():
    """lambda = 0 steps with lr above the per-step threshold grow the norm."""
    model, params, x, y = setup_batch(seed=7)
    opt = MomentumState.init(params, mu=0.0)
    checked = 0
    for _ in range(30):
        _, grads = model.loss_and_grad(params, x, y)
        gsq = sum(float(np.dot(g.ravel(), g.ravel())) for g in grads.values())
        gw, _ = inner_gw(params, grads)
        thr = growth_threshold_lr(gsq, gw)
        if thr is not None and thr < 10.0:
            lr = 2.0 * thr
            stepped, _ = step_sgd(params, opt, grads, lr, 0.0)
            w0, _ = weight_norm_sq(params)
            w1, _ = weight_norm_sq(stepped)
            assert w1 - w0 > 0
            checked += 1
        _, grads = model.loss_and_grad(params, x, y)
        params, opt = step_sgd(params, opt, grads, 0.05, 0.0)
    assert checked > 0


def test_shape_mismatch_rejected():
    params = ParamSet([Layer("w", np.zeros((2, 2)))])
    opt = MomentumState.init(params, mu=0.0)
    with pytest.raises(ValueError):
        step_sgd(params, opt, {"w": np.zeros(3)}, lr=0.1)
    with pytest.raises(ValueError):
        step_sgd(params, opt, {"v": np.zeros((2, 2))}, lr=0.1)


# -- flat steps against the per-layer reference -----------------------------------

NORMALIZED = ModelArch(input_dim=10, hidden=(16, 8), classes=4, activation="tanh",
                       normalize=True)
WITH_BIASES = ModelArch(input_dim=10, hidden=(16, 8), classes=4)  # biases: l2_enabled=False
CONV = ModelArch(input_dim=64, hidden=(4, 6), classes=3, kind="conv", activation="tanh",
                 input_shape=(1, 8, 8))


def snapshot(mapping):
    return {name: np.array(value, copy=True) for name, value in mapping.items()}


def assert_same(mapping, expected):
    assert set(mapping) == set(expected)
    for name in expected:
        assert np.array_equal(mapping[name], expected[name]), name


@pytest.mark.parametrize("arch", [NORMALIZED, WITH_BIASES, CONV],
                         ids=["normalized", "with-biases", "conv"])
@pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
@pytest.mark.parametrize("clip", ["fires", "idle"])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-3])
def test_flat_steps_match_per_layer_reference_bit_for_bit(arch, optimizer, clip, weight_decay):
    model = Model(arch)
    params = model.init_params(2)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(16, arch.input_dim))
    y = rng.integers(0, arch.classes, 16)
    lr = 0.001 if optimizer == "adam" else 0.05
    if optimizer == "adam":
        opt = AdamState.init(params)
        ref = (snapshot(opt.m), snapshot(opt.v), 0)
    else:
        opt = MomentumState.init(params, mu=0.0 if optimizer == "sgd" else 0.9)
        ref = snapshot(opt.velocity)
    for _ in range(4):
        _, grads = model.loss_and_grad(params, x, y, label_smoothing=0.1)
        norm = np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads.values()))
        max_norm = 0.5 * norm if clip == "fires" else 2.0 * norm
        ref_grads = ref_clip_global_norm(snapshot(grads), max_norm)
        before = (snapshot(params.values()), snapshot(grads),
                  [snapshot(s) for s in ((opt.m, opt.v) if optimizer == "adam"
                                         else (opt.velocity,))])

        clipped = clip_global_norm(grads, max_norm)
        assert_same(clipped, ref_grads)
        if optimizer == "adam":
            new, new_opt = step_adam(params, opt, clipped, lr, weight_decay)
            values, m, v, t = ref_step_adam(params, *ref, ref_grads, lr, weight_decay)
            assert_same(new_opt.m, m)
            assert_same(new_opt.v, v)
            assert new_opt.t == t
            ref = (m, v, t)
        else:
            new, new_opt = step_sgd(params, opt, clipped, lr, weight_decay)
            values, velocity = ref_step_sgd(params, ref, opt.mu, ref_grads, lr, weight_decay)
            assert_same(new_opt.velocity, velocity)
            ref = velocity
        assert_same(new.values(), values)

        # a step reads its inputs and never writes them
        assert_same(params.values(), before[0])
        assert_same(grads, before[1])
        for state, saved in zip((opt.m, opt.v) if optimizer == "adam" else (opt.velocity,),
                                before[2]):
            assert_same(state, saved)
        params, opt = new, new_opt


def test_gradients_come_in_backward_order():
    """The global norm sums layers in this order; the logged floats depend on it."""
    x = np.zeros((2, 10))
    y = np.array([0, 1])
    _, grads = Model(WITH_BIASES).loss_and_grad(Model(WITH_BIASES).init_params(0), x, y)
    assert list(grads) == ["out.w", "out.b", "fc2.w", "fc2.b", "fc1.w", "fc1.b"]
    conv = Model(CONV)
    _, grads = conv.loss_and_grad(conv.init_params(0), np.zeros((2, 64)), y)
    assert list(grads) == ["out.w", "out.b", "conv2.w", "conv2.b", "conv1.w", "conv1.b"]


def test_plain_mappings_are_checked_and_packed():
    params = ParamSet([Layer("w", np.array([1.0, 2.0])), Layer("b", np.array([3.0]),
                                                               l2_enabled=False)])
    opt = MomentumState(mu=0.5, velocity={"b": np.array([1.0]), "w": np.array([0.0, 2.0])})
    new, new_opt = step_sgd(params, opt, {"b": np.array([1.0]), "w": np.array([1.0, 1.0])},
                            lr=0.5, weight_decay=0.1)
    np.testing.assert_array_equal(new_opt.velocity["w"], [0.5 * 0.0 + (1.0 + 0.1),
                                                          0.5 * 2.0 + (1.0 + 0.2)])
    np.testing.assert_array_equal(new_opt.velocity["b"], [0.5 + 1.0])
    np.testing.assert_array_equal(new["b"].value, [3.0 - 0.5 * 1.5])
    with pytest.raises(ValueError):
        step_sgd(params, MomentumState(mu=0.5, velocity={"w": np.zeros(2)}),
                 {"b": np.zeros(1), "w": np.zeros(2)}, lr=0.1)


# -- the L2 term -------------------------------------------------------------------


def _l2_by_runs(layout, g, w, weight_decay):
    """The L2 term added run by run onto a copy, as for any layout."""
    out = g.copy()
    for sl in layout.l2_runs:
        out[sl] += weight_decay * w[sl]
    return out


@pytest.mark.parametrize("weight_decay", [5e-4, 5e-3, 0.37])
def test_the_whole_vector_l2_term_equals_the_per_run_one(weight_decay):
    params = Model(NORMALIZED).init_params(3)
    layout = params.layout
    assert layout.l2_runs == (slice(0, layout.size),)  # every tensor is L2-enabled
    g = np.random.default_rng(4).normal(size=layout.size)
    expected = _l2_by_runs(layout, g, params.flat, weight_decay)
    out = np.empty_like(g)
    _with_l2(layout, out, g, params.flat, weight_decay)  # formed in out, taken whole
    assert np.array_equal(out, expected)
    _with_l2(layout, g, g, params.flat, weight_decay)  # added in place, run by run
    assert np.array_equal(g, expected)


def test_an_mlp_with_biases_adds_l2_run_by_run():
    params = Model(WITH_BIASES).init_params(3)
    layout = params.layout
    assert len(layout.l2_runs) == 3  # the biases split the weights' runs
    g = np.random.default_rng(4).normal(size=layout.size)
    out = np.empty_like(g)
    _with_l2(layout, out, g, params.flat, 5e-3)
    assert np.array_equal(out, _l2_by_runs(layout, g, params.flat, 5e-3))
    for name, l2 in zip(layout.names, layout.l2):
        sl = layout.slice_of[name]
        if not l2:
            assert np.array_equal(out[sl], g[sl]), name  # biases get no L2 term


# -- the in-place updates against the allocating formulas ----------------------------
#
# The updates as they were before they wrote in place: each returns new
# vectors. The states' in-place updates must give the same bits.


def _allocating_l2_grad(layout, g, w, weight_decay):
    runs = layout.l2_runs
    if weight_decay == 0.0 or not runs:
        return g
    if len(runs) == 1 and runs[0].start == 0 and runs[0].stop == layout.size:
        return g + weight_decay * w
    out = g.copy()
    for sl in runs:
        out[sl] += weight_decay * w[sl]
    return out


def _allocating_sgd_update(layout, w, g, state, lr, weight_decay, mu):
    g = _allocating_l2_grad(layout, g, w, weight_decay)
    v = g if mu == 0.0 else mu * state[0] + g
    return w - lr * v, (v,)


def _allocating_adam_update(layout, w, g, state, lr, weight_decay, beta1, beta2, eps):
    m, v, t = state
    g = _allocating_l2_grad(layout, g, w, weight_decay)
    t += 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    return w - lr * (m / c1) / (np.sqrt(v / c2) + eps), (m, v, t)


def _bits(state) -> list:
    return [a.tobytes() if isinstance(a, np.ndarray) else a for a in state]


def _flat_state(opt) -> tuple:
    if isinstance(opt, MomentumState):
        return (opt.velocity.flat,)
    return opt.m.flat, opt.v.flat, opt.t


@pytest.mark.parametrize("arch,weight_decay", [(NORMALIZED, 0.0), (NORMALIZED, 5e-3),
                                               (WITH_BIASES, 5e-3)],
                         ids=["no-l2", "whole-vector-l2", "per-run-l2"])
@pytest.mark.parametrize("kernel", ["momentum-0", "momentum-0.9", "adam"])
def test_the_in_place_kernels_match_the_allocating_formulas(arch, weight_decay, kernel):
    layout = Model(arch).init_params(0).layout
    assert len(layout.l2_runs) == (1 if arch is NORMALIZED else 3)
    rng = np.random.default_rng(6)
    w = rng.normal(size=layout.size)
    if kernel == "adam":
        allocating, hyper = _allocating_adam_update, (0.9, 0.999, 1e-8)
        opt = AdamState(GradSet(layout, rng.normal(size=layout.size)),
                        GradSet(layout, rng.random(layout.size)), 3, *hyper)
    else:
        allocating = _allocating_sgd_update
        hyper = (0.9,) if kernel == "momentum-0.9" else (0.0,)
        opt = MomentumState(*hyper, GradSet(layout, rng.normal(size=layout.size)))
    for lr in (0.05, 0.3, 0.01):
        g = rng.normal(size=layout.size)
        want_w, want_state = allocating(layout, w.copy(), g.copy(), _flat_state(opt), lr,
                                        weight_decay, *hyper)
        opt.update(layout, w, g, lr, weight_decay)
        assert w.tobytes() == want_w.tobytes()
        assert _bits(_flat_state(opt)) == _bits(want_state)


@pytest.mark.parametrize("kind", ["momentum", "momentum-plain-mapping", "adam"])
def test_updating_a_copy_leaves_its_source(kind):
    layout = Model(WITH_BIASES).init_params(0).layout
    rng = np.random.default_rng(8)
    if kind == "adam":
        source = AdamState(GradSet(layout, rng.normal(size=layout.size)),
                           GradSet(layout, rng.random(layout.size)), t=3)
        buffers = (source.m, source.v)
    else:
        velocity = GradSet(layout, rng.normal(size=layout.size))
        if kind == "momentum-plain-mapping":
            velocity = {name: velocity[name].copy() for name in reversed(layout.names)}
        source = MomentumState(mu=0.9, velocity=velocity)
        buffers = (velocity,)
    before = [{name: a[name].tobytes() for name in layout.names} for a in buffers]
    copied = source.copy(layout)
    w = rng.normal(size=layout.size)
    copied.update(layout, w, rng.normal(size=layout.size), 0.1, 5e-3)
    assert [{name: a[name].tobytes() for name in layout.names} for a in buffers] == before
    assert _bits(_flat_state(copied)) != _bits(_flat_state(source.copy(layout)))
    if kind == "adam":
        assert (source.t, copied.t) == (3, 4)
