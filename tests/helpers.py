"""Shared test fixtures-in-spirit: task configs, oracles, and replay checkers.

The checkers here are deliberately independent re-implementations of the
library's logic (naive loops, no shared code paths) so the tests compare
two routes to the same answer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from abel_sched import (
    AdamState,
    BlobsSpec,
    ExperimentConfig,
    Model,
    ModelSpec,
    MomentumState,
    NumericError,
    OptimizerSpec,
    RunResult,
    RunState,
    ScheduleSpec,
    clip_global_norm,
    config_hash,
    lr_at,
    read_events,
    read_metrics,
    run_experiment,
    step_adam,
    step_sgd,
    warmup_scale,
    weight_norm_sq,
)
from abel_sched.runner import build_model
from abel_sched.sweep import run_tree, watch_key

# -- the standard hard synthetic task ------------------------------------------
#
# Blobs with 20% label noise (irreducible train error), a row-normalized tanh
# MLP (every weight tensor scale-invariant, no biases), plain SGD, gradient
# clipping, label smoothing, 5 warmup epochs. The init norm starts well above
# the L2 equilibrium, so with weight decay the squared norm falls, bounces,
# and equilibrates; without weight decay it grows monotonically. The largest
# stable learning rate on the documented grid {0.25..8} is 4.0.

STANDARD_EPOCHS = 200
STANDARD_LR = 4.0
STANDARD_WEIGHT_DECAY = 5e-4
STANDARD_SMOOTHING_WINDOW = 5
CLASSIFY_TOL = 0.005


def standard_dataset() -> BlobsSpec:
    return BlobsSpec(classes=4, dim=20, samples=2048, test_samples=8192,
                     label_noise=0.2, separation=2.5, seed=7)


def standard_config(schedule_kind: str, *, base_lr: float = STANDARD_LR,
                    weight_decay: float = STANDARD_WEIGHT_DECAY, seed: int = 0,
                    epochs: int = STANDARD_EPOCHS, log_dir: str = "unused",
                    decay_factor: float = 0.2, **schedule_kwargs) -> ExperimentConfig:
    schedule_defaults = {
        "stepwise": dict(milestones=((60, decay_factor), (120, decay_factor),
                                     (160, decay_factor))),
        "cosine": dict(cosine_form="quarter"),
        "simple": dict(decay_fraction=0.85, factor=decay_factor),
        "abel": dict(decay_factor=decay_factor, last_decay_fraction=0.85,
                     smoothing_window=STANDARD_SMOOTHING_WINDOW),
        "constant": {},
        "linear": dict(final_lr=0.0),
        "plateau": dict(factor=decay_factor),
    }[schedule_kind]
    schedule_defaults.update(schedule_kwargs)
    return ExperimentConfig(
        epochs=epochs,
        base_lr=base_lr,
        log_dir=log_dir,
        dataset=standard_dataset(),
        model=ModelSpec(kind="mlp", hidden=(32, 16), activation="tanh",
                        normalize=True, init_scale=4.0),
        optimizer=OptimizerSpec(kind="momentum", momentum=0.0),
        schedule=ScheduleSpec(kind=schedule_kind, base_lr=base_lr,
                              warmup_epochs=5, total_epochs=epochs,
                              **schedule_defaults),
        seed=seed,
        batch_size=128,
        weight_decay=weight_decay,
        label_smoothing=0.1,
        clip_norm=5.0,
    )


# -- the suites' run set -------------------------------------------------------------
#
# Every config that the acceptance and phenomenology suites train through
# ``run_cached``. Configs equal but for their schedule form a family
# (``sweep.watch_key``); ``run_tree`` trains each family's first config here,
# its leader, and forks the rest from it at their first lr change. So each
# family lists its constant run first where it has one, then simple, whose one
# decay comes at epoch 170.


def _suite_runs() -> list[ExperimentConfig]:
    # criterion 06 and the bounce precondition
    runs = [standard_config("constant", base_lr=lr) for lr in (STANDARD_LR, 8.0, STANDARD_LR / 10)]
    runs += [standard_config("constant", base_lr=lr, weight_decay=0.0)
             for lr in (STANDARD_LR, 1.0, 8.0)]
    for seed in (0, 1, 2):  # criteria 07 and 08
        runs.append(standard_config("simple", seed=seed))
        runs += [standard_config(kind, seed=seed, decay_factor=df)
                 for kind in ("abel", "stepwise") for df in (0.2, 0.5, 0.1)]
        runs += [standard_config(kind, seed=seed, weight_decay=0.0)
                 for kind in ("simple", "cosine")]
    runs += [standard_config("abel", base_lr=lr) for lr in (0.5, 1.0, 2.0, 8.0)]  # criterion 08
    runs.append(replace(standard_config("constant", base_lr=0.02, weight_decay=1e-3, epochs=150),
                        optimizer=OptimizerSpec(kind="adam")))
    return list({config_hash(config): config for config in runs}.values())


SUITE_RUNS = _suite_runs()
_RUN_CACHE: dict[str, RunResult] = {}


def run_cached(config: ExperimentConfig, tmp_root) -> RunResult:
    """The whole run of ``config``, one of ``SUITE_RUNS``, with its logs under
    ``tmp_root``. The first call for a family trains all of it through
    ``run_tree``, one worker per core; a follower's records, events and meta
    are read back from its logs, as ``run_experiment`` returns only the epochs
    after its fork."""
    key = config_hash(config)
    if key not in _RUN_CACHE:
        family = {config_hash(c): c for c in SUITE_RUNS if watch_key(c) == watch_key(config)}
        assert key in family, "run_cached trains only the configs SUITE_RUNS declares"
        runs = [replace(c, log_dir=str(tmp_root / f"run-{k[:12]}")) for k, c in family.items()]
        for k, point in zip(family, run_tree(runs, min(len(runs), os.cpu_count() or 1))):
            assert point.status == "ok", (point.log_dir, point.status)
            log_dir = Path(point.log_dir)
            _RUN_CACHE[k] = RunResult(read_metrics(log_dir), read_events(log_dir),
                                      json.loads((log_dir / "meta.json").read_text()), log_dir)
    return _RUN_CACHE[key]


# -- oracles --------------------------------------------------------------------


def finite_difference_grads(model: Model, params, x, y, label_smoothing=0.0, h=1e-5):
    """Central-difference gradients, the independent oracle for backprop."""
    grads = {}
    for layer in params:
        flat = layer.value.ravel()
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = model.loss(params, x, y, label_smoothing)
            flat[i] = orig - h
            lm = model.loss(params, x, y, label_smoothing)
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads[layer.name] = g.reshape(layer.value.shape)
    return grads


def gradcheck_worst_rel_err(arch, seed=0, n_coords=40, h=1e-5, batch=8,
                            label_smoothing=0.1):
    """Worst relative error between backprop and central differences.

    Samples ``n_coords`` coordinates per tensor (all when the tensor is
    smaller), so the total always exceeds 100 per architecture.
    """
    model = Model(arch)
    params = model.init_params(seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(batch, arch.input_dim))
    y = rng.integers(0, arch.classes, size=batch)
    _, grads = model.loss_and_grad(params, x, y, label_smoothing)
    worst = 0.0
    total = 0
    for layer in params:
        flat = layer.value.ravel()
        g = grads[layer.name].ravel()
        idx = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = model.loss(params, x, y, label_smoothing)
            flat[i] = orig - h
            lm = model.loss(params, x, y, label_smoothing)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            worst = max(worst, abs(fd - g[i]) / denom)
            total += 1
    return worst, total


class FlipReplay:
    """Naive re-simulation of the arm/fire sign-flip automaton.

    Independent of AbelScheduler: feeds a raw norm history and predicts the
    epochs of bounce decays and the final decay.
    """

    def __init__(self, total_epochs, last_decay_fraction=0.85, window=1, min_history=3):
        self.total = total_epochs
        self.last = round(last_decay_fraction * total_epochs)
        self.window = window
        self.min_history = min_history

    def decay_epochs(self, history):
        smoothed = []
        armed = False
        bounces = []
        finals = []
        for epoch in range(1, len(history) + 1):
            if epoch % self.window == 0:
                block = history[epoch - self.window:epoch]
                smoothed.append(sum(block) / self.window)
                if len(smoothed) >= self.min_history:
                    d1 = smoothed[-1] - smoothed[-2]
                    d0 = smoothed[-2] - smoothed[-3]
                    if d1 * d0 < 0:
                        if armed:
                            armed = False
                            bounces.append(epoch)
                        else:
                            armed = True
            if epoch == self.last:
                finals.append(epoch)
        return bounces, finals


def brute_force_bounces(values, noise_tol=0.0):
    """Exhaustive checker of the bounce definition on one fixed-lr segment.

    For every epoch m, search all candidate down-runs ending at m and
    up-runs starting at m by direct enumeration.
    """
    n = len(values)
    hits = []
    for m in range(n):
        start = m
        while start > 0 and values[start] <= values[start - 1] + noise_tol * values[start - 1]:
            start -= 1
        end = m
        while end < n - 1 and values[end + 1] >= values[end] - noise_tol * values[end]:
            end += 1
        if (m - start >= 2 and end - m >= 2
                and values[start] - values[m] > noise_tol * values[m]
                and values[end] - values[m] > noise_tol * values[m]):
            hits.append(m)
    return hits


def measured_delta_wsq(before, after) -> dict[str, float]:
    """Per-layer change of the squared norm, evaluated cancellation-free.

    sum((w' - w) * (w' + w)) equals |w'|^2 - |w|^2 exactly in real
    arithmetic; the factored form keeps full float precision when the
    change is tiny relative to the norm itself.
    """
    out = {}
    for layer in before:
        w0 = layer.value.ravel()
        w1 = after[layer.name].value.ravel()
        out[layer.name] = float(np.dot(w1 - w0, w1 + w0))
    return out


def strip_wall_ms(csv_text: str) -> str:
    """Drop the trailing wall-clock column, the one non-deterministic field."""
    lines = csv_text.splitlines()
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)


def run_logs(log_dir: Path) -> dict:
    """A run's three logs (wall_ms stripped) and its meta.json without start_epoch,
    the parts a forked or resumed run shares byte for byte with an independent one."""
    meta = json.loads((log_dir / "meta.json").read_text())
    del meta["start_epoch"]
    return {"metrics.csv": strip_wall_ms((log_dir / "metrics.csv").read_text()),
            "layers.csv": (log_dir / "layers.csv").read_text(),
            "events.csv": (log_dir / "events.csv").read_text(), "meta.json": meta}


# -- per-layer reference optimizer ----------------------------------------------
#
# The optimizer as it was written before the parameters moved into one flat
# vector: a dict of arrays per state, a loop over layers in every step. The
# flat steps must match these bit for bit, since the logs are pinned to them.


def ref_clip_global_norm(grads: dict, max_norm: float) -> dict:
    norm = float(np.sqrt(float(sum(np.dot(g.ravel(), g.ravel()) for g in grads.values()))))
    if norm <= max_norm:
        return dict(grads)
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}


def _ref_l2_grad(layer, grads: dict, weight_decay: float) -> np.ndarray:
    g = grads[layer.name]
    if weight_decay != 0.0 and layer.l2_enabled:
        return g + weight_decay * layer.value
    return g


def ref_step_sgd(params, velocity: dict, mu: float, grads: dict, lr: float,
                 weight_decay: float) -> tuple[dict, dict]:
    """New parameter values and velocity, both by layer name."""
    values, new_velocity = {}, {}
    for layer in params:
        g = _ref_l2_grad(layer, grads, weight_decay)
        v = g if mu == 0.0 else mu * velocity[layer.name] + g
        new_velocity[layer.name] = v
        values[layer.name] = layer.value - lr * v
    return values, new_velocity


def ref_step_adam(params, m: dict, v: dict, t: int, grads: dict, lr: float,
                  weight_decay: float, beta1=0.9, beta2=0.999, eps=1e-8):
    """New parameter values, first and second moments by layer name, and the step count."""
    t += 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    values, new_m, new_v = {}, {}, {}
    for layer in params:
        g = _ref_l2_grad(layer, grads, weight_decay)
        mi = beta1 * m[layer.name] + (1.0 - beta1) * g
        vi = beta2 * v[layer.name] + (1.0 - beta2) * g * g
        new_m[layer.name] = mi
        new_v[layer.name] = vi
        values[layer.name] = layer.value - lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
    return values, new_m, new_v, t


# -- per-layer reference MLP step --------------------------------------------------
#
# An MLP's loss and gradients written layer by layer: every layer's row norms,
# division and pull-back computed on its own, by name. A row sum is one
# segment of np.add.reduceat over the layer's raveled block, and the softmax
# is exp(logits - max) over its row sums. The model's step must match this
# bit for bit, since the logs are pinned to it.


def _ref_row_sums(a):
    """The sum of each row of the 2-d ``a``, as a column."""
    return np.add.reduceat(a.ravel(), np.arange(0, a.size, a.shape[1]))[:, None]


def ref_mlp_loss_and_grads(arch, params, x, y, label_smoothing: float = 0.0):
    """(loss, gradients by layer name, batch error) of an MLP ``arch`` on (x, y)."""
    names = [f"fc{i + 1}" for i in range(len(arch.hidden))] + ["out"]
    weights = []
    for name in names:
        w = params[f"{name}.w"].value
        if arch.normalize:
            rn = np.sqrt(_ref_row_sums(w * w))
            weights.append((w / rn, rn))
        else:
            weights.append((w, params[f"{name}.b"].value))
    acts = [x]
    for i, (w, extra) in enumerate(weights):
        z = acts[-1] @ w.T
        if not arch.normalize:
            z = z + extra
        if i < len(weights) - 1:
            z = np.maximum(z, 0.0) if arch.activation == "relu" else np.tanh(z)
        acts.append(z)
    logits = acts[-1]
    n, c = logits.shape
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    logp = logits - (np.log(s) + m)
    q = np.full((c, c), label_smoothing / (c - 1))
    np.fill_diagonal(q, 1.0 - label_smoothing)
    q = q[y]
    loss = float(-(q * logp).sum() / n)
    dh = (e / s - q) / n
    grads = {}
    for i in reversed(range(len(weights))):
        w, extra = weights[i]
        if i == len(weights) - 1:
            dz = dh
        else:
            a = acts[i + 1]
            dz = dh * ((a > 0).astype(a.dtype) if arch.activation == "relu" else 1.0 - a * a)
        dw = dz.T @ acts[i]
        if arch.normalize:
            proj = _ref_row_sums(dw * w)
            grads[f"{names[i]}.w"] = (dw - proj * w) / extra
        else:
            grads[f"{names[i]}.w"] = dw
            grads[f"{names[i]}.b"] = dz.sum(axis=0)
        dh = dz @ w
    error = int(np.count_nonzero(logits.argmax(axis=1) != y)) / n
    return loss, grads, error


# -- reference training loop ------------------------------------------------------
#
# The runner's epoch loop rebuilt from public pieces, the slow plain way: a
# gather and a checked training set per minibatch, each minibatch's loss and
# gradients from the one-batch ``loss_and_grad`` and its error from
# ``forward`` and argmax, the object-level clipping and optimizer calls, and
# the test error from a chunked forward pass and argmax. Non-finite values
# are checked step by step. The runner's logs must match it bit for bit.


def reference_epochs(config: ExperimentConfig, state: RunState | None = None):
    """Per epoch, the metrics row (``wall_ms`` stripped) and the layers rows the
    runner should log for ``config``, a config with a stateless schedule,
    started from scratch or from the epoch-0 ``state``. Raises NumericError
    with the runner's message where the run should diverge: at the first step
    whose logits (checked first) or loss are not finite, or at a non-finite
    squared weight norm."""
    model, data = build_model(config)
    xtr, ytr = data["train"]
    xte, yte = data["test"]
    n, batch = xtr.shape[0], config.batch_size
    o = config.optimizer
    if state is not None:
        params, opt = state.params, state.opt  # the steps never modify their inputs
    else:
        params = model.init_params(config.seed)
        if o.kind == "momentum":
            opt = MomentumState.init(params, mu=o.momentum)
        else:
            opt = AdamState.init(params, beta1=o.beta1, beta2=o.beta2, eps=o.eps)
    steps_per_epoch = -(-n // batch)
    step = 0
    for epoch in range(1, config.epochs + 1):
        lr_epoch = lr_at(config.schedule, epoch - 1)
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        loss_sum = err_sum = 0.0
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            loss, grads = model.loss_and_grad(params, xtr[idx], ytr[idx], config.label_smoothing)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            logits = model.forward(params, xtr[idx])
            err = int(np.count_nonzero(logits.argmax(axis=1) != ytr[idx])) / len(idx)
            if config.clip_norm > 0:
                grads = clip_global_norm(grads, config.clip_norm)
            lr = lr_epoch * warmup_scale(step, steps_per_epoch,
                                         config.schedule.warmup_epochs)
            if o.kind == "momentum":
                params, opt = step_sgd(params, opt, grads, lr, config.weight_decay)
            else:
                params, opt = step_adam(params, opt, grads, lr, config.weight_decay)
            step += 1
            loss_sum += loss * len(idx)
            err_sum += err * len(idx)
        wsq, per_layer = weight_norm_sq(params)
        if not math.isfinite(wsq):
            raise NumericError(f"non-finite squared weight norm at epoch {epoch}")
        wrong = 0
        for start in range(0, xte.shape[0], config.eval_batch):
            logits = model.forward(params, xte[start:start + config.eval_batch])
            wrong += int(np.count_nonzero(
                logits.argmax(axis=1) != yte[start:start + config.eval_batch]))
        wsq_l2, _ = weight_norm_sq(params, include="l2_only")
        fields = (lr, loss_sum / n, err_sum / n, wrong / xte.shape[0], wsq, wsq_l2)
        yield (f"{epoch}," + ",".join(repr(float(v)) for v in fields) + ",",
               [f"{epoch},{name},{value!r}" for name, value in per_layer.items()])


def reference_log_rows(config: ExperimentConfig) -> tuple[list[str], list[str]]:
    """The metrics rows (``wall_ms`` stripped) and layers rows the runner should
    log for ``config``, a config with a stateless schedule."""
    metrics, layers = [], []
    for row, layer_rows in reference_epochs(config):
        metrics.append(row)
        layers += layer_rows
    return metrics, layers
