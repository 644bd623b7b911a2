"""Optimizer steps, gradient clipping, and the squared-norm update identity.

The steps work on whole flat vectors in the parameters' layout (see
``params``): gradients, momentum and Adam moments are GradSets of that
layout, and a step returns a new ParamSet over a new vector. Inputs are
never modified. Plain name -> array mappings are accepted too and are
checked and packed first.

The L2 coefficient acts as an added gradient ``weight_decay * w`` on layers
with ``l2_enabled`` (plain L2 regularization, not decoupled decay, for both
SGD and Adam). Gradients passed in are of the bare loss.

For plain SGD (momentum 0) the per-layer change of the squared weight norm
obeys an exact identity in the learning rate, L2 coefficient, gradient norm
and g.w; :func:`predicted_delta_wsq` evaluates it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .params import GradSet, Layout, ParamSet, grad_norm_sq


@dataclass
class MomentumState:
    """Heavy-ball buffer: v <- mu*v + (g + l2*w), step is -lr*v."""

    mu: float
    velocity: GradSet

    @classmethod
    def init(cls, params: ParamSet, mu: float = 0.9) -> "MomentumState":
        if not 0.0 <= mu < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        return cls(mu=mu, velocity=GradSet.zeros(params.layout))


@dataclass
class AdamState:
    """Bias-corrected Adam moments."""

    m: GradSet
    v: GradSet
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: ParamSet, beta1: float = 0.9, beta2: float = 0.999,
             eps: float = 1e-8) -> "AdamState":
        return cls(m=GradSet.zeros(params.layout), v=GradSet.zeros(params.layout),
                   beta1=beta1, beta2=beta2, eps=eps)


OptState = MomentumState | AdamState


def clip_global_norm(grads: Mapping[str, np.ndarray], max_norm: float) -> Mapping[str, np.ndarray]:
    """Scale all gradients by max_norm/||g|| when the global norm exceeds it."""
    if not max_norm > 0:
        raise ValueError("max_norm must be > 0")
    norm = math.sqrt(grad_norm_sq(grads))
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    if isinstance(grads, GradSet):
        return GradSet(grads.layout, grads.flat * scale, grads.names)
    return {name: g * scale for name, g in grads.items()}


def _l2_grad(layout: Layout, g: np.ndarray, w: np.ndarray, weight_decay: float) -> np.ndarray:
    """g + weight_decay*w on the slices of the l2_enabled layers, g elsewhere.

    When one run covers the whole vector (every layer l2_enabled), the sum is
    taken whole: the same floats as the copy-then-add below, with one pass less.
    """
    runs = layout.l2_runs
    if weight_decay == 0.0 or not runs:
        return g
    if len(runs) == 1 and runs[0].start == 0 and runs[0].stop == layout.size:
        return g + weight_decay * w
    out = g.copy()
    for sl in runs:
        out[sl] += weight_decay * w[sl]
    return out


def step_sgd(
    params: ParamSet,
    opt: MomentumState,
    grads: Mapping[str, np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[ParamSet, MomentumState]:
    """One SGD step; with mu = 0 this is exactly w <- w - lr*g - lr*l2*w."""
    layout, w = params.layout, params.flat
    g = _l2_grad(layout, layout.flat_of(grads, "gradient"), w, weight_decay)
    if opt.mu == 0.0:
        v = g
    else:
        v = opt.mu * layout.flat_of(opt.velocity, "velocity") + g
    return (ParamSet.from_flat(layout, w - lr * v),
            MomentumState(mu=opt.mu, velocity=GradSet(layout, v)))


def step_adam(
    params: ParamSet,
    opt: AdamState,
    grads: Mapping[str, np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam step with L2 as an added gradient."""
    layout, w = params.layout, params.flat
    g = _l2_grad(layout, layout.flat_of(grads, "gradient"), w, weight_decay)
    t = opt.t + 1
    c1 = 1.0 - opt.beta1 ** t
    c2 = 1.0 - opt.beta2 ** t
    m = opt.beta1 * layout.flat_of(opt.m, "first moment") + (1.0 - opt.beta1) * g
    v = opt.beta2 * layout.flat_of(opt.v, "second moment") + (1.0 - opt.beta2) * g * g
    new = w - lr * (m / c1) / (np.sqrt(v / c2) + opt.eps)
    return ParamSet.from_flat(layout, new), AdamState(
        m=GradSet(layout, m), v=GradSet(layout, v), t=t,
        beta1=opt.beta1, beta2=opt.beta2, eps=opt.eps)


def predicted_delta_wsq(wsq: float, gsq: float, gw: float, lr: float,
                        weight_decay: float) -> float:
    """Exact per-step change of |w|^2 under plain SGD with L2.

    Expanding |w - lr*(g + l2*w)|^2 - |w|^2 gives

        lr^2*|g|^2 - (2 - lr*l2)*lr*l2*|w|^2 - 2*lr*(1 - lr*l2)*g.w

    with no approximation.
    """
    e = lr * weight_decay
    return lr * lr * gsq - (2.0 - e) * e * wsq - 2.0 * lr * (1.0 - e) * gw


def growth_threshold_lr(gsq: float, gw: float) -> float | None:
    """Learning rate above which |w|^2 grows this step when l2 = 0.

    From the identity with weight_decay = 0: delta = lr^2*|g|^2 - 2*lr*g.w,
    positive for lr > 2*g.w/|g|^2. Only defined when g.w > 0 and |g| > 0;
    returns None otherwise (delta is already nonnegative for any lr).
    """
    if gw <= 0.0 or gsq <= 0.0:
        return None
    return 2.0 * gw / gsq
