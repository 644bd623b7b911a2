"""Optimizer steps, gradient clipping, and the squared-norm update identity.

Clipping and the updates write whole flat vectors in the parameters'
layout (see ``params``) in place: :func:`clip_flat` scales a gradient, and
a state's ``update`` (:meth:`MomentumState.update`, :meth:`AdamState.update`)
writes the weights and the state's own buffers, using the gradient as
scratch. They compute the floats of the same formulas written with new
arrays: the same operations on the same operands, in the same order. The
training loop steps a state of its own: a fresh one, or a ``copy`` of the
one it resumes from.

:func:`clip_global_norm`, :func:`step_sgd` and :func:`step_adam` are the
same updates behind objects, run on copies: they never modify their
inputs, so a caller that keeps an earlier vector keeps its values.
Gradients, momentum and Adam moments are GradSets of the layout, and a step
returns a new ParamSet over a new vector. Plain name -> array mappings are
accepted too and are checked and packed first.

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

from .params import GradSet, Layout, ParamSet


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

    def copy(self, layout: Layout) -> "MomentumState":
        """This state over a copy of its velocity, a GradSet of ``layout``."""
        return MomentumState(mu=self.mu, velocity=GradSet(
            layout, layout.flat_of(self.velocity, "velocity").copy()))

    def update(self, layout: Layout, w: np.ndarray, g: np.ndarray, lr: float,
               weight_decay: float) -> None:
        """One SGD step in place on ``w`` and the velocity, a GradSet of
        ``layout``, with ``g`` as scratch. At ``mu = 0`` the old velocity is
        not read: the new one is the gradient with its L2 term, so the step
        is exactly w - lr*g - lr*l2*w."""
        v = self.velocity.flat
        if self.mu == 0.0:
            _with_l2(layout, v, g, w, weight_decay)
        else:
            _with_l2(layout, g, g, w, weight_decay)
            v *= self.mu
            v += g
        w -= np.multiply(v, lr, out=g)  # g is free once v is formed


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
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not eps >= 0.0:
            raise ValueError("eps must be >= 0")
        return cls(m=GradSet.zeros(params.layout), v=GradSet.zeros(params.layout),
                   beta1=beta1, beta2=beta2, eps=eps)

    def copy(self, layout: Layout) -> "AdamState":
        """This state over copies of its moments, GradSets of ``layout``."""
        return AdamState(m=GradSet(layout, layout.flat_of(self.m, "first moment").copy()),
                         v=GradSet(layout, layout.flat_of(self.v, "second moment").copy()),
                         t=self.t, beta1=self.beta1, beta2=self.beta2, eps=self.eps)

    def update(self, layout: Layout, w: np.ndarray, g: np.ndarray, lr: float,
               weight_decay: float) -> None:
        """One bias-corrected Adam step in place on ``w`` and the moments,
        GradSets of ``layout``, L2 as an added gradient, with ``g`` as scratch."""
        m, v, beta1, beta2 = self.m.flat, self.v.flat, self.beta1, self.beta2
        _with_l2(layout, g, g, w, weight_decay)
        self.t = t = self.t + 1
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        w -= lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + self.eps)


OptState = MomentumState | AdamState


def clip_flat(g: np.ndarray, parts: tuple[slice, ...], max_norm: float) -> bool:
    """Scale ``g`` in place by max_norm/||g|| when its norm exceeds
    ``max_norm``; whether it did. The squared norm is one dot per slice of
    ``parts``, summed in their order (a GradSet's, the backward pass's)."""
    total = 0.0
    for sl in parts:
        part = g[sl]
        total += part.dot(part)
    norm = math.sqrt(total)
    if norm <= max_norm:
        return False
    np.multiply(g, max_norm / norm, out=g)
    return True


def clip_global_norm(grads: Mapping[str, np.ndarray], max_norm: float) -> Mapping[str, np.ndarray]:
    """Scale all gradients by max_norm/||g|| when the global norm exceeds it.

    The norm sums the layers in the mapping's order. A GradSet is clipped to
    a new GradSet of its layout; a plain mapping is packed in its own order
    and comes back, when clipped, as a GradSet of that packing."""
    if not max_norm > 0:
        raise ValueError("max_norm must be > 0")
    if isinstance(grads, GradSet):
        layout, names, g = grads.layout, grads.names, grads.flat.copy()
    else:
        layout = Layout(tuple((name, np.shape(g), True, False) for name, g in grads.items()))
        names, g = layout.names, layout.pack(grads, "gradient")
    return GradSet(layout, g, names) if clip_flat(g, layout.slices_in(names), max_norm) else grads


def _with_l2(layout: Layout, out: np.ndarray, g: np.ndarray, w: np.ndarray,
             weight_decay: float) -> None:
    """``g`` + weight_decay*w on the l2_enabled layers' slices, ``g`` elsewhere,
    into ``out``, which may be ``g``; another ``out`` takes the product first
    when one run covers the whole vector: the add per run's floats, no new array."""
    runs = layout.l2_runs
    if weight_decay != 0.0 and out is not g and runs == (slice(0, layout.size),):
        np.add(g, np.multiply(w, weight_decay, out=out), out=out)
        return
    if out is not g:
        np.copyto(out, g)
    for sl in runs if weight_decay != 0.0 else ():
        part = out[sl]
        part += weight_decay * w[sl]


def _step(params: ParamSet, opt: OptState, grads: Mapping[str, np.ndarray], lr: float,
          weight_decay: float) -> tuple[ParamSet, OptState]:
    """``opt``'s update behind objects, on copies of its inputs."""
    layout = params.layout
    w, new = params.flat.copy(), opt.copy(layout)
    new.update(layout, w, layout.flat_of(grads, "gradient").copy(), lr, weight_decay)
    return ParamSet.from_flat(layout, w), new


def step_sgd(params: ParamSet, opt: MomentumState, grads: Mapping[str, np.ndarray], lr: float,
             weight_decay: float = 0.0) -> tuple[ParamSet, MomentumState]:
    """One SGD step; with mu = 0 this is exactly w <- w - lr*g - lr*l2*w."""
    return _step(params, opt, grads, lr, weight_decay)


def step_adam(params: ParamSet, opt: AdamState, grads: Mapping[str, np.ndarray], lr: float,
              weight_decay: float = 0.0) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam step with L2 as an added gradient."""
    return _step(params, opt, grads, lr, weight_decay)


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
