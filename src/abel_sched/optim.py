"""Optimizer steps, gradient clipping, and the squared-norm update identity.

Clipping and the updates are kernels on whole flat vectors in the
parameters' layout (see ``params``): :func:`clip_flat`, :func:`sgd_update`
and :func:`adam_update`. They build no objects and never modify their
inputs, so a caller that keeps an earlier vector (a checkpoint, a fork)
keeps its values. The training loop calls them directly; it holds the
optimizer state as the tuple of flat vectors that ``flat_state`` gives and
``with_flat_state`` turns back into a state object.

:func:`clip_global_norm`, :func:`step_sgd` and :func:`step_adam` are the
same kernels behind objects: gradients, momentum and Adam moments are
GradSets of the layout, and a step returns a new ParamSet over a new
vector. Plain name -> array mappings are accepted too and are checked and
packed first.

The L2 coefficient acts as an added gradient ``weight_decay * w`` on layers
with ``l2_enabled`` (plain L2 regularization, not decoupled decay, for both
SGD and Adam). Gradients passed in are of the bare loss.

For plain SGD (momentum 0) the per-layer change of the squared weight norm
obeys an exact identity in the learning rate, L2 coefficient, gradient norm
and g.w; :func:`predicted_delta_wsq` evaluates it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from .params import GradSet, Layout, ParamSet

# (layout, w, grad, flat state, lr, weight_decay) -> (new w, new flat state)
Update = Callable[[Layout, np.ndarray, np.ndarray, tuple, float, float],
                  tuple[np.ndarray, tuple]]


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

    def update(self) -> Update:
        """:func:`sgd_update` at this state's momentum."""
        return partial(sgd_update, mu=self.mu)

    def flat_state(self, layout: Layout) -> tuple[np.ndarray]:
        """``(velocity,)`` as a flat vector of ``layout``."""
        return (layout.flat_of(self.velocity, "velocity"),)

    def with_flat_state(self, layout: Layout, state: tuple[np.ndarray]) -> "MomentumState":
        """This state's momentum over the flat ``state`` of ``sgd_update``."""
        return MomentumState(mu=self.mu, velocity=GradSet(layout, state[0]))


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

    def update(self) -> Update:
        """:func:`adam_update` at this state's betas and eps."""
        return partial(adam_update, beta1=self.beta1, beta2=self.beta2, eps=self.eps)

    def flat_state(self, layout: Layout) -> tuple[np.ndarray, np.ndarray, int]:
        """``(m, v, t)``, the moments as flat vectors of ``layout``."""
        return (layout.flat_of(self.m, "first moment"),
                layout.flat_of(self.v, "second moment"), self.t)

    def with_flat_state(self, layout: Layout, state: tuple) -> "AdamState":
        """This state's betas and eps over the flat ``state`` of ``adam_update``."""
        m, v, t = state
        return AdamState(m=GradSet(layout, m), v=GradSet(layout, v), t=t,
                         beta1=self.beta1, beta2=self.beta2, eps=self.eps)


OptState = MomentumState | AdamState


def clip_flat(g: np.ndarray, parts: tuple[slice, ...], max_norm: float) -> np.ndarray:
    """``g`` scaled by max_norm/||g|| when its norm exceeds ``max_norm``, else
    ``g`` itself. The squared norm is one dot per slice of ``parts``, summed
    in their order (a GradSet's, which is the backward pass's)."""
    total = 0.0
    for sl in parts:
        part = g[sl]
        total += part.dot(part)
    norm = math.sqrt(total)
    if norm <= max_norm:
        return g
    return g * (max_norm / norm)


def clip_global_norm(grads: Mapping[str, np.ndarray], max_norm: float) -> Mapping[str, np.ndarray]:
    """Scale all gradients by max_norm/||g|| when the global norm exceeds it.

    The norm sums the layers in the mapping's order. A GradSet is clipped to
    a GradSet of its layout; a plain mapping is packed in its own order and
    comes back, when clipped, as a GradSet of that packing."""
    if not max_norm > 0:
        raise ValueError("max_norm must be > 0")
    if isinstance(grads, GradSet):
        flat_grads = grads
    else:
        layout = Layout(tuple((name, np.shape(g), True, False) for name, g in grads.items()))
        flat_grads = GradSet(layout, layout.pack(grads, "gradient"))
    layout, names = flat_grads.layout, flat_grads.names
    g = clip_flat(flat_grads.flat, layout.slices_in(names), max_norm)
    return grads if g is flat_grads.flat else GradSet(layout, g, names)


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


def sgd_update(layout: Layout, w: np.ndarray, g: np.ndarray, state: tuple[np.ndarray],
               lr: float, weight_decay: float, mu: float) -> tuple[np.ndarray, tuple[np.ndarray]]:
    """One SGD step on flat vectors: the new ``w`` and ``(velocity,)``.

    At ``mu = 0`` the old velocity is not read, and the new one is the
    gradient with its L2 term, so the step is exactly w - lr*g - lr*l2*w."""
    g = _l2_grad(layout, g, w, weight_decay)
    v = g if mu == 0.0 else mu * state[0] + g
    return w - lr * v, (v,)


def adam_update(layout: Layout, w: np.ndarray, g: np.ndarray, state: tuple, lr: float,
                weight_decay: float, beta1: float, beta2: float, eps: float
                ) -> tuple[np.ndarray, tuple]:
    """One bias-corrected Adam step on flat vectors, L2 as an added gradient:
    the new ``w`` and ``(m, v, t)``."""
    m, v, t = state
    g = _l2_grad(layout, g, w, weight_decay)
    t += 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    return w - lr * (m / c1) / (np.sqrt(v / c2) + eps), (m, v, t)


def _step(params: ParamSet, opt: OptState, grads: Mapping[str, np.ndarray], lr: float,
          weight_decay: float) -> tuple[ParamSet, OptState]:
    """``opt``'s update kernel behind objects."""
    layout = params.layout
    w, state = opt.update()(layout, params.flat, layout.flat_of(grads, "gradient"),
                            opt.flat_state(layout), lr, weight_decay)
    return ParamSet.from_flat(layout, w), opt.with_flat_state(layout, state)


def step_sgd(
    params: ParamSet,
    opt: MomentumState,
    grads: Mapping[str, np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[ParamSet, MomentumState]:
    """One SGD step; with mu = 0 this is exactly w <- w - lr*g - lr*l2*w."""
    return _step(params, opt, grads, lr, weight_decay)


def step_adam(
    params: ParamSet,
    opt: AdamState,
    grads: Mapping[str, np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[ParamSet, AdamState]:
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
