"""Named parameter tensors in one flat buffer, with per-layer norm instrumentation.

A :class:`Layout` holds the names, shapes and flags of a set's layers and
where each sits in one flat float64 vector. A :class:`ParamSet` maps each
layer name to a reshaped view into such a vector. Weights, gradients and
optimizer buffers are all ParamSets of the same layout, so the optimizer,
clipping and checkpoints work on whole vectors while every caller still
sees named per-layer arrays.

The total squared weight norm is the sum over layers of each tensor's
squared L2 norm. Norms and inner products stay one dot product per layer,
summed in layer order: a single dot over the whole vector adds in a
different order and would change the logged floats.

Layers carry two flags: ``l2_enabled`` (whether the L2 penalty acts on
them) and ``scale_invariant`` (whether the network function is unchanged
under rescaling of that tensor, which forces g.w = 0).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import accumulate

import numpy as np


class Layout:
    """Names, shapes and flags of a set's layers, and where each sits in the flat vector."""

    __slots__ = ("specs", "names", "shapes", "l2", "slices", "slice_of", "size", "l2_runs",
                 "_orders")

    def __init__(self, specs: tuple[tuple[str, tuple[int, ...], bool, bool], ...]):
        """``specs`` holds (name, shape, l2_enabled, scale_invariant) per layer, in order."""
        self.specs = specs
        self.names = tuple(s[0] for s in specs)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate layer names")
        self.shapes = tuple(s[1] for s in specs)
        self.l2 = tuple(s[2] for s in specs)
        bounds = list(accumulate((math.prod(shape) for shape in self.shapes), initial=0))
        self.slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.slice_of = dict(zip(self.names, self.slices))
        self.size = bounds[-1]
        # The l2_enabled layers as maximal runs of neighbouring slices.
        runs: list[slice] = []
        for sl, l2 in zip(self.slices, self.l2):
            if not l2:
                continue
            if runs and runs[-1].stop == sl.start:
                runs[-1] = slice(runs[-1].start, sl.stop)
            else:
                runs.append(sl)
        self.l2_runs = tuple(runs)
        self._orders: dict[tuple[str, ...], tuple[slice, ...]] = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, Layout) and self.specs == other.specs

    def slices_in(self, names: tuple[str, ...]) -> tuple[slice, ...]:
        """The slices of the layers ``names``, in that order; resolved once per
        names tuple (a set's summation order) and then reused."""
        slices = self._orders.get(names)
        if slices is None:
            slices = self._orders[names] = tuple(self.slice_of[name] for name in names)
        return slices

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each layer's reshaped view into ``flat``, in layout order."""
        return [flat[sl].reshape(shape) for sl, shape in zip(self.slices, self.shapes)]

    def pack(self, arrays: Mapping[str, np.ndarray], what: str = "value") -> np.ndarray:
        """A new flat vector holding ``arrays``, which must match the layout by name and shape."""
        if set(arrays) != set(self.names):
            raise ValueError(f"{what} layer names do not match parameters")
        for name, shape in zip(self.names, self.shapes):
            if np.shape(arrays[name]) != shape:
                raise ValueError(f"{what} shape mismatch on layer {name!r}: "
                                 f"{np.shape(arrays[name])} vs {shape}")
        if not self.names:
            return np.zeros(0)
        return np.concatenate([np.ravel(arrays[name]) for name in self.names],
                              dtype=np.float64)

    def flat_of(self, arrays: Mapping[str, np.ndarray], what: str) -> np.ndarray:
        """The flat vector of ``arrays``: a ParamSet's own buffer when it has this
        layout, otherwise a checked, packed copy."""
        if isinstance(arrays, ParamSet) and (arrays.layout is self or arrays.layout == self):
            return arrays.flat
        return self.pack(arrays, what)


class ParamSet(Mapping):
    """Per-layer arrays (weights, gradients, optimizer buffers) as views into one
    float64 vector of ``layout.size``: ``flat`` itself, not a copy.

    ``params[name]`` is a reshaped view into ``flat``, made on first use:
    edit it in place. Iteration follows ``names``, the layout's order by
    default. A model lists its gradients in the order its backward pass
    produces them, and sums over such a set (the global gradient norm) keep
    that order.

    Two sets are equal only when they are the same object: the mapping's
    own comparison would compare arrays.
    """

    __slots__ = ("layout", "flat", "names", "_views")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, layout: Layout, flat: np.ndarray,
                 names: tuple[str, ...] | None = None):
        self.layout = layout
        self.flat = flat
        self.names = layout.names if names is None else names
        self._views: dict[str, np.ndarray] | None = None

    @classmethod
    def zeros(cls, layout: Layout) -> "ParamSet":
        return cls(layout, np.zeros(layout.size))

    def copy(self) -> "ParamSet":
        """A set over a copy of ``flat``, with the same layout and names."""
        return ParamSet(self.layout, self.flat.copy(), self.names)

    def _view_map(self) -> dict[str, np.ndarray]:
        if self._views is None:
            by_name = dict(zip(self.layout.names, self.layout.views(self.flat)))
            self._views = {name: by_name[name] for name in self.names}
        return self._views

    def __getitem__(self, name: str) -> np.ndarray:
        return self._view_map()[name]

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def values(self):
        return self._view_map().values()

    def items(self):
        return self._view_map().items()


def weight_norm_sq(params: ParamSet, include: str = "all") -> tuple[float, dict[str, float]]:
    """Total and per-layer squared L2 norms.

    ``include="l2_only"`` restricts to layers with the L2 penalty enabled.
    """
    if include not in ("all", "l2_only"):
        raise ValueError("include must be 'all' or 'l2_only'")
    layout, flat = params.layout, params.flat
    per_layer: dict[str, float] = {}
    for name, sl, l2 in zip(layout.names, layout.slices, layout.l2):
        if l2 or include == "all":
            v = flat[sl]
            per_layer[name] = float(v.dot(v))
    return sum(per_layer.values()), per_layer


def inner_gw(params: ParamSet, grads: Mapping[str, np.ndarray]) -> tuple[float, dict[str, float]]:
    """Inner product g.w over all coordinates, with per-layer decomposition."""
    layout, w = params.layout, params.flat
    g = layout.flat_of(grads, "gradient")
    per_layer = {name: float(g[sl].dot(w[sl])) for name, sl in zip(layout.names, layout.slices)}
    return sum(per_layer.values()), per_layer


def angle_cos_sin(w_prev: ParamSet, w_next: ParamSet) -> tuple[float, float]:
    """Cosine and sine of the angle between two full parameter vectors."""
    if w_prev.names != w_next.names:
        raise ValueError("parameter sets have different layers")
    dot = 0.0
    nsq_prev = 0.0
    nsq_next = 0.0
    for name, a in w_prev.items():
        b = w_next[name]
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch on layer {name!r}")
        a, b = a.ravel(), b.ravel()
        dot += float(np.dot(a, b))
        nsq_prev += float(np.dot(a, a))
        nsq_next += float(np.dot(b, b))
    if nsq_prev == 0.0 or nsq_next == 0.0:
        raise ValueError("angle is undefined for a zero parameter vector")
    cos = dot / np.sqrt(nsq_prev * nsq_next)
    sin = np.sqrt(max(0.0, 1.0 - cos * cos))
    return float(cos), float(sin)
