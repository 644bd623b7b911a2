"""Named parameter tensors in one flat buffer, with per-layer norm instrumentation.

A :class:`ParamSet` owns one contiguous float64 vector. Each layer's
``value`` is a reshaped view into it, in layer order, as the set's
:class:`Layout` records. Gradients and optimizer state (:class:`GradSet`)
use the same layout, so the optimizer, clipping and checkpoints work on
whole vectors while every caller still sees named per-layer arrays.

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
from dataclasses import dataclass
from itertools import accumulate

import numpy as np


@dataclass(frozen=True, slots=True)
class Layer:
    """One named tensor. Inside a ParamSet, ``value`` is a view into its flat
    buffer: edit it in place, never rebind it."""

    name: str
    value: np.ndarray
    l2_enabled: bool = True
    scale_invariant: bool = False


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
        names tuple (a GradSet's summation order) and then reused."""
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
        """The flat vector of ``arrays``: a GradSet's own buffer when it has this
        layout, otherwise a checked, packed copy."""
        if isinstance(arrays, GradSet) and (arrays.layout is self or arrays.layout == self):
            return arrays.flat
        return self.pack(arrays, what)


class GradSet(Mapping):
    """Per-layer arrays (gradients, optimizer buffers) as views into one flat vector.

    Iteration follows ``names``, the layout's order by default. A model lists
    its gradients in the order its backward pass produces them, and sums over
    a GradSet (the global gradient norm) keep that order.
    """

    __slots__ = ("layout", "flat", "names", "_views")

    def __init__(self, layout: Layout, flat: np.ndarray,
                 names: tuple[str, ...] | None = None):
        self.layout = layout
        self.flat = flat
        self.names = layout.names if names is None else names
        self._views: dict[str, np.ndarray] | None = None

    @classmethod
    def zeros(cls, layout: Layout) -> "GradSet":
        return cls(layout, np.zeros(layout.size))

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


class ParamSet:
    """Ordered collection of named parameter tensors over one flat buffer.

    Building one over a flat vector costs O(1): the Layer views and the
    by-name lookup are made on first use.
    """

    __slots__ = ("layout", "flat", "_by_name")

    def __init__(self, layers: list[Layer]):
        layout = Layout(tuple((l.name, tuple(np.shape(l.value)), l.l2_enabled,
                               l.scale_invariant) for l in layers))
        self._bind(layout, layout.pack({l.name: l.value for l in layers}))

    @classmethod
    def from_flat(cls, layout: Layout, flat: np.ndarray) -> "ParamSet":
        """A ParamSet over ``flat`` itself (not a copy): a float64 vector of ``layout.size``."""
        params = cls.__new__(cls)
        params._bind(layout, flat)
        return params

    def _bind(self, layout: Layout, flat: np.ndarray) -> None:
        self.layout = layout
        self.flat = flat
        self._by_name: dict[str, Layer] | None = None

    def _layer_map(self) -> dict[str, Layer]:
        if self._by_name is None:
            self._by_name = {
                name: Layer(name, value, l2, invariant) for (name, _, l2, invariant), value
                in zip(self.layout.specs, self.layout.views(self.flat))}
        return self._by_name

    @property
    def layers(self) -> list[Layer]:
        return list(self._layer_map().values())

    def __iter__(self):
        return iter(self._layer_map().values())

    def __len__(self) -> int:
        return len(self.layout.names)

    def __getitem__(self, name: str) -> Layer:
        return self._layer_map()[name]

    def names(self) -> list[str]:
        return list(self.layout.names)

    def values(self) -> dict[str, np.ndarray]:
        return {name: layer.value for name, layer in self._layer_map().items()}

    def copy(self) -> "ParamSet":
        return ParamSet.from_flat(self.layout, self.flat.copy())

    def with_values(self, values: Mapping[str, np.ndarray]) -> "ParamSet":
        """New ParamSet with the same layer metadata and the given tensors."""
        return ParamSet.from_flat(self.layout, self.layout.pack(values))

    def scaled(self, alpha: float) -> "ParamSet":
        return ParamSet.from_flat(self.layout, self.flat * alpha)


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
    if w_prev.names() != w_next.names():
        raise ValueError("parameter sets have different layers")
    dot = 0.0
    nsq_prev = 0.0
    nsq_next = 0.0
    for a, b in zip(w_prev, w_next):
        if a.value.shape != b.value.shape:
            raise ValueError(f"shape mismatch on layer {a.name!r}")
        dot += float(np.dot(a.value.ravel(), b.value.ravel()))
        nsq_prev += float(np.dot(a.value.ravel(), a.value.ravel()))
        nsq_next += float(np.dot(b.value.ravel(), b.value.ravel()))
    if nsq_prev == 0.0 or nsq_next == 0.0:
        raise ValueError("angle is undefined for a zero parameter vector")
    cos = dot / np.sqrt(nsq_prev * nsq_next)
    sin = np.sqrt(max(0.0, 1.0 - cos * cos))
    return float(cos), float(sin)
