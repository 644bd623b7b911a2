"""Minimal feedforward classifiers with hand-written reverse-mode gradients.

Two families:

* ``mlp`` -- dense layers with relu or tanh. With ``normalize=True`` every
  dense layer divides its pre-activations by the L2 norm of the incoming
  weight rows and carries no bias, which makes the network function exactly
  invariant under rescaling of any weight tensor (and hence g.w = 0).
* ``conv`` -- two 3x3 valid convolutions, a 2x2 mean pool, and a dense
  readout; used to get per-layer norm heterogeneity on image-shaped inputs.

Gradients are of the bare loss only: the L2 term is applied by the
optimizer, never folded into these gradients. They are written straight
into one flat vector in the parameters' layout (a GradSet), listed in the
order the backward pass produces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import GradSet, Layer, Layout, ParamSet

ACTIVATIONS = ("relu", "tanh")


class NumericError(ArithmeticError):
    """Raised when a forward/backward pass produces non-finite values."""


@dataclass(frozen=True)
class ModelArch:
    """Shape and flavour of a classifier network."""

    input_dim: int
    hidden: tuple[int, ...]
    classes: int
    kind: str = "mlp"
    activation: str = "relu"
    normalize: bool = False
    init_scale: float = 1.0
    input_shape: tuple[int, int, int] | None = None  # (channels, height, width), conv only

    def __post_init__(self) -> None:
        if self.kind not in ("mlp", "conv"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if len(self.hidden) < 1:
            raise ValueError("need at least one hidden layer")
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if not self.init_scale > 0:
            raise ValueError("init_scale must be > 0")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind == "conv":
            if self.input_shape is None:
                raise ValueError("conv models need input_shape=(channels, height, width)")
            c, h, w = self.input_shape
            if c * h * w != self.input_dim:
                raise ValueError("input_shape does not multiply out to input_dim")
            if len(self.hidden) != 2:
                raise ValueError("conv models use exactly two conv layers (hidden = channel counts)")
            if h < 6 or w < 6:
                raise ValueError("conv input must be at least 6x6 for two 3x3 valid convolutions")
            if self.normalize:
                raise ValueError("normalize is only supported for mlp models")


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out) if kind == "relu" else np.tanh(z, out=out)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """Derivative at the pre-activation, from the activation a: relu's z > 0 is a > 0."""
    return (a > 0).astype(a.dtype) if kind == "relu" else 1.0 - a * a


@lru_cache(maxsize=16)
def _smoothed_targets(classes: int, label_smoothing: float) -> np.ndarray:
    """Row k is the smoothed target of label k (read-only, shared)."""
    table = np.full((classes, classes),
                    label_smoothing / (classes - 1) if classes > 1 else 0.0)
    np.fill_diagonal(table, 1.0 - label_smoothing)
    table.flags.writeable = False
    return table


def loss_ce(logits: np.ndarray, labels: np.ndarray, label_smoothing: float = 0.0) -> float:
    """Mean cross-entropy against label-smoothed targets.

    Smoothed target puts 1 - s on the true class and s/(C-1) on each other.
    """
    loss, _ = _loss_and_dlogits(logits, labels, label_smoothing)
    return loss


def _loss_and_dlogits(
    logits: np.ndarray, labels: np.ndarray, label_smoothing: float
) -> tuple[float, np.ndarray]:
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError("label_smoothing must lie in [0, 1)")
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits must be (batch, classes) and labels (batch,)")
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("labels out of range")
    # The row max, reduced over a class-major copy: for few classes this is
    # several times faster than max(axis=1), and max is exact either way.
    m = np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    shifted = logits - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + m
    logp = logits - lse

    q = _smoothed_targets(c, label_smoothing).take(labels, axis=0)
    loss = float(-(q * logp).sum() / n)
    dlogits = (np.exp(logp) - q) / n
    return loss, dlogits


class Model:
    """Stateless network: parameters travel separately as a ParamSet.

    An MLP keeps one derived table, where its dense tensors sit in the flat
    vector of the last layout it saw (see ``_slots``).
    """

    def __init__(self, arch: ModelArch):
        self.arch = arch
        self._slot_layout: Layout | None = None
        self._slot_table: tuple = ()
        if arch.kind == "mlp":
            self._dense = tuple(f"fc{i + 1}" for i in range(len(arch.hidden))) + ("out",)
            parts = (".w",) if arch.normalize else (".w", ".b")
            self._grad_names = tuple(name + part for name in reversed(self._dense)
                                     for part in parts)
        else:
            self._grad_names = ("out.w", "out.b", "conv2.w", "conv2.b", "conv1.w", "conv1.b")

    # -- initialization -----------------------------------------------------

    def init_params(self, seed: int, init_scale: float | None = None) -> ParamSet:
        """Fan-in-scaled uniform init times ``init_scale``; biases start at zero.

        Deterministic in (arch, seed, init_scale). The raw draws do not
        depend on init_scale, so scaling the init scales every weight
        tensor linearly.
        """
        scale = self.arch.init_scale if init_scale is None else init_scale
        if not scale > 0:
            raise ValueError("init_scale must be > 0")
        rng = np.random.default_rng(seed)
        layers: list[Layer] = []

        def weight(name: str, shape: tuple[int, ...], fan_in: int, invariant: bool) -> None:
            a = np.sqrt(3.0 / fan_in)
            w = rng.uniform(-a, a, size=shape) * scale
            layers.append(Layer(name, w, l2_enabled=True, scale_invariant=invariant))

        def bias(name: str, n: int) -> None:
            layers.append(Layer(name, np.zeros(n), l2_enabled=False, scale_invariant=False))

        arch = self.arch
        if arch.kind == "mlp":
            dims = (arch.input_dim, *arch.hidden, arch.classes)
            for name, d_in, d_out in zip(self._dense, dims[:-1], dims[1:]):
                weight(f"{name}.w", (d_out, d_in), d_in, invariant=arch.normalize)
                if not arch.normalize:
                    bias(f"{name}.b", d_out)
        else:
            c_in = arch.input_shape[0]
            c1, c2 = arch.hidden
            weight("conv1.w", (c1, c_in, 3, 3), c_in * 9, invariant=False)
            bias("conv1.b", c1)
            weight("conv2.w", (c2, c1, 3, 3), c1 * 9, invariant=False)
            bias("conv2.b", c2)
            d_flat = self._conv_flat_dim()
            weight("out.w", (arch.classes, d_flat), d_flat, invariant=False)
            bias("out.b", arch.classes)
        return ParamSet(layers)

    def _conv_flat_dim(self) -> int:
        _, h, w = self.arch.input_shape
        h2, w2 = (h - 4) // 2, (w - 4) // 2
        return self.arch.hidden[1] * h2 * w2

    # -- forward ------------------------------------------------------------

    def forward(self, params: ParamSet, x: np.ndarray) -> np.ndarray:
        """Logits for a (batch, input_dim) input."""
        logits, _ = self._forward(self._prepared(params), self._check_input(x))
        return logits

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ValueError(f"expected input of shape (batch, {self.arch.input_dim})")
        return x

    def _prepared(self, params: ParamSet):
        """What the forward pass reads: an MLP's dense weights, or a convnet's ParamSet."""
        return self._dense_weights(params) if self.arch.kind == "mlp" else params

    def _forward(self, prepared, x: np.ndarray, bufs: list[np.ndarray] | None = None):
        """Logits and the cache the backward pass reads; ``bufs`` as for ``_forward_mlp``."""
        if self.arch.kind == "mlp":
            return self._forward_mlp(prepared, x, bufs)
        return self._forward_conv(prepared, x)

    def _slots(self, layout: Layout) -> tuple:
        """Per dense layer: the flat slice and shape of its weight, and the
        slice of its bias (None when normalized).

        Built once per layout object and reused while ``params.layout`` is
        that same object; the table holds a reference to its layout, so the
        identity check cannot match a new layout at a reused id.
        """
        if layout is not self._slot_layout:
            shapes = dict(zip(layout.names, layout.shapes))
            self._slot_table = tuple(
                (layout.slice_of[f"{name}.w"], shapes[f"{name}.w"],
                 None if self.arch.normalize else layout.slice_of[f"{name}.b"])
                for name in self._dense)
            self._slot_layout = layout
        return self._slot_table

    def _dense_weights(self, params: ParamSet) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per dense layer: (w / |w_row|, |w_row| as a column) when normalized, else (w, b)."""
        flat = params.flat
        out = []
        for w_slice, w_shape, b_slice in self._slots(params.layout):
            w = flat[w_slice].reshape(w_shape)
            if self.arch.normalize:
                rn = np.sqrt((w * w).sum(axis=1, keepdims=True))
                out.append((w / rn, rn))
            else:
                out.append((w, flat[b_slice]))
        return out

    def _forward_mlp(self, weights, x: np.ndarray, bufs: list[np.ndarray] | None = None):
        """Logits, and as cache the input of every dense layer followed by the logits.

        With ``bufs`` (one array of at least ``len(x)`` rows per dense layer),
        each layer's output is written into its buffer instead of a new array.
        """
        acts = [x]
        last = len(weights) - 1
        for i, (w, extra) in enumerate(weights):
            z = np.matmul(acts[-1], w.T, out=None if bufs is None else bufs[i][:len(x)])
            if not self.arch.normalize:
                z += extra
            acts.append(z if i == last else _act(z, self.arch.activation, out=z))
        return acts[-1], acts

    def _forward_conv(self, params: ParamSet, x: np.ndarray):
        arch = self.arch
        imgs = x.reshape(x.shape[0], *arch.input_shape)
        z1 = _conv_valid(imgs, params["conv1.w"].value, params["conv1.b"].value)
        a1 = _act(z1, arch.activation)
        z2 = _conv_valid(a1, params["conv2.w"].value, params["conv2.b"].value)
        a2 = _act(z2, arch.activation)
        pooled = _avgpool2(a2)
        flat = pooled.reshape(pooled.shape[0], -1)
        logits = flat @ params["out.w"].value.T + params["out.b"].value
        cache = (imgs, a1, a2, pooled.shape, flat)
        return logits, cache

    # -- loss and gradients ---------------------------------------------------

    def loss(self, params: ParamSet, x: np.ndarray, y: np.ndarray,
             label_smoothing: float = 0.0) -> float:
        return loss_ce(self.forward(params, x), y, label_smoothing)

    def loss_and_grad(
        self, params: ParamSet, x: np.ndarray, y: np.ndarray, label_smoothing: float = 0.0
    ) -> tuple[float, GradSet]:
        """Loss and exact gradients of the bare loss w.r.t. every tensor."""
        loss, grads, _ = self.train_step_stats(params, x, y, label_smoothing)
        return loss, grads

    def train_step_stats(
        self, params: ParamSet, x: np.ndarray, y: np.ndarray, label_smoothing: float = 0.0
    ) -> tuple[float, GradSet, float]:
        """Loss, gradients, and batch error rate from a single forward/backward."""
        x = self._check_input(x)
        # overflow here is handled: non-finite logits raise NumericError below
        with np.errstate(over="ignore", invalid="ignore"):
            prepared = self._prepared(params)
            logits, cache = self._forward(prepared, x)
        if not np.isfinite(logits).all():
            raise NumericError("non-finite activations in forward pass")
        y = np.asarray(y)
        loss, dlogits = _loss_and_dlogits(logits, y, label_smoothing)
        layout = params.layout
        flat = np.empty(layout.size)
        if self.arch.kind == "mlp":
            self._backward_mlp(prepared, cache, dlogits, flat, self._slots(layout))
        else:
            self._backward_conv(params, cache, dlogits,
                                dict(zip(layout.names, layout.views(flat))))
        error = int(np.count_nonzero(logits.argmax(axis=1) != y)) / y.shape[0]
        return loss, GradSet(layout, flat, self._grad_names), error

    def _backward_mlp(self, weights, acts: list[np.ndarray], dlogits: np.ndarray,
                      flat: np.ndarray, slots: tuple) -> None:
        """Write the gradients into ``flat`` at ``slots`` (see ``_slots``), reusing
        the forward pass's activations."""
        arch = self.arch
        dh = dlogits
        for i in reversed(range(len(weights))):
            w_slice, w_shape, b_slice = slots[i]
            w, extra = weights[i]
            h = acts[i]
            dz = dh if i == len(weights) - 1 else dh * _act_grad(acts[i + 1], arch.activation)
            if arch.normalize:
                # w is w/|w_row| and extra is |w_row|; pull the normalization back onto w
                dw_hat = dz.T @ h
                proj = (dw_hat * w).sum(axis=1, keepdims=True)
                np.divide(dw_hat - proj * w, extra, out=flat[w_slice].reshape(w_shape))
            else:
                np.matmul(dz.T, h, out=flat[w_slice].reshape(w_shape))
                dz.sum(axis=0, out=flat[b_slice])
            if i:  # no gradient is needed for the input itself
                dh = dz @ w

    def _backward_conv(self, params: ParamSet, cache, dlogits: np.ndarray,
                       grads: dict[str, np.ndarray]) -> None:
        arch = self.arch
        imgs, a1, a2, pooled_shape, flat = cache
        grads["out.w"][...] = dlogits.T @ flat
        grads["out.b"][...] = dlogits.sum(axis=0)
        dpool = (dlogits @ params["out.w"].value).reshape(pooled_shape)
        da2 = _avgpool2_backward(dpool, a2.shape)
        dz2 = da2 * _act_grad(a2, arch.activation)
        grads["conv2.w"][...], grads["conv2.b"][...], da1 = _conv_valid_backward(
            a1, params["conv2.w"].value, dz2)
        dz1 = da1 * _act_grad(a1, arch.activation)
        grads["conv1.w"][...], grads["conv1.b"][...], _ = _conv_valid_backward(
            imgs, params["conv1.w"].value, dz1)

    # -- evaluation -----------------------------------------------------------

    def error_rate(self, params: ParamSet, x: np.ndarray, y: np.ndarray,
                   batch_size: int = 1024) -> float:
        """Fraction of misclassified samples, evaluated in chunks.

        An MLP's weight rows are normalized once per call, not once per chunk,
        and its layers write every chunk's outputs into one buffer each.
        """
        x = self._check_input(x)
        prepared = self._prepared(params)
        bufs = None
        if self.arch.kind == "mlp":
            rows = min(batch_size, x.shape[0])
            bufs = [np.empty((rows, w.shape[0])) for w, _ in prepared]
        wrong = 0
        for start in range(0, x.shape[0], batch_size):
            logits, _ = self._forward(prepared, x[start:start + batch_size], bufs)
            wrong += int(np.count_nonzero(logits.argmax(axis=1) != y[start:start + batch_size]))
        return wrong / x.shape[0]


def _conv_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 valid convolution; x is (batch, c_in, h, w), w is (c_out, c_in, 3, 3)."""
    oh, ow = x.shape[2] - 2, x.shape[3] - 2
    z = np.zeros((x.shape[0], w.shape[0], oh, ow), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            z += np.einsum("bchw,oc->bohw", x[:, :, di:di + oh, dj:dj + ow], w[:, :, di, dj],
                           optimize=True)
    return z + b[None, :, None, None]


def _conv_valid_backward(x: np.ndarray, w: np.ndarray, dz: np.ndarray):
    oh, ow = dz.shape[2], dz.shape[3]
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for di in range(3):
        for dj in range(3):
            patch = x[:, :, di:di + oh, dj:dj + ow]
            dw[:, :, di, dj] = np.einsum("bohw,bchw->oc", dz, patch, optimize=True)
            dx[:, :, di:di + oh, dj:dj + ow] += np.einsum("bohw,oc->bchw", dz, w[:, :, di, dj],
                                                          optimize=True)
    db = dz.sum(axis=(0, 2, 3))
    return dw, db, dx


def _avgpool2(x: np.ndarray) -> np.ndarray:
    """2x2 mean pool with stride 2; odd trailing rows/columns are dropped."""
    h2, w2 = x.shape[2] // 2, x.shape[3] // 2
    x = x[:, :, :2 * h2, :2 * w2]
    return 0.25 * (x[:, :, 0::2, 0::2] + x[:, :, 1::2, 0::2]
                   + x[:, :, 0::2, 1::2] + x[:, :, 1::2, 1::2])


def _avgpool2_backward(dz: np.ndarray, in_shape: tuple) -> np.ndarray:
    dx = np.zeros(in_shape, dtype=dz.dtype)
    h2, w2 = dz.shape[2], dz.shape[3]
    for oi in (0, 1):
        for oj in (0, 1):
            dx[:, :, oi:2 * h2:2, oj:2 * w2:2] += 0.25 * dz
    return dx
