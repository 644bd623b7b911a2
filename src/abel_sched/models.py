"""Minimal feedforward classifiers with hand-written reverse-mode gradients.

Two families:

* ``mlp`` -- dense layers with relu or tanh. With ``normalize=True`` every
  dense layer divides its pre-activations by the L2 norm of the incoming
  weight rows and carries no bias, which makes the network function exactly
  invariant under rescaling of any weight tensor (and hence g.w = 0).
* ``conv`` -- two 3x3 valid convolutions, a 2x2 mean pool, and a dense
  readout; used to get per-layer norm heterogeneity on image-shaped inputs.

Parameters and gradients
------------------------
A :class:`Model` builds its parameter layout once, as ``Model.layout``, and
``init_params`` draws into a zero ParamSet of it. The passes take any
ParamSet whose layer names and shapes are the model's and refuse any other.
Gradients are of the bare loss only: the L2 term is applied by the
optimizer, never folded into these gradients. They come back as a new
ParamSet of the parameters' layout, listed in the order the backward pass
produces them, so a caller may write them in place.

Every float of the loss, the gradients and the error is that of the same
formulas applied layer by layer. A normalized MLP divides by its row norms
and pulls the gradient back through them, ``(dŵ - (dŵ.ŵ) ŵ) / |w_row|``,
over the whole flat vector, whose weight rows tile it; each row sum is one
segment of ``np.add.reduceat``, which groups the additions differently
from a per-layer ``sum(axis=1)``; widths are at least 1 (``ModelArch``
refuses less), so no segment is empty, where reduceat would return the
entry at its start, not 0. The softmax computes one exp per logit:
with ``e = exp(logits - max)`` and ``s`` its row sums (added as numpy adds
a row: in order below 8 classes, pairwise from 8 on), log p is ``logits -
(log s + max)`` and the gradient uses ``e / s``. An MLP keeps its buffers
for the last layout it saw and a few batch sizes (:class:`_Buffers`), so a
``Model`` serves one thread.

The step records, the epoch reduces
-----------------------------------
``Model.train_step_stats`` returns the gradients alone. It writes the
batch's logits (class-major), row maxima and row sums into the next rows of
a :class:`StepStats`, a per-run sink. ``StepStats.reduce`` then yields each
step's ``(loss, error, rows)`` in step order, each the one that step would
have computed on its own, and raises :class:`NumericError` on reaching a
step whose logits are not all finite, so a caller that checks each loss as
it comes sees the first failing step's error, logits before loss. A row is
right when its label is the first class whose logit equals the row max,
which is ``argmax``'s class for finite logits. The step itself checks
nothing; callers run it under ``np.errstate(over="ignore",
invalid="ignore")``. ``Model.loss``, ``Model.loss_and_grad``,
``Model.batch_stats`` and :func:`loss_ce` go through a one-batch sink.

Fixed training and test sets
----------------------------
Everything a run's data needs checked or derived is done once per run.
``Model.train_set`` checks the training rows' width, the labels against
``classes`` and the label smoothing against [0, 1), and keeps every row's
smoothed target row beside its label (a :class:`TrainSet`); its gathers and
slices are checked no further. ``Model.eval_set`` prepares the test set
once (an :class:`EvalSet`).

Screened evaluation
-------------------
A test error depends only on each row's argmax, so ``Model.error_rate``
of a tanh MLP (normalized or with biases) of at most 16 classes first runs
every row in float32 and keeps the float32 class of each row whose class it
can prove equal to the float64 one. Let "exact" mean exact arithmetic on the
float64 inputs and prepared weights (``w/|w_row|``, or ``w`` and ``b``). One
scalar bound E on |computed - exact| for every logit follows from the
standard dot-product bound (Higham, *Accuracy and Stability of Numerical
Algorithms*, section 3.1): a length-n dot product plus a bias, summed in any
order, errs by at most ``gamma_{n+1}`` times the sum of the magnitudes of
its terms, with ``gamma_k = k u / (1 - k u)`` and unit roundoff ``u``
(2**-24 for float32, 2**-53 for float64). For a dense layer whose input
errs by at most ``e`` around an exact input of magnitude at most ``h``,
whose float64 weight has largest row 1-norm ``L`` and largest |bias|
``beta`` (0 when normalized), and whose weights and bias are rounded to the
working precision (error ``u`` relative; nothing for float64), the output
errs by at most

    e' = e L (1+u) + (gamma_{n+1} + u) ((h + e) L + beta) (1+u)

plus an absolute term for underflow, ``(n + 2) tiny (1 + h + e)`` with
``tiny`` the smallest normal number. tanh is 1-Lipschitz and its exact
values lie in [-1, 1], so after a tanh ``e`` grows by ``4 (u + tiny)`` and
``h`` is 1. The recursion starts from ``h = max|x|`` and ``e = u max|x| +
tiny`` in float32 (the cast of the input) or ``e = 0`` in float64; its last
value is E32 or E64. A row whose float32 top class leads the runner-up by
more than ``2 (E32 + E64)`` has that class as its unique float64 argmax.
The assumptions are: any summation order (so any BLAS kernel); no overflow,
which a magnitude bound checks before anything is cast; and numpy's
``tanh`` within 4 ulp in both dtypes (numpy's own validation set,
``umath-validation-set-tanh.csv``, allows 2). The computed ``L`` is
inflated for its own rounding, and every threshold by ``1 + 2**-20`` for the
rounding of the margins and of the bound itself.

The rows left unproven run again in float64, as one gathered batch. Their
float64 bits may differ from the chunked loop's, since BLAS may sum in
another order for another row count; both err by at most E64 from exact,
so a float64 margin above ``4 E64`` settles the class. A row still
unsettled takes its class from its whole chunk, computed exactly as the
unscreened loop computes it. The whole call runs the unscreened loop when
more than 1/8 of the rows are unproven, when float32 could overflow, for
nets of more than 16 classes, and for relu MLPs and convnets.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .params import Layout, ParamSet

ACTIVATIONS = ("relu", "tanh")

# unit roundoff and smallest normal number of the screen's two precisions
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
_TINY32, _TINY64 = 2.0 ** -126, 2.0 ** -1022
# the largest magnitude the float32 screen may meet, with room for a margin
_SCREEN_LIMIT = float(np.finfo(np.float32).max) / 4
# headroom on every screen threshold, for rounded margins and bounds
_SLACK = 1.0 + 2.0 ** -20
# the most classes the screen serves: its class-major top-two pass costs a
# few numpy calls per class, and on 8192 rows of a 20-32-16 tanh net the
# screened eval took 1.4-1.8 ms against the loop's 2.1-2.6 ms at 16 classes,
# but 2.4-3.9 against 2.4-2.6 ms at 32 and 7.1 against 2.9 ms at 64
_SCREEN_MAX_CLASSES = 16


class NumericError(ArithmeticError):
    """Raised when a forward/backward pass produces non-finite values."""


@dataclass(frozen=True, eq=False)
class EvalSet:
    """A fixed evaluation set, checked and prepared once by ``Model.eval_set``.

    ``x`` (float64) and ``y`` are read-only copies that the set owns, so an
    in-place edit of the caller's arrays does not reach them. ``x32`` is the
    float32 cast of ``x``, made only for a model that screens (see the
    module docstring) and only when ``max|x|`` fits the screen; ``max_abs``
    is ``max|x|`` (NaN when ``x`` holds a NaN, 0 for no rows) and
    ``label_range`` the smallest and largest label.
    """

    x: np.ndarray
    y: np.ndarray
    x32: np.ndarray | None
    max_abs: float
    label_range: tuple[int, int] | None


@dataclass(eq=False, slots=True)  # not frozen: a frozen init costs 3x, once per minibatch
class TrainSet:
    """Training rows with their labels and smoothed targets, checked once by
    ``Model.train_set``.

    ``x`` (float64 rows), ``y`` (integer labels) and ``targets`` (row i is
    the label-smoothed target of ``y[i]``) are read-only. ``take(order)``
    gathers the rows in ``order`` into a new set, and a slice ``batch[a:b]``
    is a set of views; neither checks anything again.
    """

    x: np.ndarray
    y: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, rows: slice) -> "TrainSet":
        return TrainSet(self.x[rows], self.y[rows], self.targets[rows])

    def take(self, order: np.ndarray) -> "TrainSet":
        # take copies the same rows as fancy indexing, in less time
        return TrainSet(*(_read_only(a.take(order, axis=0))
                          for a in (self.x, self.y, self.targets)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
        if any(width < 1 for width in self.hidden):
            # a layer of no units would give the next one weight rows of no entries
            raise ValueError(f"hidden widths (conv: channel counts) must be >= 1, "
                             f"got {self.hidden}")
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


def _times_act_grad(d: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """``d`` times the derivative at the pre-activation, in place in ``d``; the
    activation ``a`` is overwritten with that derivative: relu's z > 0 is
    a > 0, tanh's derivative is 1 - a²."""
    if kind == "relu":
        np.greater(a, 0.0, out=a)
    else:
        np.subtract(1.0, np.multiply(a, a, out=a), out=a)
    return np.multiply(d, a, out=d)


@lru_cache(maxsize=16)
def _smoothed_targets(classes: int, label_smoothing: float) -> np.ndarray:
    """Row k is the smoothed target of label k (read-only, shared)."""
    table = np.full((classes, classes),
                    label_smoothing / (classes - 1) if classes > 1 else 0.0)
    np.fill_diagonal(table, 1.0 - label_smoothing)
    table.flags.writeable = False
    return table


def _targets(labels: np.ndarray, classes: int, label_smoothing: float) -> np.ndarray:
    """The smoothed target row of each label, once the smoothing and the
    labels' range are checked."""
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError("label_smoothing must lie in [0, 1)")
    if len(labels) and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError("labels out of range")
    return _smoothed_targets(classes, label_smoothing).take(labels, axis=0)


def loss_ce(logits: np.ndarray, labels: np.ndarray, label_smoothing: float = 0.0) -> float:
    """Mean cross-entropy against label-smoothed targets.

    Smoothed target puts 1 - s on the true class and s/(C-1) on each other.
    Raises NumericError when a logit is not finite.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits must be (batch, classes) and labels (batch,)")
    return _mean_loss(logits, _targets(labels, logits.shape[1], label_smoothing), labels)


def _mean_loss(logits: np.ndarray, targets: np.ndarray, labels: np.ndarray) -> float:
    """The mean cross-entropy of ``logits`` against ``targets``, recorded into
    and reduced by a one-batch StepStats."""
    n, classes = logits.shape
    stats = StepStats(n, classes)
    cols, row_max, row_sum = stats.record(n)
    product = np.empty((n, classes))
    np.copyto(product, logits)
    with np.errstate(over="ignore", invalid="ignore"):
        _softmax_numerators(product, cols, row_max, row_sum, np.empty((classes, n)))
    (loss, _, _), = stats.reduce(targets, labels)
    return loss


def _softmax_numerators(product: np.ndarray, cols: np.ndarray, row_max: np.ndarray,
                        row_sum: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``e = exp(logits - max)``, class-major, of the (batch, classes) logits
    ``product``: they are copied into ``cols``, a (classes, batch) slice of a
    sink, each row's max is written into ``row_max`` and the row sums of ``e``
    into ``row_sum`` (see the module docstring). ``product`` is scratch
    after the call. The reductions call their ufuncs directly, skipping the
    ndarray methods' wrappers; the floats are the same."""
    np.copyto(cols, product.T)
    np.maximum.reduce(cols, axis=0, out=row_max)
    np.subtract(cols, row_max, out=e)
    np.exp(e, out=e)
    _row_sums(e, product, row_sum)
    return e


def _row_sums(e: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each row's sum of the class-major ``e`` into ``out``, bit for bit as
    ``np.add.reduce(e.T, axis=1)``. numpy adds fewer than 8 entries in order,
    as its reduce over the class axis of ``e`` adds the classes one after
    another; it sums 8 or more pairwise, so those rows are its row-wise
    reduce of a row-major copy in ``scratch``."""
    if len(e) < 8:
        return np.add.reduce(e, axis=0, out=out)
    np.copyto(scratch, e.T)
    return np.add.reduce(scratch, axis=1, out=out)


def _dlogits(product: np.ndarray, targets: np.ndarray, cols: np.ndarray,
             row_max: np.ndarray, row_sum: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The gradient in the logits of the mean cross-entropy of the logits
    ``product`` against ``targets``, ``(e / s - targets) / n``, written into
    ``product``, recording the logits, row maxima and sums as
    ``_softmax_numerators`` does."""
    _softmax_numerators(product, cols, row_max, row_sum, e)
    np.divide(e, row_sum, out=e)
    np.subtract(e.T, targets, out=product)
    return np.divide(product, len(product), out=product)


class StepStats:
    """A sink for the training steps' logits, from which ``reduce`` computes
    every step's loss and error at once (see the module docstring).

    It holds room for ``rows`` rows of ``classes`` logits, class-major:
    ``class_logits[c, i]`` is row i's logit of class c. Beside them it keeps
    each row's max and sum of ``exp(logits - max)``, summed as numpy sums a
    row (in order below 8 classes, pairwise from 8 on). ``record`` hands out
    the next rows to a step, and ``reduce`` empties the sink.
    """

    __slots__ = ("class_logits", "row_max", "row_sum", "starts", "sizes", "filled")

    def __init__(self, rows: int, classes: int):
        self.class_logits = np.empty((classes, rows))
        self.row_max = np.empty(rows)
        self.row_sum = np.empty(rows)
        # the first row and the row count of each recorded step, in step order
        self.starts: list[int] = []
        self.sizes: list[int] = []
        self.filled = 0

    def record(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the next ``rows`` rows of the logits (a (classes, rows)
        slice), row maxima and row sums, for one step to write."""
        start, stop = self.filled, self.filled + rows
        if not 0 < rows <= len(self.row_max) - start:
            raise ValueError(f"a step of {rows} rows does not fit the {len(self.row_max)}-row "
                             f"sink after {start} rows")
        self.filled = stop
        self.starts.append(start)
        self.sizes.append(rows)
        return (self.class_logits[:, start:stop], self.row_max[start:stop],
                self.row_sum[start:stop])

    def reduce(self, targets: np.ndarray, labels: np.ndarray) -> Iterator[tuple[float, float, int]]:
        """Each recorded step's (mean loss, error rate, rows), in step order.

        ``targets`` and ``labels`` hold the recorded rows' target rows and
        labels in the order the steps recorded them. Everything is computed
        here, and the sink is emptied; the iterator raises NumericError on
        reaching a step whose logits are not all finite.
        """
        n, starts, sizes = self.filled, np.array(self.starts), self.sizes
        classes = len(self.class_logits)
        if labels.shape != (n,) or targets.shape != (n, classes):
            raise ValueError(f"expected the labels and targets of the {n} recorded rows")
        self.filled, self.starts, self.sizes = 0, [], []
        if not n:
            return iter(())
        cols = self.class_logits[:, :n]
        with np.errstate(over="ignore", invalid="ignore"):
            logp = np.log(self.row_sum[:n])
            np.add(logp, self.row_max[:n], out=logp)
            # log p from the class-major logits, written row-major for its
            # products with the targets and their sums: one sum per step over
            # its contiguous block, as a lone step sums it
            prod = np.empty((n, classes))
            np.subtract(cols, logp, out=prod.T)
            np.multiply(targets, prod, out=prod)
            sums, row = [], 0
            for size, run in groupby(sizes):
                k = len(list(run))
                sums.append(np.add.reduce(prod[row:row + k * size].reshape(k, size * classes),
                                          axis=1))
                row += k * size
            rows = np.array(sizes)
            losses = np.divide(np.negative(np.concatenate(sums)), rows)
        wrong = np.add.reduceat(_first_max(cols, self.row_max[:n]) != labels, starts,
                                dtype=np.intp)
        finite = np.logical_and.reduceat(np.logical_and.reduce(np.isfinite(cols), axis=0),
                                         starts)
        return _in_step_order(losses.tolist(), (wrong / rows).tolist(), sizes, finite.tolist())


def _first_max(cols: np.ndarray, row_max: np.ndarray) -> np.ndarray:
    """Each row's first class whose logit equals ``row_max`` (its max), from
    the class-major logits ``cols``: the number of leading classes below it.
    That is ``argmax``'s class for a row of finite logits; only the last class
    is left uncompared."""
    below = cols[0] != row_max
    first = below.astype(np.min_scalar_type(len(cols) - 1))
    for col in cols[1:-1]:
        below &= col != row_max
        first += below
    return first


def _in_step_order(losses: list[float], errors: list[float], sizes: list[int],
                   finite: list[bool]) -> Iterator[tuple[float, float, int]]:
    for loss, error, rows, ok in zip(losses, errors, sizes, finite):
        if not ok:
            raise NumericError("non-finite activations in forward pass")
        yield loss, error, rows


class _Buffers:
    """What an MLP's passes read and write for one layout, built by
    ``Model._prepared``, so that a step rebuilds nothing that stays the same
    during a run: its ufunc calls write into these with ``out=``, and its
    products of 2-D operands are ``np.dot(..., out=)``, which numpy sends to
    the same BLAS gemm call as ``matmul`` with the same transpose flags.

    ``w`` holds the weights the passes read (``w/|w_row|``, or a copy of
    the flat vector), ``grad`` the flat gradient and ``proj`` the
    pull-back's scratch. ``rows``, the row table of a normalized MLP (None
    otherwise), holds every weight row's start in the flat vector and then
    every row's fan-in, in layout order: the segments of one
    ``np.add.reduceat`` and the repeat counts that spread one value per row
    over the flat vector.
    ``dense`` holds per dense layer the views of its weight and bias (None
    when normalized) in ``w``, ``layers`` the same with each weight
    transposed, and ``grads`` the views in ``grad``.
    """

    __slots__ = ("rows", "w", "grad", "proj", "norms", "dense", "layers", "grads", "_widths",
                 "_batches")

    def __init__(self, model: "Model", layout: Layout):
        def views(flat: np.ndarray) -> list:
            by_name = dict(zip(layout.names, layout.views(flat)))
            return [(by_name[f"{name}.w"], by_name.get(f"{name}.b")) for name in model._dense]

        self.rows = _row_table(layout) if model.arch.normalize else None
        self.w, self.grad, self.proj = (np.empty(layout.size) for _ in range(3))
        self.norms = None  # |w_row| per entry when normalized, set by Model._normalized
        self.dense, self.grads = views(self.w), views(self.grad)
        self.layers = [(w.T, b) for w, b in self.dense]
        self._widths = (*model.arch.hidden, model.arch.classes)
        self._batches: dict[int, tuple] = {}

    def batch(self, rows: int) -> tuple:
        """The step's buffers for ``rows`` rows, built on first use and kept for
        the last few sizes: per hidden layer its transposed weight, bias and
        output; per layer from the last down to the second its dL/dz
        transposed, input, weight and bias gradients, dL/dz, weight and the
        dL/dz below; the first layer's first four; the logits, which become
        dL/dlogits; the class-major ``exp(logits - max)``."""
        bufs = self._batches.get(rows)
        if bufs is None:
            if len(self._batches) == 4:
                self._batches.clear()
            dz = [np.empty((rows, width)) for width in self._widths]
            hidden = [np.empty(d.shape) for d in dz[:-1]]
            forward = tuple((w_t, b, out) for (w_t, b), out in zip(self.layers, hidden))
            backward = tuple((dz[i].T, hidden[i - 1], *self.grads[i], dz[i], self.dense[i][0],
                              dz[i - 1]) for i in range(len(dz) - 1, 0, -1))
            bufs = self._batches[rows] = (forward, backward, (dz[0].T, *self.grads[0], dz[0]),
                                          dz[-1], np.empty(dz[-1].T.shape))
        return bufs


class Model:
    """Stateless network: parameters travel separately as a ParamSet.

    ``layout`` is the model's own parameter layout, built once: every
    ``init_params`` set has it. A model keeps, for the last layout it saw,
    once that layout's layer names and shapes are checked against the
    model's own, an MLP's :class:`_Buffers` (see ``_prepared``).
    """

    def __init__(self, arch: ModelArch):
        self.arch = arch
        self._bound_layout: Layout | None = None
        self._buffers: _Buffers | None = None
        if arch.kind == "mlp":
            self._dense = tuple(f"fc{i + 1}" for i in range(len(arch.hidden))) + ("out",)
            parts = (".w",) if arch.normalize else (".w", ".b")
            self._grad_names = tuple(name + part for name in reversed(self._dense)
                                     for part in parts)
        else:
            self._grad_names = ("out.w", "out.b", "conv2.w", "conv2.b", "conv1.w", "conv1.b")
        specs = self._layer_specs()
        # the fan-in of each weight, in init order; biases start at zero
        self._fan_ins = {name: fan_in for name, _, fan_in in specs if fan_in is not None}
        self.layout = Layout(tuple((name, shape, fan_in is not None,
                                    fan_in is not None and arch.normalize)
                                   for name, shape, fan_in in specs))

    def _layer_specs(self) -> tuple[tuple[str, tuple[int, ...], int | None], ...]:
        """(name, shape, fan-in) of each parameter tensor in init order; a
        bias has fan-in None."""
        arch = self.arch
        if arch.kind == "mlp":
            dims = (arch.input_dim, *arch.hidden, arch.classes)
            specs = []
            for name, d_in, d_out in zip(self._dense, dims[:-1], dims[1:]):
                specs.append((f"{name}.w", (d_out, d_in), d_in))
                if not arch.normalize:
                    specs.append((f"{name}.b", (d_out,), None))
            return tuple(specs)
        c_in, h, w = arch.input_shape
        c1, c2 = arch.hidden
        d_flat = c2 * ((h - 4) // 2) * ((w - 4) // 2)  # after two valid 3x3 convs and the pool
        return (("conv1.w", (c1, c_in, 3, 3), c_in * 9), ("conv1.b", (c1,), None),
                ("conv2.w", (c2, c1, 3, 3), c1 * 9), ("conv2.b", (c2,), None),
                ("out.w", (arch.classes, d_flat), d_flat), ("out.b", (arch.classes,), None))

    # -- initialization -----------------------------------------------------

    def init_params(self, seed: int, init_scale: float | None = None) -> ParamSet:
        """Fan-in-scaled uniform init times ``init_scale``, drawn into a zero set
        of the model's ``layout``; biases stay at zero.

        Deterministic in (arch, seed, init_scale). The raw draws do not
        depend on init_scale, so scaling the init scales every weight
        tensor linearly.
        """
        scale = self.arch.init_scale if init_scale is None else init_scale
        if not scale > 0:
            raise ValueError("init_scale must be > 0")
        rng = np.random.default_rng(seed)
        params = ParamSet.zeros(self.layout)
        for name, fan_in in self._fan_ins.items():
            a = np.sqrt(3.0 / fan_in)
            params[name][...] = rng.uniform(-a, a, size=params[name].shape) * scale
        return params

    # -- forward ------------------------------------------------------------

    def forward(self, params: ParamSet, x: np.ndarray) -> np.ndarray:
        """Logits for a (batch, input_dim) input."""
        return self._forward(self._prepared(params), self._check_input(x))

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ValueError(f"expected input of shape (batch, {self.arch.input_dim})")
        return x

    def _prepared(self, params: ParamSet):
        """What the passes read: a convnet's ParamSet, or an MLP's
        :class:`_Buffers` with the weights the passes read written into
        ``w``: ``w / |w_row|`` when normalized, else a copy of the flat
        vector. Their views hold until the next call.

        The layers are checked, and an MLP's buffers built, once per layout
        object, and reused while ``params.layout`` is that same object; the
        model holds a reference to its layout, so the identity check cannot
        match a new layout at a reused id.
        """
        layout = params.layout
        if layout is not self._bound_layout:
            self._check_layers(layout)
            self._buffers = _Buffers(self, layout) if self.arch.kind == "mlp" else None
            self._bound_layout = layout
        bound = self._buffers
        if bound is None:
            return params
        if bound.rows is None:
            np.copyto(bound.w, params.flat)
        else:
            self._normalized(params.flat, bound)
        return bound

    def _forward(self, prepared, x: np.ndarray, outs: list | None = None) -> np.ndarray:
        """The logits of ``x``; ``outs`` as for ``_forward_mlp`` (MLP only)."""
        if self.arch.kind == "mlp":
            return self._forward_mlp(prepared.layers, x, outs)
        return self._forward_conv(prepared, x)[0]

    def _check_layers(self, layout: Layout) -> None:
        """Refuse a layout whose layers differ from the model's by name or
        shape: the passes would compute another net, or leave gradient
        entries unwritten."""
        given = dict(zip(layout.names, layout.shapes))
        own = dict(zip(self.layout.names, self.layout.shapes))
        if given == own:
            return
        extra = sorted(set(given) - set(own))
        if extra:
            raise ValueError(f"parameters hold layers the model does not have: {extra}")
        missing = sorted(set(own) - set(given))
        if missing:
            raise ValueError(f"parameters lack layers of the model: {missing}")
        wrong = ", ".join(f"{name} {given[name]} (the model's: {shape})"
                          for name, shape in own.items() if given[name] != shape)
        raise ValueError(f"parameter shapes differ from the model's: {wrong}")

    @staticmethod
    def _normalized(flat: np.ndarray, bound: _Buffers) -> None:
        """Write a normalized MLP's w / |w_row| over the whole flat vector
        into ``bound.w``, and set ``bound.norms`` to |w_row| repeated to each
        row's fan-in, both in layout order."""
        starts, fan_ins = bound.rows
        sq = np.multiply(flat, flat, out=bound.w)
        norms = np.add.reduceat(sq, starts)
        bound.norms = np.sqrt(norms, out=norms).repeat(fan_ins)
        np.divide(flat, bound.norms, out=sq)

    def _forward_mlp(self, layers, x: np.ndarray, outs=None) -> np.ndarray:
        """The logits of ``x`` through ``layers``, per dense layer its
        transposed weight and its bias or None. With ``outs`` (per layer an
        array of ``len(x)`` rows), each layer's output is written into its
        entry instead of a new array."""
        last = len(layers) - 1
        for i, (w_t, b) in enumerate(layers):
            x = np.dot(x, w_t, out=None if outs is None else outs[i])
            if b is not None:
                np.add(x, b, out=x)
            if i < last:
                _act(x, self.arch.activation, out=x)
        return x

    def _forward_conv(self, params: ParamSet, x: np.ndarray, out: np.ndarray | None = None):
        """Logits, written into ``out`` when given, and the backward pass's cache."""
        arch = self.arch
        imgs = x.reshape(x.shape[0], *arch.input_shape)
        z1 = _conv_valid(imgs, params["conv1.w"], params["conv1.b"])
        a1 = _act(z1, arch.activation)
        z2 = _conv_valid(a1, params["conv2.w"], params["conv2.b"])
        a2 = _act(z2, arch.activation)
        pooled = _avgpool2(a2)
        flat = pooled.reshape(pooled.shape[0], -1)
        logits = np.matmul(flat, params["out.w"].T, out=out)
        logits += params["out.b"]
        cache = (imgs, a1, a2, pooled.shape, flat)
        return logits, cache

    # -- loss and gradients ---------------------------------------------------

    def train_set(self, x: np.ndarray, y: np.ndarray, label_smoothing: float = 0.0) -> TrainSet:
        """The training set ``(x, y)`` at ``label_smoothing``, checked once for
        every ``train_step_stats`` call on it or on its gathers and slices (see
        :class:`TrainSet`). Refuses rows of another width, labels outside
        [0, classes) and smoothing outside [0, 1)."""
        x, y = self._checked_rows(x, y)
        return TrainSet(x, y, _read_only(_targets(y, self.arch.classes, label_smoothing)))

    def loss(self, params: ParamSet, x: np.ndarray, y: np.ndarray,
             label_smoothing: float = 0.0) -> float:
        """The mean loss; raises NumericError when a logit is not finite."""
        batch = self.train_set(x, y, label_smoothing)
        return _mean_loss(self.forward(params, batch.x), batch.targets, batch.y)

    def loss_and_grad(
        self, params: ParamSet, x: np.ndarray, y: np.ndarray, label_smoothing: float = 0.0
    ) -> tuple[float, ParamSet]:
        """Loss and exact gradients of the bare loss w.r.t. every tensor."""
        loss, grads, _ = self.batch_stats(params, self.train_set(x, y, label_smoothing))
        return loss, grads

    def batch_stats(self, params: ParamSet, batch: TrainSet) -> tuple[float, ParamSet, float]:
        """Loss, gradients and error rate of ``batch``: one ``train_step_stats``
        into a sink of its own, reduced at once. Raises NumericError when a
        logit is not finite; the loss may still be non-finite."""
        stats = StepStats(len(batch), self.arch.classes)
        with np.errstate(over="ignore", invalid="ignore"):
            grads = self.train_step_stats(params, batch, stats)
        (loss, error, _), = stats.reduce(batch.targets, batch.y)
        return loss, grads, error

    def train_step_stats(self, params: ParamSet, batch: TrainSet, stats: StepStats) -> ParamSet:
        """Gradients of the loss of ``batch`` (a ``train_set`` or a gather or
        slice of one) from a single forward/backward.

        The batch's logits, row maxima and row sums go into the next rows of
        ``stats``, whose ``reduce`` gives the batch's loss and error and
        refuses non-finite logits (see the module docstring). No value is
        checked here: run it under ``np.errstate(over="ignore",
        invalid="ignore")``, since non-finite values are reported by the
        reduction.
        """
        x = batch.x
        cols, row_max, row_sum = stats.record(len(x))
        layout = params.layout
        bound = self._prepared(params)
        if self.arch.kind == "conv":
            logits, cache = self._forward_conv(params, x, np.empty(cols.shape[::-1]))
            dlogits = _dlogits(logits, batch.targets, cols, row_max, row_sum,
                               np.empty(cols.shape))
            grads = ParamSet(layout, np.empty(layout.size), self._grad_names)
            self._backward_conv(params, cache, dlogits, grads)
            return grads
        # the MLP step: _forward_mlp's calls, inline
        forward, backward, (dz_t, grad_w, grad_b, dz), logits, e = bound.batch(len(x))
        kind = self.arch.activation
        a = x
        for w_t, b, z in forward:
            a = np.dot(a, w_t, out=z)
            if b is not None:
                np.add(z, b, out=z)
            np.maximum(z, 0.0, out=z) if kind == "relu" else np.tanh(z, out=z)
        w_t, b = bound.layers[-1]
        np.dot(a, w_t, out=logits)
        if b is not None:
            np.add(logits, b, out=logits)
        _dlogits(logits, batch.targets, cols, row_max, row_sum, e)
        # dL/dw (dL/dŵ when normalized) into bound.grad; each hidden output then
        # takes its activation's derivative
        for d_t, a, g_w, g_b, d, w, d_prev in backward:
            np.dot(d_t, a, out=g_w)
            if g_b is not None:
                np.add.reduce(d, axis=0, out=g_b)
            np.dot(d, w, out=d_prev)
            _times_act_grad(d_prev, a, kind)
        np.dot(dz_t, x, out=grad_w)  # no gradient is needed for the input itself
        if grad_b is not None:
            np.add.reduce(dz, axis=0, out=grad_b)
        grad = bound.grad
        if bound.rows is None:
            return ParamSet(layout, grad.copy(), self._grad_names)
        # pull the normalization back onto w: (dŵ - (dŵ.ŵ) ŵ) / |w_row|
        starts, fan_ins = bound.rows
        dots = np.add.reduceat(np.multiply(grad, bound.w, out=bound.proj), starts)
        np.subtract(grad, np.multiply(dots.repeat(fan_ins), bound.w, out=bound.proj), out=grad)
        return ParamSet(layout, np.divide(grad, bound.norms), self._grad_names)

    def _backward_conv(self, params: ParamSet, cache, dlogits: np.ndarray,
                       grads: ParamSet) -> None:
        arch = self.arch
        imgs, a1, a2, pooled_shape, flat = cache
        grads["out.w"][...] = dlogits.T @ flat
        grads["out.b"][...] = dlogits.sum(axis=0)
        dpool = (dlogits @ params["out.w"]).reshape(pooled_shape)
        da2 = _avgpool2_backward(dpool, a2.shape)
        dz2 = _times_act_grad(da2, a2, arch.activation)
        grads["conv2.w"][...], grads["conv2.b"][...], da1 = _conv_valid_backward(
            a1, params["conv2.w"], dz2)
        dz1 = _times_act_grad(da1, a1, arch.activation)
        grads["conv1.w"][...], grads["conv1.b"][...], _ = _conv_valid_backward(
            imgs, params["conv1.w"], dz1)

    # -- evaluation -----------------------------------------------------------

    def eval_set(self, x: np.ndarray, y: np.ndarray) -> EvalSet:
        """The fixed evaluation set ``(x, y)``, checked and prepared once for
        every ``error_rate`` call on it (see :class:`EvalSet`)."""
        x, y = self._checked_rows(x, y)
        n = x.shape[0]
        max_abs = max(float(x.max()), -float(x.min())) if n else 0.0
        x32 = None
        if self._screens() and n and max_abs <= _SCREEN_LIMIT:  # NaN fails
            x32 = x.astype(np.float32)
            x32.flags.writeable = False
        return EvalSet(x, y, x32, max_abs, (int(y.min()), int(y.max())) if n else None)

    def _checked_rows(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read-only copies of the rows ``x`` (float64, of the input width) and
        of their integer labels ``y``."""
        x = np.array(self._check_input(x))
        y = np.array(y)
        n = x.shape[0]
        if y.shape != (n,) or not np.issubdtype(y.dtype, np.integer):
            raise ValueError(f"expected {n} integer labels, got shape {y.shape} of {y.dtype}")
        return _read_only(x), _read_only(y)

    def _screens(self) -> bool:
        """Whether ``error_rate`` runs the float32 screen of the module docstring."""
        arch = self.arch
        return (arch.kind == "mlp" and arch.activation == "tanh"
                and arch.classes <= _SCREEN_MAX_CLASSES)

    def error_rate(self, params: ParamSet, test: EvalSet, batch_size: int = 1024) -> float:
        """Fraction of misclassified samples of ``test`` (from ``eval_set``),
        evaluated in chunks.

        Equal to the share of rows whose argmax over the float64 logits of
        their ``batch_size``-row chunk differs from the label; a tanh MLP gets
        there through the float32 screen of the module docstring. An MLP's
        weight rows are normalized once per call, not once per chunk, and its
        layers write every chunk's outputs into one buffer each.
        """
        x, y = test.x, test.y
        n = x.shape[0]
        if test.label_range and (test.label_range[0] < 0
                                 or test.label_range[1] >= self.arch.classes):
            raise ValueError("labels out of range")
        prepared = self._prepared(params)
        # an MLP's chunk buffers, made on first use: the screen mostly needs none
        bufs: list[np.ndarray] = []

        def exact_classes(start: int) -> np.ndarray:
            """The argmax of chunk ``start``, as the unscreened loop computes it."""
            if not bufs and self.arch.kind == "mlp":
                bufs.extend(np.empty((min(batch_size, n), w.shape[0])) for w, _ in prepared.dense)
            chunk = x[start:start + batch_size]
            outs = [buf[:len(chunk)] for buf in bufs] or None
            return self._forward(prepared, chunk, outs).argmax(axis=1)

        classes = None
        if test.x32 is not None and self._screens():
            classes = self._screened_classes(prepared, test, batch_size, exact_classes)
        if classes is None:
            wrong = sum(int(np.count_nonzero(exact_classes(start) != y[start:start + batch_size]))
                        for start in range(0, n, batch_size))
        else:
            wrong = int(np.count_nonzero(classes != y))
        return wrong / n

    def _screened_classes(self, prepared, test: EvalSet, batch_size: int,
                          exact_classes) -> np.ndarray | None:
        """Every row's float64 argmax, through the float32 screen of the module
        docstring; None when the unscreened loop must run instead."""
        bounds = _screen_bounds(prepared.dense, test.max_abs, self.arch.normalize)
        if bounds is None:
            return None
        e32, e64 = bounds
        x, x32 = test.x, test.x32
        n = x.shape[0]
        # tier 1: float32 in chunks (one 8192-row sgemm is slower, as BLAS
        # then threads it), every chunk's logits in one array
        layers = _screen_weights(prepared.dense, self.arch.normalize)
        logits = np.empty((n, self.arch.classes), dtype=np.float32)
        bufs = [np.empty((min(batch_size, n), w_t.shape[1]), dtype=np.float32)
                for w_t, _ in layers[:-1]]
        for start in range(0, n, batch_size):
            chunk = x32[start:start + batch_size]
            self._forward_mlp(layers, chunk, [buf[:len(chunk)] for buf in bufs]
                              + [logits[start:start + batch_size]])
        classes, margin = _top_two(logits)
        unproven = np.flatnonzero(~(margin > np.float32(2.0 * (e32 + e64) * _SLACK)))
        # On 8192 rows of the standard 20-32-16-4 net the tiers below took
        # 1.37 ms with 1/8 of the rows unproven and 1.72 ms with 1/4, against
        # the loop's 1.77 ms, and 13.7 ms when every row is a tie that tier 3
        # settles row by row; past 1/8 the loop runs instead.
        if len(unproven) * 8 > n:
            return None
        if len(unproven):
            # tier 2: the unproven rows in float64, as one batch
            logits64 = self._forward_mlp(prepared.layers, x[unproven])
            classes[unproven], margin64 = _top_two(logits64)
            # tier 3: a row still unsettled takes its class from its exact chunk
            chunks: dict[int, np.ndarray] = {}
            for row in unproven[~(margin64 > 4.0 * e64 * _SLACK)]:
                start = row - row % batch_size
                if start not in chunks:
                    chunks[start] = exact_classes(start)
                classes[row] = chunks[start][row - start]
        return classes


def _row_table(layout: Layout) -> tuple[np.ndarray, np.ndarray]:
    """The row table of ``_Buffers`` for a layout of weight matrices only,
    which tile the flat vector: each row's start and fan-in, in layout order."""
    starts = np.concatenate([sl.start + d_in * np.arange(d_out)
                             for sl, (d_out, d_in) in zip(layout.slices, layout.shapes)])
    fan_ins = np.concatenate([np.full(d_out, d_in) for d_out, d_in in layout.shapes])
    return starts, fan_ins


def _top_two(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first largest class, and its lead over the runner-up (0 on a tie).

    One pass over a class-major copy: for few classes this is several times
    faster than ``argmax(axis=1)`` over the rows. The classes are held in the
    narrowest unsigned type, where the masked update is an arithmetic one
    (a masked assignment to an intp array costs 7 times as much).
    """
    cols = np.ascontiguousarray(logits.T)
    top = cols[0].copy()
    second = np.full_like(top, -np.inf)
    classes = np.zeros(len(top), dtype=np.min_scalar_type(len(cols) - 1))
    for c in range(1, len(cols)):
        v = cols[c]
        np.maximum(second, np.minimum(v, top), out=second)
        classes += (v > top) * (c - classes)  # c where v leads; c > classes, so no wrap
        np.maximum(top, v, out=top)
    return classes, top - second


def _screen_weights(prepared, normalize: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """The float32 layers of the screen's pass, in ``_forward_mlp``'s form.

    Each transposed weight is a contiguous (fan-in, fan-out) float32 array.
    On the standard 20-32-16-4 net's 8192 test rows, ``error_rate``
    took 1102 against 1135 us with plain float32 casts of ``w`` (medians of
    60 interleaved sets of 20 calls, 55 won; 2 vCPU, numpy 2.4.6, OpenBLAS).
    The bound holds for any summation order, so any sgemm kernel will do.
    """
    return [(np.ascontiguousarray(w.T, dtype=np.float32),
             extra if normalize else extra.astype(np.float32)) for w, extra in prepared]


def _screen_bounds(weights, mx: float, normalize: bool) -> tuple[float, float] | None:
    """(E32, E64): bounds on |computed - exact| of every logit of a tanh MLP
    computed in float32 and in float64 from inputs of magnitude at most
    ``mx`` (see the module docstring); None when a float32 pass could
    overflow or a magnitude is not finite."""
    layers = []
    for w, extra in weights:
        fan_in = w.shape[1]
        # the computed row sums may fall short of the exact ones by gamma_n
        l1 = float(np.abs(w).sum(axis=1).max()) * (1.0 + 2.0 * _gamma(fan_in, _U64))
        beta = 0.0 if normalize else float(np.abs(extra).max())
        layers.append((fan_in, l1, beta))
    bounds = []
    for u, tiny, e in ((_U32, _TINY32, _U32 * mx + _TINY32), (_U64, _TINY64, 0.0)):
        h = mx
        for i, (fan_in, l1, beta) in enumerate(layers):
            magnitude = (h + e) * l1 * 2.0 + beta * 2.0
            if not all(v <= _SCREEN_LIMIT for v in (mx, l1, beta, magnitude)):  # NaN fails
                return None
            e = (e * l1 * (1.0 + u)
                 + (_gamma(fan_in + 1, u) + u) * ((h + e) * l1 + beta) * (1.0 + u)
                 + (fan_in + 2) * tiny * (1.0 + h + e))
            if i < len(layers) - 1:  # tanh
                e += 4.0 * (u + tiny)
                h = 1.0
        if not e <= _SCREEN_LIMIT / 4:  # so that the float32 threshold is finite
            return None
        bounds.append(e)
    return bounds[0], bounds[1]


def _gamma(k: int, u: float) -> float:
    return k * u / (1.0 - k * u)


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
