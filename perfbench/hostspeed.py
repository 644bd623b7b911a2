"""The host's speed, sampled while a workload runs, so times can be given at a fixed speed.

The benchmark runs on a few vCPUs of a shared host. Their speed swings by
1.5x within seconds and drifts by up to 2x between minutes, with CPU time
equal to wall time: the vCPUs themselves run slower. A time measured on
such a host says as much about the neighbours as about the program.

So the benchmark samples the host's speed beside the work it times. A fixed
reference pass, a small numpy MLP epoch of the benchmark's shapes, runs
after every REF_EVERY-th epoch, off the epoch clock (see
``spans.install_epoch_clock``), and at the end of every set-up probe. The pass
uses only matrices small enough that OpenBLAS runs them on one thread, so
no change of the library's BLAS threading can change it. The host's
slowdown is the mean pass time over REF_MS. A unit of work (a run, a resume
cycle, a sweep) is divided by the slowdown of the samples taken during it,
and an epoch by that of the samples taken within LOCAL_EPOCHS epochs of it,
which follows the host's swings within seconds and keeps most of them out of the
tail. Divided times read as on a host where the pass takes REF_MS.
"""

from __future__ import annotations

import time

import numpy as np

# Mean reference pass time, in ms, on the host the normalized times refer to: a
# round figure near what the pass takes on a 2-vCPU Xeon VM (numpy 2.4, OpenBLAS 0.3.31).
REF_MS = 1.0
# A reference pass follows every REF_EVERY-th epoch.
REF_EVERY = 2
# An epoch is divided by the slowdown of the passes at most this many epochs away.
LOCAL_EPOCHS = 2
# Passes each set-up probe runs when its set-up is done.
SETUP_REF_PASSES = 20

_BATCH = 128
_rng = np.random.default_rng(20210323)
_WEIGHTS = [_rng.standard_normal(s) / np.sqrt(s[0]) for s in ((20, 32), (32, 16), (16, 4))]
_X = _rng.standard_normal((4 * _BATCH, 20))
_Y = _rng.integers(0, 4, 4 * _BATCH)
_TEST = _rng.standard_normal((8 * _BATCH, 20))


def reference_pass() -> None:
    """Four SGD steps of a row-normalized tanh MLP 20-32-16-4 and a 1024-row eval."""
    weights = [w.copy() for w in _WEIGHTS]
    rows = np.arange(_BATCH)
    for b in range(len(_X) // _BATCH):
        acts = [_X[b * _BATCH:(b + 1) * _BATCH]]
        for w in weights[:-1]:
            acts.append(np.tanh(acts[-1] @ w / np.linalg.norm(w, axis=0)))
        logits = acts[-1] @ weights[-1]
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, _Y[b * _BATCH:(b + 1) * _BATCH]] -= 1.0
        d = p / _BATCH
        for i in range(len(weights) - 1, -1, -1):
            grad = acts[i].T @ d
            d = d @ weights[i].T
            if i:
                d *= 1.0 - acts[i] ** 2
            weights[i] -= 0.01 * grad
    for c in range(0, len(_TEST), _BATCH):
        h = _TEST[c:c + _BATCH]
        for w in weights:
            h = np.tanh(h @ w)


def timed_passes(count: int) -> list[float]:
    """Times of ``count`` reference passes, in ms."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_pass()
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def slowdown(ref_ms: list[float]) -> float:
    """How much slower than the reference host the samples say this host ran."""
    if not ref_ms:
        raise ValueError("no reference passes were sampled")
    return sum(ref_ms) / len(ref_ms) / REF_MS


def epoch_slowdowns(epochs: int, ref_ms: list[float]) -> list[float]:
    """Per epoch of a run, the slowdown of the passes taken near it.

    Pass k of a run follows its epoch (k + 1) * REF_EVERY - 1, counted from 0.
    """
    after = [(k + 1) * REF_EVERY - 1 for k in range(len(ref_ms))]
    out = []
    for i in range(epochs):
        near = [ms for at, ms in zip(after, ref_ms) if abs(at - i) <= LOCAL_EPOCHS]
        out.append(slowdown(near or ref_ms))
    return out
