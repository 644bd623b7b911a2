"""Statistics, log digests and environment facts for the benchmark."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
from contextlib import contextmanager
from pathlib import Path

# A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10

LOG_FILES = ("metrics.csv", "layers.csv", "events.csv")


def highest_percentile(n: int, beyond: int = TAIL_SAMPLES) -> int | None:
    """Highest whole percentile q with at least ``beyond`` of n samples above it.

    The samples above percentile q number n * (100 - q) / 100, so q may be at
    most 100 - 100 * beyond / n. None when n is too small for any percentile.
    """
    if n <= beyond:
        return None
    return math.floor(100 - 100 * beyond / n + 1e-9)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile of the values (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(values: list[float], q: int) -> float:
    """Percentile q, refused unless at least TAIL_SAMPLES samples lie beyond it."""
    top = highest_percentile(len(values))
    if top is None or q > top:
        raise ValueError(f"p{q} needs more than {len(values)} samples "
                         f"({TAIL_SAMPLES} must lie beyond it)")
    return percentile(values, q)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def strip_wall_ms(text: str) -> str:
    """Log text with the ``wall_ms`` column removed, when the header has one.

    ``wall_ms`` is the last column of ``metrics.csv`` and the only field that
    differs between identical runs.
    """
    lines = text.splitlines(keepends=True)
    if not lines or lines[0].rstrip("\n").split(",")[-1] != "wall_ms":
        return text
    return "".join(line.rstrip("\n").rsplit(",", 1)[0] + "\n" for line in lines)


def log_digests(log_dir: Path) -> dict[str, str]:
    """sha256 of each log file of a run, ``wall_ms`` stripped."""
    return {name: hashlib.sha256(strip_wall_ms((log_dir / name).read_text()).encode())
            .hexdigest() for name in LOG_FILES}


def log_bytes_per_epoch(log_dir: Path) -> float:
    """Bytes of the log files of a run, per logged epoch."""
    size = sum((log_dir / name).stat().st_size for name in LOG_FILES)
    return size / (len((log_dir / "metrics.csv").read_text().splitlines()) - 1)


def log_rows_after(log_dir: Path, epoch: int) -> dict[str, list[str]]:
    """Rows of each log file for epochs after ``epoch``, ``wall_ms`` stripped."""
    out = {}
    for name in LOG_FILES:
        rows = strip_wall_ms((log_dir / name).read_text()).splitlines()[1:]
        out[name] = [row for row in rows if int(row.split(",", 1)[0]) > epoch]
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _blas_library() -> str | None:
    """Path of the BLAS library numpy has loaded into this process."""
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "blas" in os.path.basename(path).lower():
                return path
    return None


def _openblas_function(stem: str):
    """An OpenBLAS entry point such as ``get_num_threads``, under any build's prefix."""
    path = _blas_library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for prefix in ("openblas_", "scipy_openblas_"):
        for suffix in ("", "64_"):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use for a call from this process."""
    fn = _openblas_function("get_num_threads")
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


@contextmanager
def blas_threads_pinned(count: int):
    """Run the body with OpenBLAS limited to ``count`` threads, then restore.

    Worker processes forked inside the body inherit the limit.
    """
    before = blas_threads()
    fn = _openblas_function("set_num_threads")
    if fn is None or before is None:
        raise RuntimeError("cannot set the BLAS thread count: OpenBLAS not found")
    fn.argtypes = [ctypes.c_int]
    fn.restype = None
    fn(count)
    try:
        yield
    finally:
        fn(before)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": os.path.basename(_blas_library() or "unknown"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
