"""Grid sweeps over a template config.

A grid specification is ``name=v1,v2,...`` groups joined by semicolons, e.g.
``base_lr=0.5,1,2;decay_factor=0.5,0.2,0.1``. Sweepable names: ``base_lr``,
``decay_factor`` (the decay multiplier of whichever schedule is configured),
``init_scale`` and ``weight_decay``. Each grid point trains in its own
subdirectory of the sweep directory; failures are recorded in the summary
and do not stop the sweep. Points may run in parallel worker processes,
each of which runs its BLAS calls on one thread.

Families: grid points whose values agree on every axis except
``decay_factor`` train identically until their lrs first differ. The first
point of such a family in grid order, its leader, trains from scratch and
watches the others, its followers (``run_experiment(watch=...)``). Each
follower is submitted once the leader has returned and resumes from the
fork the leader took for it, at the end of the last epoch E both trained
alike; the leader has already written the follower's rows of epochs 1..E,
so those ``metrics.csv`` rows carry the leader's ``wall_ms``, and the
follower's ``meta.json`` reports ``start_epoch = E``. Every other byte of
its logs equals that of an independent run of the point. A follower without
a fork (its lr differs from epoch 1 on or never does, or the leader failed)
trains from scratch. A grid without a ``decay_factor`` axis has one-point
families, all of them leaders.
"""

from __future__ import annotations

import csv
import ctypes
import io
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

from .config import ConfigError, ExperimentConfig, format_config
from .runner import DivergenceError, RunState, run_experiment, write_atomic

SWEEPABLE = ("base_lr", "decay_factor", "init_scale", "weight_decay")


@dataclass
class SweepPoint:
    index: int
    values: dict[str, float]
    status: str
    best_test_error: float | None = None
    best_epoch: int | None = None
    final_test_error: float | None = None
    first_decay_epoch: int | None = None
    n_decays: int = 0
    decay_epochs: tuple[int, ...] = ()
    log_dir: str = ""


def parse_grid(spec: str) -> dict[str, list[float]]:
    grid: dict[str, list[float]] = {}
    for group in spec.split(";"):
        group = group.strip()
        if not group:
            continue
        name, eq, rest = group.partition("=")
        name = name.strip()
        if not eq or name not in SWEEPABLE:
            raise ConfigError(f"grid axis must be one of {SWEEPABLE}, got {name!r}")
        try:
            values = [float(v) for v in rest.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"bad grid values for {name!r}: {rest!r}") from None
        if not values:
            raise ConfigError(f"empty grid for {name!r}")
        if name in grid:
            raise ConfigError(f"grid axis {name!r} is given twice")
        grid[name] = values
    if not grid:
        raise ConfigError("empty grid specification")
    return grid


def apply_point(config: ExperimentConfig, values: dict[str, float]) -> ExperimentConfig:
    """Template config with one grid point's values substituted."""
    sched = config.schedule
    changes: dict[str, object] = {}
    for name, value in values.items():
        if name == "base_lr":
            changes["base_lr"] = value
            sched = replace(sched, base_lr=value)
        elif name == "decay_factor":
            if sched.kind == "abel":
                sched = replace(sched, decay_factor=value)
            elif sched.kind in ("simple", "plateau"):
                sched = replace(sched, factor=value)
            elif sched.kind == "stepwise":
                sched = replace(sched, milestones=tuple(
                    (epoch, value) for epoch, _ in sched.milestones))
            else:
                raise ConfigError(
                    f"decay_factor does not apply to a {sched.kind!r} schedule")
        elif name == "init_scale":
            changes["model"] = replace(config.model, init_scale=value)
        elif name == "weight_decay":
            changes["weight_decay"] = value
    return replace(config, schedule=sched, **changes)


def _point_dir_name(index: int, values: dict[str, float]) -> str:
    tags = "__".join(f"{k}={v:g}" for k, v in values.items())
    return f"point_{index:03d}__{tags}"


def _openblas(stem: str):
    """Entry point ``stem`` of numpy's bundled OpenBLAS (e.g. ``set_num_threads``), or None.

    numpy's extension module links OpenBLAS, so its symbols resolve through it.
    """
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread() -> None:
    """Pool initializer: limit OpenBLAS to one thread in this worker.

    The workers already share the cores, so the BLAS threads each one
    inherits would oversubscribe them. Without a setter nothing changes.
    """
    setter = _openblas("set_num_threads")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


# (index, config, grid values, configs it watches, state it resumes from)
Task = tuple[int, ExperimentConfig, dict[str, float], list[ExperimentConfig], RunState | None]


def _run_point(task: Task) -> tuple[SweepPoint, list[RunState | None]]:
    """Train one point; returns its summary row and a fork (or None) for
    each config it watched."""
    index, config, values, watch, state = task
    point = SweepPoint(index=index, values=values, status="ok", log_dir=config.log_dir)
    try:
        result = run_experiment(config, resume_state=state, watch=watch)
    except DivergenceError:
        point.status = "diverged"
        return point, [None] * len(watch)
    except Exception as exc:  # individual failures must not kill the sweep
        point.status = f"error: {exc}"
        return point, [None] * len(watch)
    meta = result.meta
    decays = [ev["epoch"] for ev in meta["decay_events"]]
    point.best_test_error = meta["best_test_error"]
    point.best_epoch = meta["best_epoch"]
    point.final_test_error = meta["final_test_error"]
    point.first_decay_epoch = decays[0] if decays else None
    point.n_decays = len(decays)
    point.decay_epochs = tuple(decays)
    if meta["status"] == "auto_stopped":
        point.status = "auto_stopped"
    return point, result.forks


def run_sweep(template: ExperimentConfig, grid: dict[str, list[float]],
              sweep_dir: str | Path, jobs: int = 1) -> list[SweepPoint]:
    """One run per grid point; returns summary rows and writes summary.csv."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    sweep_dir = Path(sweep_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(sweep_dir / "template.txt", format_config(template).encode())

    names = list(grid)
    families: dict[tuple, list] = {}
    for index, combo in enumerate(product(*(grid[name] for name in names))):
        values = dict(zip(names, combo))
        config = apply_point(template, values)
        config = replace(config, log_dir=str(sweep_dir / _point_dir_name(index, values)))
        family = tuple(v for name, v in values.items() if name != "decay_factor")
        families.setdefault(family, []).append((index, config, values))
    # tasks to submit: leaders in grid order, then followers as their forks arrive
    ready: list[Task] = [(*leader, [f[1] for f in rest], None)
                         for leader, *rest in families.values()]
    followers = {leader[0]: rest for leader, *rest in families.values()}

    by_index: dict[int, SweepPoint] = {}

    def finish(point: SweepPoint, forks: list[RunState | None]) -> list[Task]:
        by_index[point.index] = point
        return [(*task, [], fork)
                for task, fork in zip(followers.pop(point.index, ()), forks, strict=True)]

    if jobs > 1:
        # Imported here: the pool's modules cost about 25 ms at import time.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        with ProcessPoolExecutor(max_workers=jobs, initializer=_one_blas_thread) as pool:
            running = set()
            while ready or running:
                running |= {pool.submit(_run_point, task) for task in ready}
                ready = []
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    ready += finish(*future.result())
    else:
        while ready:
            ready += finish(*_run_point(ready.pop(0)))
    points = [by_index[index] for index in sorted(by_index)]

    # csv quotes only a field that needs it, such as an error status with a
    # comma; it writes None as an empty field and a float as its repr
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["point", *names, "status", "best_test_error", "best_epoch",
                   "final_test_error", "first_decay_epoch", "n_decays", "decay_epochs"])
    for p in points:
        rows.writerow([p.index, *(p.values[name] for name in names), p.status,
                       p.best_test_error, p.best_epoch, p.final_test_error,
                       p.first_decay_epoch, p.n_decays,
                       ";".join(str(e) for e in p.decay_epochs)])
    write_atomic(sweep_dir / "summary.csv", out.getvalue().encode())
    return points
