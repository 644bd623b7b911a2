"""Grid sweeps over a template config.

A grid specification is ``name=v1,v2,...`` groups joined by semicolons, e.g.
``base_lr=0.5,1,2;decay_factor=0.5,0.2,0.1``. Sweepable names: ``base_lr``,
``decay_factor`` (the decay multiplier of whichever schedule is configured),
``init_scale`` and ``weight_decay``. Each grid point trains in its own
subdirectory of the sweep directory; failures are recorded in the summary
and do not stop the sweep. Points may run in parallel worker processes,
each of which runs its BLAS calls on one thread.

Families: grid points with the same ``watch_key``, configs equal but for
``schedule`` and ``log_dir``, train identically until their lrs first
differ. On the sweepable axes these are the points that differ only in
``decay_factor``. The first point of a family in grid order, its leader,
trains from scratch and watches the others, its followers, through the
``on_epoch`` hook of ``run_experiment`` (``_watcher``). At the end of the
last epoch E both trained alike, the leader writes the follower's rows of
epochs 1..E and hands over the fork, its state at E. The follower resumes
from the fork, so those ``metrics.csv`` rows carry the leader's ``wall_ms``
and its ``meta.json`` reports ``start_epoch = E``. Every other byte of its
logs equals that of an independent run of the point. A follower forked
before its leader failed still resumes from the fork. A follower without a
fork (its lr differs from epoch 1 on or never does, or its leader failed
first) trains from scratch once its leader has returned. A grid without a
``decay_factor`` axis has one-point families, all of them leaders.

Order: with ``jobs = 1`` the leaders run in grid order, then each leader's
followers in the order the leaders finished. With ``jobs > 1`` a follower
starts at its fork, while its leader trains on: the worker puts each fork
on one queue, and a done-callback of each point's future puts its
completion on the same queue, so the parent reads a leader's forks before
its completion. At most ``jobs`` points run at a time, and the next to
start is the ready point with the most epochs left, ties in grid order, so
a late fork's long tail does not wait behind shorter runs.
"""

from __future__ import annotations

import csv
import ctypes
import io
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path

from .adaptive import make_scheduler
from .config import ConfigError, ExperimentConfig, _parse_float, format_config
from .runner import (DivergenceError, EpochRecord, RunState, _lr_events, _schedule_lr,
                     _write_fork_logs, run_experiment, write_atomic)

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
            values = [_parse_float(v) for v in rest.split(",") if v.strip()]
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
    """Limit OpenBLAS to one thread in this pool worker.

    The workers already share the cores, so the BLAS threads each one
    inherits would oversubscribe them. Without a setter nothing changes.
    """
    setter = _openblas("set_num_threads")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


def watch_key(config: ExperimentConfig) -> tuple:
    """What the points of a family share: every field but ``schedule`` and ``log_dir``."""
    return tuple(getattr(config, f.name) for f in fields(config)
                 if f.name not in ("schedule", "log_dir"))


def _watcher(leader: ExperimentConfig, followers: list[ExperimentConfig], on_fork):
    """The ``on_epoch`` hook of ``leader``'s run from scratch, watching
    ``followers`` of its family: at the first boundary E >= 1 after which
    ``followers[i]``'s lr or ``warmup_epochs`` differs from the leader's, its
    logs of epochs 1..E are written and ``on_fork(i, state)`` gets the state at
    E. A follower that differs from epoch 1 on, or never, gets no fork."""

    def plan(scheduler, config: ExperimentConfig, epoch: int) -> tuple:
        return _schedule_lr(scheduler, config.schedule, epoch), config.schedule.warmup_epochs

    first = plan(make_scheduler(leader.schedule), leader, 1)
    schedulers = [make_scheduler(config.schedule) for config in followers]
    # (index, config, scheduler, lr events) of each follower yet to fork
    watched = [(i, config, scheduler, []) for i, (config, scheduler)
               in enumerate(zip(followers, schedulers)) if plan(scheduler, config, 1) == first]
    records: list[EpochRecord] = []

    def on_epoch(rec: EpochRecord, state: RunState) -> None:
        records.append(rec)
        ahead = plan(state.scheduler, leader, rec.epoch + 1)
        for track in list(watched):
            i, config, scheduler, events = track
            events += _lr_events(scheduler, config.schedule, rec, config.epochs)
            if plan(scheduler, config, rec.epoch + 1) != ahead:
                watched.remove(track)
                _write_fork_logs(config, records, events)
                on_fork(i, replace(state, scheduler=scheduler))

    return on_epoch


# (index, config, grid values, configs it watches, state it resumes from)
Task = tuple[int, ExperimentConfig, dict[str, float], list[ExperimentConfig], RunState | None]

_forks = None  # in a pool worker, the queue that carries forks to the parent


def _init_worker(queue) -> None:
    """Pool initializer: one BLAS thread, and the parent's queue for forks."""
    global _forks
    _forks = queue
    _one_blas_thread()


def _run_point(task: Task, on_fork) -> SweepPoint:
    """Train one point and return its summary row; ``on_fork(i, state)`` is
    called for each config it watches as soon as that config forks."""
    index, config, values, watch, state = task
    point = SweepPoint(index=index, values=values, status="ok", log_dir=config.log_dir)
    try:
        on_epoch = _watcher(config, watch, on_fork) if watch else None
        result = run_experiment(config, resume_state=state, on_epoch=on_epoch)
    except DivergenceError:
        point.status = "diverged"
        return point
    except Exception as exc:  # individual failures must not kill the sweep
        point.status = f"error: {exc}"
        return point
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
    return point


def _stream_point(task: Task) -> SweepPoint:
    """``_run_point`` in a pool worker, putting each fork on the queue as it is taken."""
    index = task[0]
    return _run_point(task, lambda i, state: _forks.put(("fork", index, i, state)))


def _start_order(task: Task) -> tuple[int, int]:
    """The pool starts the ready task with the most epochs left, ties in grid order."""
    index, config, _, _, state = task
    return (state.epoch if state is not None else 0) - config.epochs, index


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
        families.setdefault(watch_key(config), []).append((index, config, values))
    # tasks ready to start: the leaders, then followers as they fork or their leaders return
    ready: list[Task] = [(*leader, [f[1] for f in rest], None)
                         for leader, *rest in families.values()]
    # each leader's followers yet to be submitted, by their place in its watch list
    followers = {leader[0]: dict(enumerate(rest)) for leader, *rest in families.values()}
    by_index: dict[int, SweepPoint] = {}

    if jobs > 1:
        # Imported here: the pool's modules cost about 25 ms at import time.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # One queue carries both kinds of message: ("fork", leader, i, state)
        # from a worker, put before that leader returns, and ("done", index)
        # from a future's done-callback. So a leader's forks arrive before it
        # is done, and the parent waits on nothing else.
        queue = multiprocessing.SimpleQueue()
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(queue,)) as pool:
            running = {}
            while ready or running:
                while ready and len(running) < jobs:
                    task = min(ready, key=_start_order)
                    ready.remove(task)
                    future = pool.submit(_stream_point, task)
                    running[task[0]] = future
                    future.add_done_callback(lambda _, index=task[0]: queue.put(("done", index)))
                kind, index, *fork = queue.get()
                if kind == "fork":
                    i, state = fork
                    ready.append((*followers[index].pop(i), [], state))
                else:
                    by_index[index] = running.pop(index).result()
                    ready += [(*f, [], None) for f in followers.pop(index, {}).values()]
        queue.close()
    else:
        while ready:
            task = ready.pop(0)
            forks: dict[int, RunState] = {}
            by_index[task[0]] = _run_point(task, forks.__setitem__)
            ready += [(*f, [], forks.get(i)) for i, f in followers.pop(task[0], {}).items()]
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
