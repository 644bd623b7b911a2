"""Grid sweeps over a template config.

A grid specification is ``name=v1,v2,...`` groups joined by semicolons, e.g.
``base_lr=0.5,1,2;schedule.smoothing_window=1,5``. An axis is an int or
float config key, read with its parser, or an alias (``_ALIASES``). A point
is the template's canonical text with its key lines replaced, through
``parse_config``; a key the text does not carry, or that two axes set, is
refused. Each grid point trains in its own subdirectory of the sweep
directory; failures are recorded in the summary and do not stop the sweep.
Points may run in parallel worker processes, each of which runs its BLAS
calls on one thread.

Families: configs with the same ``watch_key``, equal but for ``schedule``
and ``log_dir``, train identically until their lrs first differ, as grid
points that differ only in ``decay_factor`` or ``schedule.*`` keys do. The
first of a family in the given order, its leader, trains from scratch and
watches the others, its followers, through the ``on_epoch`` hook of
``run_experiment`` (``_watcher``). At the end of the last epoch E both
trained alike, the leader writes the follower's rows of epochs 1..E and
hands over the fork, its state at E. The follower resumes from the fork, so
those ``metrics.csv`` rows carry the leader's ``wall_ms`` and its
``meta.json`` reports ``start_epoch = E``; every other byte of its logs
equals an independent run's. A follower forked before its leader failed
still resumes from the fork; one without a fork (its lr differs from epoch 1
on or never does, or its leader failed first) trains from scratch once its
leader has returned.

Order: ``run_tree`` is the one loop for every ``jobs``. At most ``jobs``
points run at a time, and the next to start is the ready one with the most
epochs left, ties in the given order, so a late fork's long tail does not
wait behind shorter runs. A point's forks, then its completion, arrive on
one queue. With ``jobs > 1`` points train in pool workers, and a follower
starts at its fork while its leader trains on; with ``jobs = 1`` each point
trains in the calling process.
"""

from __future__ import annotations

import csv
import ctypes
import io
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import product
from pathlib import Path

from .adaptive import make_scheduler
from .config import (_FLOAT, _INT, _SCHEMA, _WRITTEN_WHEN_SET, ConfigError, ExperimentConfig,
                     _fmt_value, format_config, parse_config)
from .runner import (DivergenceError, EpochRecord, RunState, _lr_events, _schedule_lr,
                     _write_fork_logs, run_experiment, write_atomic)

# The two grid axes that are not config keys. decay_factor is abel's key, or the one
# _DECAY_KEYS gives the template's schedule kind (stepwise: every milestone's factor).
_ALIASES = {"init_scale": "model.init_scale", "decay_factor": "schedule.decay_factor"}
_DECAY_KEYS = {"simple": "schedule.factor", "plateau": "schedule.factor",
               "stepwise": "schedule.milestones"}


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
        parse = _SCHEMA.get(_ALIASES.get(name, name), (None,))[0]
        if not eq or parse not in (_INT, _FLOAT):
            raise ConfigError(f"grid axis must be an int or float config key, got {name!r}")
        try:
            values = [parse(v) for v in rest.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"bad grid values for {name!r}: {rest!r}") from None
        if not values:
            raise ConfigError(f"empty grid for {name!r}")
        if len(set(values)) != len(values):
            raise ConfigError(f"grid axis {name!r} repeats a value: {rest!r}")
        if name in grid:
            raise ConfigError(f"grid axis {name!r} is given twice")
        grid[name] = values
    if not grid:
        raise ConfigError("empty grid specification")
    return grid


def apply_point(config: ExperimentConfig, values: dict[str, float]) -> ExperimentConfig:
    """``config``'s canonical text with one grid point's key lines replaced, parsed."""
    lines = dict(line.split(" = ", 1) for line in format_config(config).splitlines())
    point: dict[str, str] = {}
    for name, value in values.items():
        key = _ALIASES.get(name, name)
        if name == "decay_factor":
            key = _DECAY_KEYS.get(config.schedule.kind, key)
        if key == "schedule.milestones":
            value = tuple((epoch, value) for epoch, _ in config.schedule.milestones)
        if not lines.get(key) and key not in _WRITTEN_WHEN_SET:  # "" for no milestones
            raise ConfigError(f"grid axis {name!r}: the template does not carry {key!r}")
        if key in point:
            raise ConfigError(f"two grid axes set {key!r}")
        point[key] = _fmt_value(value)
    return parse_config("".join(f"{key} = {value}\n" for key, value in {**lines, **point}.items()))


def _point_dir_name(index: int, values: dict[str, float]) -> str:
    tags = "__".join(f"{k}={v if isinstance(v, int) else f'{v:g}'}" for k, v in values.items())
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


# (index, config, configs it watches, state it resumes from)
Task = tuple[int, ExperimentConfig, list[ExperimentConfig], RunState | None]

_forks = None  # in a pool worker, the queue that carries forks to the parent


def _init_worker(queue) -> None:
    """Pool initializer: the parent's queue for forks, and one BLAS thread, as
    the workers already share the cores; without a setter nothing changes."""
    global _forks
    _forks = queue
    setter = _openblas("set_num_threads")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _run_point(task: Task, forks=None) -> SweepPoint:
    """Train one point and return its summary row, ``values`` left empty; each
    fork of a config it watches goes on ``forks`` (in a pool worker, the queue
    from its initializer) as soon as it is taken."""
    index, config, watch, state = task
    forks = _forks if forks is None else forks
    try:
        on_epoch = (_watcher(config, watch, lambda i, fork: forks.put(("fork", index, i, fork)))
                    if watch else None)
        meta = run_experiment(config, resume_state=state, on_epoch=on_epoch).meta
    except DivergenceError:
        return SweepPoint(index, {}, "diverged", log_dir=config.log_dir)
    except Exception as exc:  # individual failures must not kill the sweep
        return SweepPoint(index, {}, f"error: {exc}", log_dir=config.log_dir)
    decays = tuple(ev["epoch"] for ev in meta["decay_events"])
    status = "auto_stopped" if meta["status"] == "auto_stopped" else "ok"
    return SweepPoint(index, {}, status, best_test_error=meta["best_test_error"],
                      best_epoch=meta["best_epoch"], final_test_error=meta["final_test_error"],
                      first_decay_epoch=decays[0] if decays else None, n_decays=len(decays),
                      decay_epochs=decays, log_dir=config.log_dir)


def _start_order(task: Task) -> tuple[int, int]:
    """The next to start is the ready task with the most epochs left, ties in order."""
    index, config, _, state = task
    return (state.epoch if state is not None else 0) - config.epochs, index


def run_tree(configs: list[ExperimentConfig], jobs: int = 1) -> list[SweepPoint]:
    """Train ``configs`` as families, at most ``jobs`` at a time; returns each
    config's summary row, in order, with ``values`` left empty."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    families: dict[tuple, list] = {}
    for index, config in enumerate(configs):
        families.setdefault(watch_key(config), []).append((index, config))
    # tasks ready to start: the leaders, then followers as they fork or their leaders return
    ready: list[Task] = [(*leader, [f[1] for f in rest], None)
                         for leader, *rest in families.values()]
    # each leader's followers yet to start, by their place in its watch list
    followers = {leader[0]: dict(enumerate(rest)) for leader, *rest in families.values()}
    points: dict[int, SweepPoint] = {}
    with ExitStack() as stack:
        if jobs > 1:
            # Imported here: the pool's modules cost about 25 ms at import time.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            queue = multiprocessing.SimpleQueue()
            stack.callback(queue.close)  # after the pool has shut down
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker, initargs=(queue,)))
            submit = partial(pool.submit, _run_point)
        else:
            from concurrent.futures import Future
            from queue import SimpleQueue

            queue = SimpleQueue()

            def submit(task: Task) -> Future:  # the point trains now, in this process
                future = Future()
                future.set_result(_run_point(task, queue))
                return future

        # ("fork", leader, i, state) comes from the point, before it returns, and
        # ("done", index) from its future's done-callback, so a leader's forks
        # arrive before it is done, and the loop waits on nothing else.
        running = {}
        while ready or running:
            while ready and len(running) < jobs:
                task = min(ready, key=_start_order)
                ready.remove(task)
                running[task[0]] = future = submit(task)
                future.add_done_callback(lambda _, index=task[0]: queue.put(("done", index)))
            kind, index, *fork = queue.get()
            if kind == "fork":
                i, state = fork
                ready.append((*followers[index].pop(i), [], state))
            else:
                points[index] = running.pop(index).result()
                ready += [(*f, [], None) for f in followers.pop(index, {}).values()]
    return [points[index] for index in range(len(configs))]


def run_sweep(template: ExperimentConfig, grid: dict[str, list[float]],
              sweep_dir: str | Path, jobs: int = 1) -> list[SweepPoint]:
    """One run per grid point, through ``run_tree``; returns summary rows and
    writes template.txt and summary.csv."""
    sweep_dir = Path(sweep_dir)
    names = list(grid)
    grid_values = [dict(zip(names, combo)) for combo in product(*(grid[n] for n in names))]
    # every point is built before any trains, so a refused one leaves no sweep directory
    configs = [replace(apply_point(template, values),
                       log_dir=str(sweep_dir / _point_dir_name(index, values)))
               for index, values in enumerate(grid_values)]
    points = run_tree(configs, jobs)
    for point, values in zip(points, grid_values):
        point.values = values
    sweep_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(sweep_dir / "template.txt", format_config(template).encode())

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
