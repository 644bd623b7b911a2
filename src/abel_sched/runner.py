"""Reproducible training runs with per-epoch logging and auto-stop.

One run writes four files into its log directory:

* ``metrics.csv`` -- one row per epoch, fixed column order
  ``epoch,lr,train_loss,train_error,test_error,wsq_total,wsq_l2_only,
  gw_total,wall_ms``. Floats use round-trippable repr; ``gw_total`` is
  empty unless enabled; ``wall_ms`` (last column) is wall-clock and is the
  only non-deterministic field.
* ``layers.csv`` -- long-format per-layer squared norms
  (``epoch,layer,wsq``).
* ``events.csv`` -- learning-rate changes (``epoch,old_lr,new_lr,trigger``).
* ``meta.json`` -- config hash, package version, final status and summary.
* ``config.txt`` -- the canonical config text.

Determinism: parameters come from ``seed``; the epoch-e minibatch order
is ``default_rng([seed, e]).permutation(n)``, so resuming at any epoch
reproduces the remaining records exactly. The orders of the epochs a call
trains are drawn ahead of them, back to back, into blocks of at most 1 MiB
in the narrowest unsigned dtype that holds ``n - 1`` (the standard run's
200 orders fill one block, drawn before its first epoch); each is cast to
``intp`` once, as its epoch starts. The squared weight norm is
measured after the last optimizer step of an epoch, before the scheduler
observes it; the bounce scheduler watches the total squared norm, the
plateau scheduler watches the epoch's mean training loss.

Auto-stop: when ``auto_stop_min_improvement > 0``, training stops a fixed
3 epochs after any bounce decay whose improvement in best test error is
below the threshold (best over all epochs up to the decay versus best in
the 3 epochs after it). The decays come from the scheduler's decay log and
the test errors of earlier epochs from the checkpoint, so a resumed run
stops where the uninterrupted run does.

Resume: a run resumed into a log directory that already holds logs cuts
each log back to the checkpoint epoch and appends to it, so the directory
ends up with the logs of an uninterrupted run. A resumed run's
``meta.json`` summarizes the whole run: its best and final test errors come
from the checkpoint's test errors plus the new epochs, and its decay events
include those before the checkpoint; only ``start_epoch`` tells it apart
from the uninterrupted run's. Logs that lack a row at or before the
checkpoint epoch (or a whole file) refuse the resume with
:class:`ResumeRefusedError`, and so do logs that the checkpointed run did
not write: a kept row whose test error is not the checkpoint's for that
epoch, or a ``config.txt`` that differs from the resumed config in more
than ``log_dir`` and an allowed change of ``epochs``. So does a resume
state whose test errors or scheduler cover another number of epochs than
the checkpoint.
``meta.json``, ``config.txt`` and checkpoints are written through a temp
file and ``os.replace``, so a crash never leaves a torn file; the next run in
that log directory removes a temp file that a crash left.
"""

from __future__ import annotations

import copy
import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__ as _version
from .adaptive import AbelScheduler, PlateauScheduler, make_scheduler
from .config import ConfigError, ExperimentConfig, config_hash, format_config
from .datasets import dataset_meta, make_dataset
from .models import Model, ModelArch, NumericError, StepStats
from .optim import AdamState, MomentumState, clip_flat
from .params import ParamSet, inner_gw, weight_norm_sq
from .schedules import (BUDGET_FREE_KINDS, LrEvent, ScheduleSpec, has_discrete_milestones,
                        lr_at, warmup_scale)

AUTO_STOP_SETTLE_EPOCHS = 3
_ORDER_BLOCK_BYTES = 1 << 20  # the most memory one block of drawn epoch orders takes

METRICS_COLUMNS = ("epoch", "lr", "train_loss", "train_error", "test_error",
                   "wsq_total", "wsq_l2_only", "gw_total", "wall_ms")

LOG_HEADERS = {
    "metrics.csv": ",".join(METRICS_COLUMNS),
    "layers.csv": "epoch,layer,wsq",
    "events.csv": "epoch,old_lr,new_lr,trigger",
}


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss or squared weight norm."""


class ResumeRefusedError(RuntimeError):
    """Raised when a resume request contradicts the checkpointed run or its logs."""


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    train_error: float
    test_error: float
    wsq_total: float
    wsq_l2_only: float
    per_layer_wsq: dict[str, float]
    gw_total: float | None = None
    wall_ms: int = 0


@dataclass
class RunState:
    """Everything needed to continue a run from an epoch boundary.

    ``scheduler`` is the live scheduler after ``epoch`` observations, or None
    for a stateless schedule; a resumed run works on a copy of it."""

    epoch: int
    global_step: int
    params: ParamSet
    opt: MomentumState | AdamState
    scheduler: AbelScheduler | PlateauScheduler | None
    test_errors: tuple[float, ...]  # of epochs 1..epoch, for auto-stop


@dataclass
class RunResult:
    """What a run returns. ``records`` and ``events`` cover the epochs this
    call trained; ``meta`` and the error properties cover the whole run, from
    epoch 1."""

    records: list[EpochRecord]
    events: list[LrEvent]
    meta: dict
    log_dir: Path

    @property
    def best_test_error(self) -> float:
        return self.meta["best_test_error"]

    @property
    def final_test_error(self) -> float:
        return self.meta["final_test_error"]


def build_model(config: ExperimentConfig) -> tuple[Model, dict]:
    """Model plus dataset metadata; the arch takes input_dim/classes from the data.

    Model settings that ``ModelArch`` refuses raise :class:`ConfigError`."""
    train, test = make_dataset(config.dataset)
    meta = dataset_meta(config.dataset, train)
    m = config.model
    try:
        arch = ModelArch(
            input_dim=meta["input_dim"], hidden=m.hidden, classes=meta["classes"],
            kind=m.kind, activation=m.activation, normalize=m.normalize,
            init_scale=m.init_scale, input_shape=m.input_shape)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return Model(arch), {"train": train, "test": test, **meta}


def _init_opt(config: ExperimentConfig, params: ParamSet):
    if config.optimizer.kind == "momentum":
        return MomentumState.init(params, mu=config.optimizer.momentum)
    return AdamState.init(params, beta1=config.optimizer.beta1,
                          beta2=config.optimizer.beta2, eps=config.optimizer.eps)


def _check_resume_fits(config: ExperimentConfig, model: Model, state: RunState) -> None:
    """Refuse a resume state that ``config`` could not have produced: another
    optimizer or hyperparameters, another parameter layout, or an epoch past
    the budget. The loop trains the state's own layout and optimizer, so
    either would silently replace the config's."""
    o = config.optimizer
    wanted = (("momentum", o.momentum) if o.kind == "momentum"
              else ("adam", o.beta1, o.beta2, o.eps))
    opt = state.opt
    found = (("momentum", opt.mu) if isinstance(opt, MomentumState)
             else ("adam", opt.beta1, opt.beta2, opt.eps))
    if found != wanted:
        raise ResumeRefusedError(f"the resume state's optimizer {found} does not fit the "
                                 f"config's {wanted}")
    layout = state.params.layout
    if layout != model.init_params(config.seed).layout:
        shapes = dict(zip(layout.names, layout.shapes))
        raise ResumeRefusedError(f"the resume state's layers {shapes} do not fit the "
                                 f"config's model")
    if state.epoch > config.epochs:
        raise ResumeRefusedError(f"the resume state is at epoch {state.epoch}, past the "
                                 f"config's {config.epochs} epochs")


def _schedule_lr(scheduler: AbelScheduler | PlateauScheduler | None, spec: ScheduleSpec,
                 epoch: int) -> float:
    """The schedule's lr for the 1-based ``epoch``, before warmup: the
    scheduler's current lr, or the stateless schedule's value at t = epoch - 1."""
    if scheduler is not None:
        return scheduler.current_lr
    return lr_at(spec, epoch - 1)


def _lr_events(scheduler: AbelScheduler | PlateauScheduler | None, spec: ScheduleSpec,
               rec: EpochRecord, total_epochs: int) -> list[LrEvent]:
    """The schedule's lr changes at the end of ``rec``'s epoch: the bounce
    scheduler observes the squared weight norm, the plateau scheduler the mean
    training loss, and a stateless schedule may pass a milestone."""
    if isinstance(scheduler, AbelScheduler):
        return scheduler.observe_epoch(rec.wsq_total)[1]
    if scheduler is not None:
        return scheduler.observe_epoch(rec.train_loss)[1]
    return _milestone_events(spec, rec.epoch, total_epochs)


def _milestone_events(spec: ScheduleSpec, epoch: int, total_epochs: int) -> list[LrEvent]:
    """The milestone lr change at the end of ``epoch`` of a step-wise or simple schedule."""
    if not has_discrete_milestones(spec) or epoch >= total_epochs:
        return []
    old_lr, new_lr = lr_at(spec, epoch - 1), lr_at(spec, epoch)
    if new_lr == old_lr:
        return []
    return [LrEvent(epoch=epoch, old_lr=old_lr, new_lr=new_lr, trigger="milestone")]


def _fmt(value: float) -> str:
    return repr(float(value))


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temp file in the same directory.

    A reader sees the old file or the new one, never a torn one, and a write
    that fails leaves the old file in place and no temp file behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _log_history(log_dir: Path, config: ExperimentConfig,
                 test_errors: list[float]) -> dict[str, list[str]] | None:
    """The rows of ``log_dir``'s logs up to the checkpoint epoch, the number
    of ``test_errors``; None when it holds no logs.

    The logs must be the checkpointed run's: ``config.txt`` must be
    ``config``'s text (see ``_check_logged_config``), the metrics rows kept
    must be consecutive epochs ending at the checkpoint epoch, each with the
    checkpoint's test error of its epoch, bit for bit, and the per-layer rows
    must cover the same epochs. Anything else refuses.
    """
    if not (log_dir / "metrics.csv").exists():
        return None
    _check_logged_config(log_dir, config)
    epoch = len(test_errors)
    kept: dict[str, list[str]] = {}
    epochs: dict[str, list[int]] = {}
    for name, header in LOG_HEADERS.items():
        path = log_dir / name
        if not path.exists():
            raise ResumeRefusedError(f"cannot append to the logs in {log_dir}: no {name}")
        lines = path.read_text().splitlines()
        if not lines or lines[0] != header:
            raise ResumeRefusedError(f"cannot append to {path}: unexpected header")
        try:
            row_epochs = [int(line.split(",", 1)[0]) for line in lines[1:]]
        except ValueError:
            raise ResumeRefusedError(f"cannot append to {path}: unreadable row") from None
        kept[name] = [line for line, e in zip(lines[1:], row_epochs) if e <= epoch]
        epochs[name] = [e for e in row_epochs if e <= epoch]
    logged = epochs["metrics.csv"]
    first = logged[0] if logged else 1
    layer_epochs = list(dict.fromkeys(epochs["layers.csv"]))
    if logged != list(range(first, epoch + 1)) or layer_epochs != logged:
        raise ResumeRefusedError(
            f"the logs in {log_dir} lack rows up to the checkpoint epoch {epoch}; "
            f"resume into another log_dir")
    column = METRICS_COLUMNS.index("test_error")
    for line, e in zip(kept["metrics.csv"], logged):
        fields = line.split(",")
        # logs write round-trippable reprs, so equal text is equal bits
        if len(fields) != len(METRICS_COLUMNS) or fields[column] != _fmt(test_errors[e - 1]):
            raise ResumeRefusedError(
                f"the logs in {log_dir} were not written by the checkpointed run: epoch {e} "
                f"logs another test error than the checkpoint's; resume into another log_dir")
    return kept


def _check_logged_config(log_dir: Path, config: ExperimentConfig) -> None:
    """Refuse logs whose ``config.txt`` is not ``config``'s canonical text,
    naming the first key that differs. Only ``log_dir`` may differ, and
    ``epochs`` for a schedule whose lr does not depend on the budget (a
    resume may change it; ``schedule.total_epochs`` follows ``epochs``)."""
    path = log_dir / "config.txt"
    if not path.exists():
        raise ResumeRefusedError(f"cannot append to the logs in {log_dir}: no config.txt")
    free = {"log_dir"} | ({"epochs"} if config.schedule.kind in BUDGET_FREE_KINDS else set())
    logged, wanted = (dict(line.partition(" = ")[::2] for line in text.splitlines())
                      for text in (path.read_text(), format_config(config)))
    for key in dict.fromkeys([*wanted, *logged]):
        if key not in free and logged.get(key) != wanted.get(key):
            raise ResumeRefusedError(
                f"the logs in {log_dir} were written by another config: {key} is "
                f"{logged.get(key)!r} there, {wanted.get(key)!r} in the resumed run; "
                f"resume into another log_dir")


class _RunLog:
    """The run's log files, opened for appending after their header and any
    rows of ``history`` (see ``_log_history``). The temp files of
    ``write_atomic`` that a crash left in the directory are removed."""

    def __init__(self, log_dir: Path, config: ExperimentConfig,
                 history: dict[str, list[str]] | None = None):
        log_dir.mkdir(parents=True, exist_ok=True)
        for leftover in log_dir.glob(".*.[0-9]*.tmp"):  # .<name>.<pid>.tmp
            leftover.unlink(missing_ok=True)
        self.dir = log_dir
        write_atomic(log_dir / "config.txt", format_config(config).encode())
        for name, header in LOG_HEADERS.items():
            rows = [header, *(history[name] if history else ())]
            write_atomic(log_dir / name, "".join(row + "\n" for row in rows).encode())
        self.metrics = open(log_dir / "metrics.csv", "a")
        self.layers = open(log_dir / "layers.csv", "a")
        self.events = open(log_dir / "events.csv", "a")

    def write_record(self, rec: EpochRecord) -> None:
        gw = "" if rec.gw_total is None else _fmt(rec.gw_total)
        self.metrics.write(
            f"{rec.epoch},{_fmt(rec.lr)},{_fmt(rec.train_loss)},{_fmt(rec.train_error)},"
            f"{_fmt(rec.test_error)},{_fmt(rec.wsq_total)},{_fmt(rec.wsq_l2_only)},"
            f"{gw},{rec.wall_ms}\n")
        for name, wsq in rec.per_layer_wsq.items():
            self.layers.write(f"{rec.epoch},{name},{_fmt(wsq)}\n")
        self.flush()

    def write_events(self, events: list[LrEvent]) -> None:
        if not events:
            return
        for ev in events:
            self.events.write(f"{ev.epoch},{_fmt(ev.old_lr)},{_fmt(ev.new_lr)},{ev.trigger}\n")
        self.events.flush()

    def flush(self) -> None:
        self.metrics.flush()
        self.layers.flush()

    def close(self) -> None:
        self.metrics.close()
        self.layers.close()
        self.events.close()

    def write_meta(self, meta: dict) -> None:
        write_atomic(self.dir / "meta.json",
                     (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())


def _order_blocks(seed: int, n: int, start_epoch: int, epochs: int):
    """The minibatch orders of epochs ``start_epoch + 1 .. epochs``, one row
    each, in blocks of the narrowest unsigned dtype that holds ``n - 1`` and
    of at most ``_ORDER_BLOCK_BYTES`` (one row when a row alone is larger).
    Each block is drawn when the one before it is used up."""
    dtype = np.min_scalar_type(n - 1)
    per_block = max(1, _ORDER_BLOCK_BYTES // (n * dtype.itemsize))
    for first in range(start_epoch + 1, epochs + 1, per_block):
        block = np.empty((min(per_block, epochs + 1 - first), n), dtype)
        for epoch, row in enumerate(block, start=first):
            row[:] = np.random.default_rng([seed, epoch]).permutation(n)
        yield block


def _epoch_orders(seed: int, n: int, start_epoch: int, epochs: int):
    """The minibatch order of each epoch ``start_epoch + 1 .. epochs`` as
    ``intp``, for ``TrainSet.take``: epoch e's is
    ``default_rng([seed, e]).permutation(n)``, drawn ahead by ``_order_blocks``."""
    for block in _order_blocks(seed, n, start_epoch, epochs):
        for row in block:
            yield row.astype(np.intp)


def run_experiment(config: ExperimentConfig, resume_state: RunState | None = None,
                   quiet: bool = True,
                   on_epoch: Callable[[EpochRecord, RunState], None] | None = None) -> RunResult:
    """Train per the config, logging one record per epoch.

    ``resume_state`` continues a checkpointed run; only epochs after
    ``resume_state.epoch`` are executed, and they are appended to any logs
    already in ``config.log_dir`` (see the module docstring); the run leaves
    ``resume_state`` as it was. Raises :class:`DivergenceError` on a
    non-finite training loss or squared weight norm.

    ``on_epoch(rec, state)`` is called at each epoch boundary the run goes on
    from: after the epoch's logs, its checkpoint and the auto-stop check, and
    never after the last epoch. ``state``, from which the run could resume,
    holds its own copies of the weights and the optimizer state, but the live
    scheduler (see :class:`RunState`). A sweep's leader watches its family
    through it.
    """
    model, data = build_model(config)
    # the sets hold their own copies; popping the dataset's arrays frees them
    train = model.train_set(*data.pop("train"), config.label_smoothing)
    test = model.eval_set(*data.pop("test"))
    n = len(train)
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    spec = config.schedule

    if resume_state is None:
        params = model.init_params(config.seed)
        opt = _init_opt(config, params)
        scheduler = make_scheduler(spec)
        start_epoch = 0
        global_step = 0
        test_errors: list[float] = []
        run_events: list[LrEvent] = []
    else:
        _check_resume_fits(config, model, resume_state)
        params = resume_state.params
        opt = resume_state.opt.copy(params.layout)
        scheduler = copy.deepcopy(resume_state.scheduler)
        if isinstance(scheduler, AbelScheduler) and scheduler.total_epochs != config.epochs:
            scheduler.retarget(config.epochs)
        start_epoch = resume_state.epoch
        global_step = resume_state.global_step
        test_errors = list(resume_state.test_errors)
        if len(test_errors) != start_epoch:
            raise ResumeRefusedError(
                f"the resume state holds {len(test_errors)} test errors for "
                f"{start_epoch} epochs")
        if scheduler is not None and scheduler.epoch != start_epoch:
            raise ResumeRefusedError(
                f"the resume state's scheduler has seen {scheduler.epoch} epochs, "
                f"the checkpoint {start_epoch}")
        run_events = (list(scheduler.decay_log) if scheduler else
                      [ev for e in range(1, start_epoch + 1)
                       for ev in _milestone_events(spec, e, config.epochs)])

    history = (_log_history(Path(config.log_dir), config, test_errors)
               if resume_state is not None else None)
    log = _RunLog(Path(config.log_dir), config, history)
    meta = {
        "config_hash": config_hash(config),
        "version": _version,
        "status": "running",
        "start_epoch": start_epoch,
        "epochs": config.epochs,
    }
    log.write_meta(meta)

    records: list[EpochRecord] = []
    all_events: list[LrEvent] = []
    status = "completed"
    probe = slice(0, min(config.batch_size, n))
    # ``opt.update`` writes a live weight vector ``w`` (``live`` is a ParamSet
    # over it) and the optimizer state's buffers in place, both copies, so
    # ``resume_state`` is never written. The measurements read ``live``; only a
    # checkpoint or ``on_epoch`` gets a RunState, which copies both. Each epoch's
    # end reduces the logits each step records into ``stats`` to each step's loss and error.
    stats = StepStats(n, model.arch.classes)
    layout = params.layout
    w = params.flat.copy()
    live = ParamSet.from_flat(layout, w)
    update = opt.update

    orders = _epoch_orders(config.seed, n, start_epoch, config.epochs)
    try:
        for epoch, order in enumerate(orders, start=start_epoch + 1):
            lr_epoch = _schedule_lr(scheduler, spec, epoch)
            t0 = time.perf_counter()
            # One gather per epoch; each minibatch is then a contiguous slice.
            epoch_set = train.take(order)
            eff_lr = lr_epoch
            # non-finite values are caught by the reduction below, in step order
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, config.batch_size):
                    batch = epoch_set[start:start + config.batch_size]
                    grads = model.train_step_stats(live, batch, stats)
                    if config.clip_norm > 0:
                        clip_flat(grads.flat, layout.slices_in(grads.names), config.clip_norm)
                    eff_lr = lr_epoch * warmup_scale(global_step, steps_per_epoch,
                                                     spec.warmup_epochs)
                    update(layout, w, grads.flat, eff_lr, config.weight_decay)
                    global_step += 1
            loss_sum = 0.0
            err_sum = 0.0
            for loss, err, rows in stats.reduce(epoch_set.targets, epoch_set.y):
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                loss_sum += loss * rows
                err_sum += err * rows

            train_loss = loss_sum / n
            train_error = err_sum / n
            wsq_total, per_layer = weight_norm_sq(live)
            if not math.isfinite(wsq_total):
                raise NumericError(f"non-finite squared weight norm at epoch {epoch}")
            # the same dots as weight_norm_sq(live, include="l2_only"), summed in its order
            wsq_l2 = sum(v for v, l2 in zip(per_layer.values(), layout.l2) if l2)
            gw_total = None
            if config.log_gw:
                _, grads, _ = model.batch_stats(live, train[probe])
                gw_total, _ = inner_gw(live, grads)
            test_error = model.error_rate(live, test, batch_size=config.eval_batch)

            rec = EpochRecord(
                epoch=epoch, lr=eff_lr, train_loss=train_loss, train_error=train_error,
                test_error=test_error, wsq_total=wsq_total, wsq_l2_only=wsq_l2,
                per_layer_wsq=per_layer, gw_total=gw_total,
                wall_ms=int((time.perf_counter() - t0) * 1000))
            events = _lr_events(scheduler, spec, rec, config.epochs)
            records.append(rec)
            test_errors.append(test_error)
            all_events.extend(events)
            log.write_record(rec)
            log.write_events(events)

            checkpoint = config.checkpoint_every > 0 and epoch % config.checkpoint_every == 0
            hook = on_epoch is not None and epoch < config.epochs
            if checkpoint or hook:
                state = RunState(epoch=epoch, global_step=global_step,
                                 params=ParamSet.from_flat(layout, w.copy()),
                                 opt=opt.copy(layout),
                                 scheduler=scheduler, test_errors=tuple(test_errors))
            if checkpoint:
                from .checkpoint import save_checkpoint
                save_checkpoint(log.dir / f"epoch_{epoch:04d}.ckpt", config, state)

            if _should_auto_stop(config, test_errors,
                                 scheduler.decay_log if scheduler else (), epoch):
                status = "auto_stopped"
                break
            if hook:
                on_epoch(rec, state)
    except NumericError as exc:
        meta.update(status="diverged", error=str(exc),
                    epochs_run=start_epoch + len(records))
        log.write_meta(meta)
        log.close()
        raise DivergenceError(str(exc)) from exc

    # the whole run's summary: test errors and lr events from epoch 1 on
    best = min(range(len(test_errors)), key=test_errors.__getitem__, default=None)
    meta.update(
        status=status,
        epochs_run=start_epoch + len(records),
        best_test_error=None if best is None else test_errors[best],
        best_epoch=None if best is None else best + 1,
        final_test_error=test_errors[-1] if test_errors else None,
        decay_events=[{"epoch": ev.epoch, "old_lr": ev.old_lr, "new_lr": ev.new_lr,
                       "trigger": ev.trigger} for ev in run_events + all_events],
    )
    log.write_meta(meta)
    log.close()
    if not quiet:
        print(f"run {log.dir}: {meta['status']}, best test error "
              f"{meta['best_test_error']} at epoch {meta['best_epoch']}")
    return RunResult(records=records, events=all_events, meta=meta, log_dir=log.dir)


def _write_fork_logs(config: ExperimentConfig, records: list[EpochRecord],
                     events: list[LrEvent]) -> None:
    """Start ``config``'s logs with ``records`` and its own lr ``events``."""
    log = _RunLog(Path(config.log_dir), config)
    for rec in records:
        log.write_record(rec)
    log.write_events(events)
    log.close()


def _should_auto_stop(config: ExperimentConfig, test_errors: list[float],
                      decay_log: list[LrEvent], epoch: int) -> bool:
    """Whether a bounce decay settled at ``epoch`` with too small a gain;
    ``test_errors`` holds the test errors of epochs 1..epoch."""
    if config.auto_stop_min_improvement <= 0:
        return False
    for ev in decay_log:
        if ev.trigger == "bounce" and ev.epoch + AUTO_STOP_SETTLE_EPOCHS == epoch:
            before = min(test_errors[:ev.epoch])
            after = min(test_errors[ev.epoch:epoch])
            if before - after < config.auto_stop_min_improvement:
                return True
    return False


# -- reading logs back --------------------------------------------------------


def _read_rows(path: Path, parse) -> list:
    """``parse(*fields)`` of each row after ``path``'s header."""
    lines = path.read_text().splitlines()
    if lines and lines[0] != LOG_HEADERS[path.name]:
        raise ConfigError(f"unexpected header in {path}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            rows.append(parse(*line.split(",")))
        except (TypeError, ValueError):  # a wrong field count or a field that does not parse
            raise ConfigError(f"unreadable row at line {number} of {path}") from None
    return rows


def read_metrics(log_dir: str | Path) -> list[EpochRecord]:
    """Parse metrics.csv and layers.csv back into records. A damaged log, such
    as a layers.csv that lacks the last epoch's rows, raises ConfigError."""
    log_dir = Path(log_dir)
    per_layer: dict[int, dict[str, float]] = {}
    if (log_dir / "layers.csv").exists():
        for epoch, name, wsq in _read_rows(log_dir / "layers.csv",
                                           lambda e, name, w: (int(e), name, float(w))):
            per_layer.setdefault(epoch, {})[name] = wsq
    records = _read_rows(log_dir / "metrics.csv", lambda e, lr, loss, err, test, wsq, l2, gw, ms:
                         EpochRecord(int(e), float(lr), float(loss), float(err), float(test),
                                     float(wsq), float(l2), {}, float(gw) if gw else None,
                                     int(ms)))
    for rec in records:
        rec.per_layer_wsq = per_layer.get(rec.epoch, {})
        if rec.per_layer_wsq.keys() != records[0].per_layer_wsq.keys():
            raise ConfigError(f"{log_dir / 'layers.csv'} holds other layers for epoch "
                              f"{rec.epoch} than for epoch {records[0].epoch}")
    return records


def read_events(log_dir: str | Path) -> list[LrEvent]:
    return _read_rows(Path(log_dir) / "events.csv", lambda e, old, new, trigger: LrEvent(
        int(e), float(old), float(new), trigger))
