"""The benchmark's workloads and the correctness checks run with them.

Every workload trains the standard task of ``configs/blobs_abel.txt`` (kept
here as TEMPLATE, so a later edit of the shipped config cannot move the
benchmark). ``--seed n`` sets ``seed = n`` and ``dataset.seed = 7 + n``;
seed 0 is the shipped config. The library receives only the generated
config.

A workload repeats its unit of work (a run, a resume cycle, a sweep) while
one more unit should end within the requested seconds. In a traced run every second unit (every
second sweep point in each worker) records spans; the others are timed
untraced, which gives the tracing overhead. Every run samples the host's
speed as it goes (see hostspeed.py); times leave the samples out.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import abel_sched

from hostspeed import SETUP_REF_PASSES, epoch_slowdowns, slowdown
from measures import (blas_threads, blas_threads_pinned, children_cpu_s, cpu_count,
                      log_bytes_per_epoch, log_digests, log_rows_after)
from spans import Recorder, Span, spans_from_json, spans_to_json

TEMPLATE = """\
# Hard synthetic task: bouncing weight norm under L2, bounce-triggered decays.
seed = 0
epochs = 200
batch_size = 128
base_lr = 4.0
weight_decay = 0.0005
label_smoothing = 0.1
clip_norm = 5.0
log_dir = runs/blobs-abel

dataset.kind = blobs
dataset.classes = 4
dataset.dim = 20
dataset.samples = 2048
dataset.test_samples = 8192
dataset.label_noise = 0.2
dataset.separation = 2.5
dataset.seed = 7

model.kind = mlp
model.hidden = 32,16
model.activation = tanh
model.normalize = true
model.init_scale = 4.0

optimizer.kind = momentum
optimizer.momentum = 0.0

schedule.kind = abel
schedule.warmup_epochs = 5
schedule.decay_factor = 0.2
schedule.last_decay_fraction = 0.85
schedule.smoothing_window = 5
"""

SWEEP_GRID = "base_lr=0.5,1,2,4,8;decay_factor=0.2,0.5"
# This point is the standard config, so it must log what abel-standard logs.
STANDARD_POINT = {"base_lr": 4.0, "decay_factor": 0.2}
CKPT_OVERRIDES = {"optimizer.kind": "adam", "base_lr": "0.01",
                  "checkpoint_every": "1", "log_gw": "true"}
RESUME_EPOCH = 100
SETUP_REPEATS = 9


def config_text(seed: int, overrides: dict[str, str] | None = None) -> str:
    values = {"seed": str(seed), "dataset.seed": str(7 + seed), **(overrides or {})}
    lines = []
    for line in TEMPLATE.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in values:
            line = f"{key} = {values.pop(key)}"
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


@dataclass
class Tally:
    """Operations attempted and failed: runs, sweep points, loads and checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    recorder: Recorder
    tally: Tally = field(default_factory=Tally)


@dataclass
class Outcome:
    """What a workload measured.

    A unit is one run, one resume cycle or one sweep; an epoch group is one
    run, one resume cycle or one sweep point. Only untraced units and groups
    feed the end-to-end metrics. Times are as measured, host-speed samples
    left out; each untraced unit, each epoch and each set-up probe keeps the
    host's slowdown measured beside it.
    """

    setup_s: list[float] = field(default_factory=list)
    setup_slowdown: list[float] = field(default_factory=list)
    setup_phases: list[dict] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)
    unit_slowdown: list[float] = field(default_factory=list)
    unit_samples: list[int] = field(default_factory=list)
    # (traced, epoch times in ms, each epoch's slowdown) per group, in run order
    epoch_groups: list[tuple[bool, list[float], list[float]]] = field(default_factory=list)
    spans: list[list[Span]] = field(default_factory=list)  # one list per process
    digests: dict[str, str] = field(default_factory=dict)
    log_bytes: list[float] = field(default_factory=list)   # per epoch
    checkpoint_bytes: list[int] = field(default_factory=list)
    sweep: dict = field(default_factory=dict)
    worker_blas_threads: set = field(default_factory=set)

    def add_epochs(self, traced: bool, *runs: tuple[list[float], list[float]]) -> None:
        """One group of epochs from one or more runs, each as (epoch times, samples)."""
        epochs = [ms for run_epochs, _ in runs for ms in run_epochs]
        slowdowns = [slow for run_epochs, ref_ms in runs
                     for slow in epoch_slowdowns(len(run_epochs), ref_ms)]
        self.epoch_groups.append((traced, epochs, slowdowns))

    def add_unit(self, seconds: float, ref_ms: list[float], samples: int) -> None:
        self.unit_s.append(seconds)
        self.unit_slowdown.append(slowdown(ref_ms))
        self.unit_samples.append(samples)

    def groups(self, traced: bool) -> list[list[float]]:
        return [epochs for was_traced, epochs, _ in self.epoch_groups if was_traced == traced]


def _unit_is_traced(ctx: Context, index: int) -> bool:
    return ctx.trace and index % 2 == 1


def _keep_going(ctx: Context, started: float, units: int, minimum: int) -> bool:
    """Start another unit until ``minimum`` have run, then while one more, as long
    as the mean so far, should end within the requested seconds."""
    elapsed = time.perf_counter() - started
    return units < minimum or elapsed + elapsed / units <= ctx.seconds


def measure_setup(ctx: Context, text: str, out: Outcome) -> None:
    """Time SETUP_REPEATS fresh interpreters through import, parse, dataset and init.

    Each one samples the host's speed when its set-up is done; the time of
    those samples is left out.
    """
    config_file = ctx.work / "setup_config.txt"
    config_file.write_text(text)
    probe = Path(__file__).with_name("setup_probe.py")
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(probe), str(ctx.root / "src"),
                               str(config_file), str(SETUP_REF_PASSES)],
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if not ctx.tally.check(proc.returncode == 0, "set-up probe exits cleanly"):
            sys.stderr.write(proc.stderr)
            continue
        phases = json.loads(proc.stdout.splitlines()[-1])
        out.setup_s.append(elapsed - sum(phases["ref_ms"]) / 1e3)
        out.setup_slowdown.append(slowdown(phases["ref_ms"]))
        out.setup_phases.append(phases)


def _epoch_ms(ends: list[float]) -> list[float]:
    return [(b - a) * 1e3 for a, b in zip(ends, ends[1:])]


def _run(ctx: Context, config, what: str, resume_state=None):
    """One run, checked to complete, with the durations of its epochs in ms
    and the host-speed samples taken during it."""
    rec = ctx.recorder
    rec.epoch_ends.clear()
    rec.ref_ms.clear()
    result = abel_sched.run_experiment(config, resume_state=resume_state)
    ctx.tally.check(result.meta["status"] == "completed", f"{what} completes")
    return result, _epoch_ms(rec.epoch_ends), list(rec.ref_ms)


def _check_logs(ctx: Context, out: Outcome, log_dir: Path, what: str) -> None:
    """Compare a run's log digests with the first run's; record the log size."""
    digests = log_digests(log_dir)
    if not out.digests:
        out.digests = digests
    else:
        ctx.tally.check(digests == out.digests, f"{what} logs repeat the first run's digests")
    out.log_bytes.append(log_bytes_per_epoch(log_dir))


def abel_standard(ctx: Context) -> Outcome:
    """The shipped config, run back to back."""
    out = Outcome()
    text = config_text(ctx.seed)
    measure_setup(ctx, text, out)
    config = abel_sched.parse_config(text)
    rec = ctx.recorder
    started = time.perf_counter()
    unit = 0
    while _keep_going(ctx, started, unit, minimum=2):
        traced = _unit_is_traced(ctx, unit)
        log_dir = ctx.work / f"standard-{unit}"
        rec.run, rec.active = unit, traced
        t0 = rec.clock()
        result, epochs, ref_ms = _run(ctx, replace(config, log_dir=str(log_dir)), f"run {unit}")
        elapsed = rec.clock() - t0
        rec.active = False
        out.add_epochs(traced, (epochs, ref_ms))
        if not traced:
            out.add_unit(elapsed, ref_ms, len(result.records) * config.dataset.samples)
        _check_logs(ctx, out, log_dir, f"run {unit}")
        shutil.rmtree(log_dir)
        unit += 1
    if rec.spans:
        out.spans.append(list(rec.spans))
    return out


def _analyze(log_dir: Path):
    records = abel_sched.read_metrics(log_dir)
    events = abel_sched.read_events(log_dir)
    names = list(records[0].per_layer_wsq)
    trace = abel_sched.NormTrace(
        epochs=tuple(r.epoch for r in records),
        wsq=tuple(r.wsq_total for r in records),
        per_layer={name: tuple(r.per_layer_wsq[name] for r in records) for name in names},
        decay_epochs=tuple(ev.epoch for ev in events))
    return abel_sched.analysis.analyze_trace(trace, errors=[r.test_error for r in records])


def ckpt_resume(ctx: Context) -> Outcome:
    """Adam with a checkpoint every epoch; load them all, resume at 100, analyze."""
    out = Outcome()
    text = config_text(ctx.seed, CKPT_OVERRIDES)
    measure_setup(ctx, text, out)
    config = abel_sched.parse_config(text)
    rec = ctx.recorder
    started = time.perf_counter()
    unit = 0
    while _keep_going(ctx, started, unit, minimum=2):
        traced = _unit_is_traced(ctx, unit)
        log_dir = ctx.work / f"ckpt-{unit}"
        resume_dir = ctx.work / f"resume-{unit}"
        rec.run, rec.active = unit, traced
        t0 = rec.clock()
        result, epochs, ref_ms = _run(ctx, replace(config, log_dir=str(log_dir)),
                                      f"training run {unit}")

        ckpts = sorted(log_dir.glob("epoch_*.ckpt"))
        resume_from = None
        for path in ckpts:
            epoch = int(path.stem.split("_")[1])
            resumed_config, state = abel_sched.prepare_resume(path, log_dir=str(resume_dir))
            ctx.tally.check(state.epoch == epoch and abel_sched.format_config(resumed_config)
                            == abel_sched.format_config(replace(config, log_dir=str(resume_dir))),
                            f"checkpoint {path.name} loads the epoch and config it was saved at")
            if epoch == RESUME_EPOCH:
                resume_from = (resumed_config, state)
        resumed, resumed_epochs, resumed_ref_ms = _run(ctx, resume_from[0], f"resumed run {unit}",
                                                       resume_state=resume_from[1])
        rec.call("analysis.analyze", _analyze, log_dir)
        elapsed = rec.clock() - t0
        rec.active = False

        out.add_epochs(traced, (epochs, ref_ms), (resumed_epochs, resumed_ref_ms))
        ref_ms += resumed_ref_ms
        if not traced:
            out.add_unit(elapsed, ref_ms, (len(result.records) + len(resumed.records))
                         * config.dataset.samples)
        ctx.tally.check(len(ckpts) == config.epochs, f"run {unit} wrote one checkpoint per epoch")
        out.checkpoint_bytes.append(ckpts[-1].stat().st_size)
        ctx.tally.check(log_rows_after(resume_dir, RESUME_EPOCH)
                        == log_rows_after(log_dir, RESUME_EPOCH),
                        f"resumed tail of run {unit} is byte-identical to epochs "
                        f"{RESUME_EPOCH + 1}-{config.epochs}")
        _check_logs(ctx, out, log_dir, f"training run {unit}")
        shutil.rmtree(log_dir)
        shutil.rmtree(resume_dir)
        unit += 1
    if rec.spans:
        out.spans.append(list(rec.spans))
    return out


def _install_point_dump(ctx: Context, points_dir: Path) -> None:
    """Make each sweep point dump its epoch times and spans from its worker.

    ``run_sweep`` calls ``run_experiment`` through the sweep module, and its
    forked workers inherit this replacement. Each worker traces every second
    point it runs, when tracing is on.
    """
    sweep = abel_sched.sweep
    inner = sweep.run_experiment
    rec = ctx.recorder
    ran = [0]

    def run_point(config, *args, **kwargs):
        rec.reset()
        rec.active = _unit_is_traced(ctx, ran[0])
        ran[0] += 1
        start = rec.clock()
        try:
            return inner(config, *args, **kwargs)
        finally:
            end = rec.clock()
            dump = {"busy_s": end - start, "traced": rec.active,
                    "epoch_ends": rec.epoch_ends, "ref_ms": rec.ref_ms,
                    "spans": spans_to_json(rec.spans), "blas_threads": blas_threads()}
            rec.active = False
            (points_dir / f"{Path(config.log_dir).name}.json").write_text(json.dumps(dump))

    sweep.run_experiment = run_point


@dataclass
class SweepTally:
    wall_s: float = 0.0    # host-speed samples left out
    cpu_s: float = 0.0     # children's CPU time
    busy_s: float = 0.0    # sum of the points' wall times, samples left out
    points: int = 0
    ok: int = 0


def _sweep(ctx: Context, template, jobs: int, sweep_dir: Path, points_dir: Path,
           out: Outcome, tally: SweepTally) -> list[dict[str, str]]:
    """One grid sweep with its points checked; returns the standard point's digests.

    The workers take their host-speed samples side by side, so the sweep's
    time leaves out their total over ``jobs``.
    """
    cpu0 = children_cpu_s()
    t0 = time.perf_counter()
    points = abel_sched.run_sweep(template, abel_sched.parse_grid(SWEEP_GRID), sweep_dir,
                                  jobs=jobs)
    wall = time.perf_counter() - t0
    tally.cpu_s += children_cpu_s() - cpu0
    samples = 0
    ref_ms = []
    standard_digests = []
    for p in points:
        tally.points += 1
        tally.ok += ctx.tally.check(p.status == "ok", f"sweep point {p.index} completes")
        dump = json.loads((points_dir / f"{Path(p.log_dir).name}.json").read_text())
        epochs = _epoch_ms(dump["epoch_ends"])
        samples += len(epochs) * template.dataset.samples
        tally.busy_s += dump["busy_s"]
        ref_ms += dump["ref_ms"]
        out.worker_blas_threads.add(dump["blas_threads"])
        out.add_epochs(dump["traced"], (epochs, dump["ref_ms"]))
        if dump["traced"]:
            out.spans.append(spans_from_json(dump["spans"]))
        out.log_bytes.append(log_bytes_per_epoch(Path(p.log_dir)))
        if p.values == STANDARD_POINT:
            standard_digests.append(log_digests(Path(p.log_dir)))
    elapsed = wall - sum(ref_ms) / 1e3 / jobs
    tally.wall_s += elapsed
    out.add_unit(elapsed, ref_ms, samples)
    shutil.rmtree(sweep_dir)
    return standard_digests


def sweep_grid(ctx: Context) -> Outcome:
    """The 10-point grid over the standard config with jobs = nproc.

    The timed sweeps run with one BLAS thread per worker. With inherited
    OpenBLAS threads the workers' threads oversubscribe the cores and the
    sweep's wall time swings by a factor of two or more from run to run, too
    much for a bound. A traced run adds one sweep with inherited threads, so
    the oversubscription still shows in ``sweep.inherited_*``.
    """
    out = Outcome()
    text = config_text(ctx.seed)
    measure_setup(ctx, text, out)
    template = abel_sched.parse_config(text)
    jobs = cpu_count()
    points_dir = ctx.work / "points"
    points_dir.mkdir()
    _install_point_dump(ctx, points_dir)

    timed = SweepTally()
    standard_digests = []
    started = time.perf_counter()
    unit = 0
    with blas_threads_pinned(1):
        # A traced run times one pinned sweep; the inherited sweep below fills its time.
        while unit == 0 or (not ctx.trace and _keep_going(ctx, started, unit, minimum=1)):
            standard_digests += _sweep(ctx, template, jobs, ctx.work / f"sweep-{unit}",
                                       points_dir, out, timed)
            unit += 1
    out.sweep = {"jobs": jobs, "cpu_s_per_point": timed.cpu_s / timed.points,
                 "points_ok_ratio": timed.ok / timed.points,
                 "busy_share": timed.busy_s / (jobs * timed.wall_s)}

    if ctx.trace:
        ctx.trace = False  # the inherited sweep is timed untraced
        inherited = SweepTally()
        standard_digests += _sweep(ctx, template, jobs, ctx.work / "sweep-inherited",
                                   points_dir, Outcome(), inherited)
        ctx.trace = True
        out.sweep.update(inherited_s=inherited.wall_s,
                         inherited_cpu_s_per_point=inherited.cpu_s / inherited.points)

    # The reference run is untimed: it only anchors the sweep's logs.
    log_dir = ctx.work / "standard"
    _run(ctx, replace(template, log_dir=str(log_dir)), "reference standard run")
    out.digests = log_digests(log_dir)
    for digests in standard_digests:
        ctx.tally.check(digests == out.digests,
                        "sweep point base_lr=4, decay_factor=0.2 logs what abel-standard logs")
    return out


WORKLOADS = {
    "abel-standard": abel_standard,
    "sweep-grid": sweep_grid,
    "ckpt-resume": ckpt_resume,
}
