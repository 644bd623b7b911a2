"""Command-line interface.

Verbs:

* ``run <config>`` -- train per a config file.
* ``resume <checkpoint> [--epochs N] [--log-dir D]`` -- continue a
  checkpointed run, optionally with a new epoch budget where the schedule
  permits it.
* ``sweep <template> --grid <spec> [--jobs N] [--sweep-dir D]`` -- grid of
  runs plus a summary.csv.
* ``analyze <log_dir>`` -- bounce/decay analysis of a finished run; writes
  report.txt and report.csv next to the logs.
* ``plotdata <log_dir> --what lr|error|wsq`` -- two-column CSV on stdout.

Exit codes: 0 success, 2 configuration or dataset error or
unreadable/corrupt checkpoint, 3 numeric divergence, 4 resume refusal.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import NormTrace, analyze_trace
from .checkpoint import CheckpointError, ResumeRefusedError, prepare_resume
from .config import ConfigError, parse_config
from .datasets import DatasetError
from .runner import DivergenceError, read_events, read_metrics, run_experiment, write_atomic
from .sweep import parse_grid, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_RESUME_REFUSED = 4


def _load_config_file(path: str):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such config file: {path}")
    return parse_config(p.read_text())


def _cmd_run(args) -> int:
    config = _load_config_file(args.config)
    if args.log_dir:
        config = replace(config, log_dir=args.log_dir)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    run_experiment(config, quiet=False)
    return EXIT_OK


def _cmd_resume(args) -> int:
    config, state = prepare_resume(args.checkpoint, epochs=args.epochs,
                                   log_dir=args.log_dir)
    run_experiment(config, resume_state=state, quiet=False)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    template = _load_config_file(args.template)
    grid = parse_grid(args.grid)
    sweep_dir = args.sweep_dir or "sweep"
    points = run_sweep(template, grid, sweep_dir, jobs=args.jobs)
    failed = [p for p in points if p.status.startswith(("error", "diverged"))]
    print(f"sweep: {len(points)} points, {len(failed)} failed; "
          f"summary in {Path(sweep_dir) / 'summary.csv'}")
    return EXIT_OK


def _trace_from_logs(log_dir: str) -> tuple[NormTrace, list[float]]:
    records = read_metrics(log_dir)
    if not records:
        raise ConfigError(f"no records in {log_dir}")
    events = read_events(log_dir)
    per_layer = None
    if records[0].per_layer_wsq:
        per_layer = {name: tuple(r.per_layer_wsq[name] for r in records)
                     for name in records[0].per_layer_wsq}
    trace = NormTrace(
        epochs=tuple(r.epoch for r in records),
        wsq=tuple(r.wsq_total for r in records),
        per_layer=per_layer,
        decay_epochs=tuple(ev.epoch for ev in events),
    )
    return trace, [r.test_error for r in records]


def _cmd_analyze(args) -> int:
    trace, errors = _trace_from_logs(args.log_dir)
    report = analyze_trace(trace, errors=errors, noise_tol=args.noise_tol,
                           top_k=args.top_k, drop_window=args.window)
    lines = [f"classification: {report.classification}",
             f"bounce epochs: {', '.join(map(str, report.bounce_epochs)) or 'none'}"]
    csv = ["kind,a,b,c,d"]
    csv.append(f"classification,{report.classification},,,")
    for seg in report.segments:
        lines.append(f"segment {seg.start_epoch}-{seg.end_epoch}: {seg.classification}")
        csv.append(f"segment,{seg.start_epoch},{seg.end_epoch},{seg.classification},")
    for b in report.bounce_epochs:
        csv.append(f"bounce,{b},,,")
    for verdict in report.decays:
        since = "" if verdict.epochs_since_bounce is None else verdict.epochs_since_bounce
        lines.append(f"decay at {verdict.epoch}: {verdict.alignment}"
                     + (f" ({since} epochs after bounce)" if since != "" else ""))
        csv.append(f"decay,{verdict.epoch},{verdict.alignment},{since},")
    for drop in report.drops:
        lines.append(f"drop at {drop.epoch}: {drop.drop:+.4f}"
                     + (" (partial window)" if drop.partial else ""))
        csv.append(f"drop,{drop.epoch},{drop.drop!r},{int(drop.partial)},")
    if report.monotone_drops is not None:
        lines.append(f"drops non-increasing: {report.monotone_drops}")
        csv.append(f"monotone_drops,{report.monotone_drops},,,")
    for share in report.top_layers:
        lines.append(f"layer {share.name}: mean share {share.mean_share:.3f}, "
                     f"{share.classification}"
                     + ("" if share.matches_total else " (differs from total)"))
        csv.append(f"layer,{share.name},{share.mean_share!r},{share.classification},"
                   f"{int(share.matches_total)}")
    if report.growth_rate_deciles:
        deciles = " ".join(f"{d:+.2e}" for d in report.growth_rate_deciles)
        lines.append(f"growth-rate deciles: {deciles}")
        for q, d in enumerate(report.growth_rate_deciles):
            csv.append(f"growth_decile,{q * 10},{d!r},,")

    text = "\n".join(lines) + "\n"
    out_dir = Path(args.out_dir or args.log_dir)
    write_atomic(out_dir / "report.txt", text.encode())
    write_atomic(out_dir / "report.csv", ("\n".join(csv) + "\n").encode())
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    records = read_metrics(args.log_dir)
    field = {"lr": "lr", "error": "test_error", "wsq": "wsq_total"}[args.what]
    out = sys.stdout if not args.out else open(args.out, "w")
    out.write(f"epoch,{field}\n")
    for r in records:
        out.write(f"{r.epoch},{getattr(r, field)!r}\n")
    if out is not sys.stdout:
        out.close()
    return EXIT_OK


def _at_least(kind, minimum):
    """An argparse type: ``kind`` of the text, refused below ``minimum`` (a usage error)."""
    def parse(text: str):
        value = kind(text)
        if not value >= minimum:  # NaN fails
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abel-sched",
        description="Weight-norm-driven learning-rate scheduling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train per a config file")
    p.add_argument("config")
    p.add_argument("--log-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("resume", help="continue from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--epochs", type=int, default=None,
                   help="new total epoch budget (budget-free schedules only)")
    p.add_argument("--log-dir", default=None)
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser("sweep", help="grid of runs from a template config")
    p.add_argument("template")
    p.add_argument("--grid", required=True,
                   help="e.g. 'base_lr=0.5,1,2;schedule.smoothing_window=1,5;seed=0,1'")
    p.add_argument("--jobs", type=_at_least(int, 1), default=1)
    p.add_argument("--sweep-dir", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analyze", help="bounce/decay analysis of a run's logs")
    p.add_argument("log_dir")
    p.add_argument("--noise-tol", type=_at_least(float, 0.0), default=0.005)
    p.add_argument("--top-k", type=_at_least(int, 1), default=3)
    p.add_argument("--window", type=_at_least(int, 1), default=5)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plotdata", help="two-column plot-ready CSV")
    p.add_argument("log_dir")
    p.add_argument("--what", choices=("lr", "error", "wsq"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, DatasetError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ResumeRefusedError as exc:
        print(f"resume refused: {exc}", file=sys.stderr)
        return EXIT_RESUME_REFUSED


if __name__ == "__main__":
    sys.exit(main())
