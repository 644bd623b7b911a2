"""Benchmark of abel-sched: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload abel-standard --seed 0 --seconds 20 --trace 0

Workloads: abel-standard, sweep-grid, ckpt-resume (see perfbench/README.md).
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from spans recorded around
the library's public calls. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the command exits 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("abel-standard", "sweep-grid", "ckpt-resume"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library():
    """Import abel_sched from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "abel_sched" / "__init__.py").is_file():
        sys.exit(f"perfbench: no abel_sched sources under {src}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(src))
    import abel_sched

    if Path(abel_sched.__file__).resolve().parent != (src / "abel_sched").resolve():
        sys.exit(f"perfbench: imported abel_sched from {abel_sched.__file__}, not {src}")


def _stop(signum, frame):
    # Unwind on SIGTERM, so the sweep's pool is shut down and scratch logs removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    args = _parse_args(argv)
    _import_library()
    sys.path.insert(0, str(HERE))
    from measures import environment, median
    from report import accounting, end_to_end, per_layer
    from spans import Recorder, install_epoch_clock, install_spans, spans_to_json
    from workloads import WORKLOADS, Context

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    recorder = Recorder()
    install_epoch_clock(recorder)
    if args.trace:
        install_spans(recorder)
    ctx = Context(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), recorder=recorder)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    t0 = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](ctx)
    except Exception:
        traceback.print_exc()
        ctx.tally.check(False, "workload ran to the end")
        outcome = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there
    wall = time.perf_counter() - t0

    tally = ctx.tally
    metrics = {}
    if outcome is not None:
        print(f"wall {wall:.3f} s; blas threads in sweep workers: "
              f"{sorted(outcome.worker_blas_threads) or '-'}")
        for name, digest in outcome.digests.items():
            print(f"digest {name} {digest}  (sha256, wall_ms stripped)")
        slow = outcome.unit_slowdown + outcome.setup_slowdown
        print(f"host slowdown against the reference host: median {median(slow):.3f}, "
              f"{min(slow):.3f} to {max(slow):.3f} over {len(slow)} units and set-up probes")
        metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
        if not args.trace:
            for name, m in end_to_end(outcome, at_reference_speed=False).items():
                print(f"as measured {name} = {m['value']!r} {m['unit']}")
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
            path.write_text(json.dumps([spans_to_json(s) for s in outcome.spans]))
            print(f"spans written to {path.relative_to(ROOT)}")
            print(accounting(outcome))
    for what in tally.failures:
        print(f"FAILED: {what}")
    print(f"checks: {tally.attempted - tally.failed} of {tally.attempted} passed; "
          f"failed_share {tally.failed / tally.attempted!r} (ratio)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    correct = outcome is not None and tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
