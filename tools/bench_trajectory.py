"""Measure several commits side by side and record ``BENCH_trajectory.json``.

Usage, from the root of a checkout:

    python3 tools/bench_trajectory.py --scratch /tmp/trajectory \\
        first=<rev> middle=<rev> head=HEAD now=worktree

Each ``label=rev`` is extracted with ``git archive`` into its own directory
under ``--scratch`` (``worktree`` is the staged working tree, as for
``bench_record.py``), and this checkout's ``perfbench/`` and
``BENCHMARK.json`` are copied over it, so every commit runs the same
benchmark code, including commits that predate it. For each of seeds 0-2,
each workload of BENCHMARK.json runs once on every commit, the commit order
rotating from seed to seed. The file gives each commit's median, q1 and q3
of every end-to-end metric, each run's metrics and host slowdown, and the
seed-0 log digests. A commit whose runs do not finish, or fail their
correctness checks, is listed under ``cannot_run`` with its exit codes and
the tail of its error output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import ROOT, environment, extract, quartiles, resolve, run_once  # noqa: E402

SEEDS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("revs", nargs="+", help="label=rev, oldest first")
    parser.add_argument("--scratch", required=True, type=Path,
                        help="an empty or missing directory for the trees")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_trajectory.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, *bench["command"][1:]]  # the command names python3
    commits = dict(item.split("=", 1) for item in args.revs)
    shas = {label: resolve(rev) for label, rev in commits.items()}
    for label, sha in shas.items():
        tree = args.scratch / label
        extract(sha, tree)
        shutil.rmtree(tree / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")

    labels = list(shas)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs: dict[str, dict[str, list[dict]]] = {label: {} for label in labels}
    for seed in range(SEEDS):
        for workload in (w["name"] for w in bench["workloads"]):
            for k in range(len(labels)):
                label = labels[(k + seed) % len(labels)]
                run = run_once(args.scratch / label, command, workload, seed,
                               bench["run_seconds"], False)
                runs[label].setdefault(workload, []).append(run)
                print(f"{workload} seed {seed} {label}: exit={run['exit']} "
                      f"correct={run['correct']} slowdown={run['slowdown']}", flush=True)

    record = {"command": bench["command"], "run_seconds": bench["run_seconds"],
              "seeds": list(range(SEEDS)), "started": started,
              "commits": {label: {"rev": commits[label], "sha": shas[label]}
                          for label in labels},
              "workloads": {}, "cannot_run": {}}
    for label in labels:
        for workload, done in runs[label].items():
            ok = [run for run in done if run["exit"] == 0 and run["correct"]]
            if len(ok) < len(done):
                record["cannot_run"].setdefault(label, {})[workload] = [
                    {"seed": run["seed"], "exit": run["exit"], "correct": run["correct"],
                     "stderr_tail": run.get("stderr_tail", [])}
                    for run in done if run not in ok]
            names = sorted({name for run in ok for name in run["metrics"]})
            record["workloads"].setdefault(workload, {})[label] = {
                "metrics": {name: quartiles([run["metrics"][name] for run in ok
                                             if name in run["metrics"]]) for name in names},
                "runs": [{k: run[k] for k in ("seed", "exit", "correct", "attempted",
                                              "failed", "slowdown", "metrics")}
                         for run in done],
                "seed0_digests": next((run["digests"] for run in done if run["seed"] == 0), {}),
            }
            record.setdefault("environment", environment(done[0]["environment"]))
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
