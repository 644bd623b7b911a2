"""Record a parent/change comparison of the benchmark in ``BENCH_<pr>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --pr N --parent HEAD --change worktree \\
        --scratch /tmp/bench --pairs sweep-grid=10,abel-standard=5,ckpt-resume=5

Each side is extracted with ``git archive`` into its own directory under
``--scratch``; ``--change worktree`` stands for the working tree with every
change staged (``git add -A`` first), taken as a commit object through
``git stash create``, which moves no branch and touches no file. The
benchmark command of BENCHMARK.json runs in each extracted tree, so both
sides run their own library under their own copy of ``perfbench/``.

Pair i of a workload runs seed ``--first-seed + i`` on both sides, the
parent first in even pairs and the change first in odd ones. For each
end-to-end metric the file gives each side's median, q1 and q3 and the
change's wins k/n (ties count for neither side), and it records the SHAs,
numpy and its BLAS, ``PYTHONDONTWRITEBYTECODE``, each run's host slowdown,
the failed-check counts and the seed-0 log digests. With ``--traced-pairs n``
the first n seeds also run traced on both sides; their per-layer times are
given as measured and divided by the same run's host slowdown.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SLOWDOWN = re.compile(r"^host slowdown against the reference host: median ([0-9.]+)")
DIGEST = re.compile(r"^digest (\S+) ([0-9a-f]{64})")
# per-layer metrics in these units are times, to be divided by the host slowdown
TIME_UNITS = ("ms", "us", "s")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def resolve(rev: str) -> str:
    """The commit SHA of ``rev``; ``worktree`` is the staged working tree."""
    if rev == "worktree":
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


def extract(sha: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One benchmark run: its metrics, host slowdown, digests and check counts."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {
        "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    out = {"seed": seed, "exit": proc.returncode, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {name: m["value"] for name, m in result["metrics"].items()},
           "units": {name: m["unit"] for name, m in result["metrics"].items()},
           "digests": {}, "slowdown": None, "environment": None}
    for line in lines:
        if m := SLOWDOWN.match(line):
            out["slowdown"] = float(m.group(1))
        elif m := DIGEST.match(line):
            out["digests"][m.group(1)] = m.group(2)
        elif line.startswith("environment "):
            out["environment"] = json.loads(line.split(" ", 1)[1])
    if proc.returncode not in (0, 1):
        out["stderr_tail"] = proc.stderr.splitlines()[-5:]
    return out


def environment(reported: dict | None) -> dict:
    """The environment a run reported, plus PYTHONDONTWRITEBYTECODE as this
    process (and so every run) sees it (null when unset): when it is set,
    every fresh interpreter compiles the package, and ``setup_s`` includes that."""
    return {**(reported or {}),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, linearly interpolated (numpy's default rule)."""
    s = sorted(values)

    def q(p: float) -> float:
        pos = (len(s) - 1) * p
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return {"median": q(0.5), "q1": q(0.25), "q3": q(0.75), "n": len(s)}


def compare(pairs: list[tuple[dict, dict]], name: str, better: str) -> dict | None:
    """Both sides' statistics of one metric over the pairs that report it."""
    both = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
            if name in p["metrics"] and name in c["metrics"]]
    if not both:
        return None
    parent = [p for p, _ in both]
    change = [c for _, c in both]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in both if sign * (c - p) > 0)
    losses = sum(1 for p, c in both if sign * (c - p) < 0)
    out = {"better": better, "parent": quartiles(parent), "change": quartiles(change),
           "wins": f"{wins}/{len(both)}", "losses": f"{losses}/{len(both)}"}
    gap = out["change"]["median"] - out["parent"]["median"]
    out["median_change"] = gap / out["parent"]["median"] if out["parent"]["median"] else None
    out["gap_exceeds_parent_iqr"] = abs(gap) > out["parent"]["q3"] - out["parent"]["q1"]
    return out


def per_host_speed(run: dict) -> dict:
    """A traced run's per-layer times divided by its host slowdown."""
    slow = run["slowdown"]
    return {name: value / slow for name, value in run["metrics"].items()
            if slow and run["units"].get(name, "").split("/")[0] in TIME_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD", help="a revision, or 'worktree'")
    parser.add_argument("--scratch", required=True, type=Path,
                        help="an empty or missing directory for the two trees")
    parser.add_argument("--pairs", default="sweep-grid=10,abel-standard=5,ckpt-resume=5")
    parser.add_argument("--traced-pairs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, *bench["command"][1:]]  # the command names python3
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    plan = {name: int(n) for name, n in (item.split("=") for item in args.pairs.split(","))}

    shas = {"parent": resolve(args.parent), "change": resolve(args.change)}
    trees = {side: args.scratch / side for side in shas}
    for side, sha in shas.items():
        extract(sha, trees[side])

    record = {"pr": args.pr, "parent_sha": shas["parent"], "change_sha": shas["change"],
              "change_rev": args.change, "command": bench["command"],
              "run_seconds": bench["run_seconds"], "started": time.strftime(
                  "%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload, n in plan.items():
        for traced in (False, True):
            count = min(n, args.traced_pairs) if traced else n
            pairs = []
            for i in range(count):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {}
                for side in order:
                    runs[side] = run_once(trees[side], command, workload, seed,
                                          bench["run_seconds"], traced)
                    print(f"{workload} seed {seed} {side} traced={int(traced)}: "
                          f"correct={runs[side]['correct']} "
                          f"slowdown={runs[side]['slowdown']}", flush=True)
                pairs.append((runs["parent"], runs["change"]))
            if not pairs:
                continue
            names = sorted({name for p, c in pairs for name in p["metrics"]})
            entry = {
                "pairs": count,
                "seeds": [p["seed"] for p, _ in pairs],
                "metrics": {name: compare(pairs, name, better.get(name, "lower"))
                            for name in names},
                "runs": {side: [{k: run[k] for k in ("seed", "exit", "correct", "attempted",
                                                     "failed", "slowdown", "metrics")}
                                for run in (p if side == "parent" else c for p, c in pairs)]
                         for side in ("parent", "change")},
            }
            if traced:
                entry["at_reference_speed"] = {
                    side: [per_host_speed(p if side == "parent" else c) for p, c in pairs]
                    for side in ("parent", "change")}
            else:
                seed0 = [(p, c) for p, c in pairs if p["seed"] == 0]
                if seed0:
                    entry["seed0_digests"] = {"parent": seed0[0][0]["digests"],
                                              "change": seed0[0][1]["digests"]}
                record.setdefault("environment", environment(pairs[0][0]["environment"]))
            record["workloads"].setdefault(workload, {})[
                "traced" if traced else "end_to_end"] = entry

    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
