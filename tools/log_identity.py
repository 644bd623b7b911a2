"""Check that two revisions write byte-identical logs and checkpoints.

Usage, from the root of a checkout:

    python3 tools/log_identity.py --parent HEAD --change worktree

Each side is extracted as ``tools/bench_record.py`` extracts it
(``--change worktree`` is the working tree with every change staged, so run
``git add -A`` first). Both sides train the same runs, from the parent's
config files: each shipped ``configs/*.txt`` and seven variants of
``configs/blobs_abel.txt``:

* a 10-epoch Adam run with the g.w probe and a checkpoint every epoch;
* a run at ``batch_size = 100`` (2048 rows leave a last minibatch of 48,
  where the shipped configs split them into 16 full ones);
* a 20-epoch convnet;
* a 20-epoch run of 10 classes (every shipped config has 4), where the
  softmax sums each row pairwise, as numpy sums 8 or more entries;
* a 20-epoch relu MLP with biases;
* a 20-epoch run at momentum 0.9;
* a 20-epoch run with neither clipping nor L2.

No shipped config trains the last three: biases, momentum above 0, or a
step that neither clips nor adds an L2 term.

Each side then resumes its own Adam run, ``abel-sched resume`` of that
run's ``epoch_0005.ckpt`` with ``--epochs 12`` (``RESUME``), so one loop
starts past epoch 0 from a checkpoint, under a changed budget.

Both sides also run one sweep, ``abel-sched sweep`` of
``configs/blobs_abel.txt`` at 80 epochs over ``SWEEP_GRID``, twice: with
``--jobs 2`` and with ``--jobs 1``. The ``base_lr = 2`` and ``4`` families
fork at the final decay (epoch 68), and the ``base_lr = 8`` family at its
bounce (epoch 55). With 2 jobs that follower starts when a worker is free,
from a fork streamed by its leader's worker while the leader still trains;
with 1 job every point trains in the CLI's own process, one at a time, in
the order of the same scheduling loop.
Every run, the resume and the sweep write into the same ``log_dir`` path on
both sides, because checkpoint bytes embed the config's ``log_dir``, and are
moved aside after.

The tool compares ``metrics.csv`` (without ``wall_ms``), ``layers.csv``,
``events.csv``, ``config.txt``, ``meta.json`` (every key but ``version``)
and every checkpoint of each run and of each sweep point, and the sweep's
``summary.csv`` byte for byte. ``meta.json`` pins each run's summary and its
``start_epoch``, so a sweep follower that forks at another epoch differs
even when its logs match. It prints each difference,
and exits 1 on any difference or failed run, 0 when everything matches. When
``metrics.csv`` or ``layers.csv`` differs, it also prints, per column that
differs, how many rows differ, the largest relative difference
``|a - b| / max(|a|, |b|)``, the largest difference ``|a - b|`` and that
difference over the largest magnitude the column holds, and whether
``events.csv`` matches, so a change that moves the last bits of the logs can
be bounded. The last two bound a column whose exact value is 0, such as
``gw_total`` of scale-invariant layers, where the relative difference of
rounding noise is of order 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import extract, resolve  # noqa: E402

LOGS = ("metrics.csv", "layers.csv", "events.csv")
RUN_FILES = LOGS + ("config.txt", "meta.json")  # what every run writes
SIDES = ("parent", "change")
# variants of configs/blobs_abel.txt, by the stem of their config file
VARIANTS = {
    "blobs_abel_adam": {"optimizer.kind": "adam", "base_lr": "0.01", "epochs": "10",
                        "log_gw": "true", "checkpoint_every": "1"},
    "blobs_abel_batch100": {"batch_size": "100"},
    # 36 inputs seen as one 6x6 channel, the least two valid 3x3 convolutions take
    "blobs_abel_conv": {"epochs": "20", "dataset.dim": "36", "model.kind": "conv",
                        "model.hidden": "4,6", "model.normalize": "false",
                        "model.input_shape": "1,6,6"},
    # at the shipped base_lr of 4.0 the relu net dies (test error 0.75, loss log 4)
    "blobs_abel_classes10": {"epochs": "20", "dataset.classes": "10"},
    "blobs_abel_relu_bias": {"epochs": "20", "base_lr": "0.5", "model.activation": "relu",
                             "model.normalize": "false"},
    "blobs_abel_momentum": {"epochs": "20", "optimizer.momentum": "0.9"},
    "blobs_abel_noclip_nol2": {"epochs": "20", "clip_norm": "0", "weight_decay": "0"},
}
# the resume of a variant's checkpoint at a new budget: (variant, checkpoint, epochs)
RESUME = ("blobs_abel_adam", "epoch_0005.ckpt", "12")
# the sweep of configs/blobs_abel.txt, run with jobs = 2 and with jobs = 1
SWEEP_OVERRIDES = {"epochs": "80"}
SWEEP_GRID = "base_lr=2,4,8;decay_factor=0.2,0.5"


def with_overrides(text: str, overrides: dict[str, str]) -> str:
    """Config ``text`` with each key of ``overrides`` set to its value."""
    kept = [line for line in text.splitlines()
            if line.split("=", 1)[0].strip() not in overrides]
    return "\n".join(kept + [f"{key} = {value}" for key, value in overrides.items()]) + "\n"


def _rows(path: Path) -> list[str]:
    """A log's lines, ``wall_ms`` left out of metrics.csv."""
    lines = path.read_text().splitlines()
    if path.name == "metrics.csv":
        return [line.rsplit(",", 1)[0] for line in lines]
    return lines


def _meta(path: Path) -> dict:
    """A ``meta.json`` without its ``version``, which names the revision."""
    meta = json.loads(path.read_text())
    meta.pop("version", None)
    return meta


def compare_runs(parent: Path, change: Path) -> list[str]:
    """The differences between two log directories of the same run: in the
    three logs (``wall_ms`` left out of metrics.csv), ``config.txt``,
    ``meta.json`` (``version`` left out) and every checkpoint, including a
    file that only one side has."""
    names = list(RUN_FILES) + sorted({p.name for side in (parent, change)
                                      for p in side.glob("*.ckpt")})
    diffs = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            diffs.append(_missing(name, a, b))
            continue
        if name == "metrics.csv":
            rows_a, rows_b = _rows(a), _rows(b)
            if rows_a != rows_b:
                line = next((i for i, (x, y) in enumerate(zip(rows_a, rows_b), 1) if x != y),
                            min(len(rows_a), len(rows_b)) + 1)
                diffs.append(f"{name}: differs from line {line} (wall_ms left out)")
        elif name == "meta.json":
            meta_a, meta_b = _meta(a), _meta(b)
            keys = sorted(k for k in meta_a.keys() | meta_b.keys()
                          if meta_a.get(k) != meta_b.get(k))
            if keys:
                diffs.append(f"{name}: differs in {', '.join(keys)} (version left out)")
        elif a.read_bytes() != b.read_bytes():
            diffs.append(f"{name}: bytes differ")
    return diffs


def compare_sweeps(parent: Path, change: Path) -> list[str]:
    """The differences between two sweep directories of the same sweep:
    ``summary.csv`` byte for byte, and ``compare_runs`` of each point,
    including a point that only one side has."""
    diffs = []
    a, b = parent / "summary.csv", change / "summary.csv"
    if not (a.exists() and b.exists()):
        diffs.append(_missing("summary.csv", a, b))
    elif a.read_bytes() != b.read_bytes():
        diffs.append("summary.csv: bytes differ")
    for name in sorted({p.name for side in (parent, change) for p in side.glob("point_*")}):
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            diffs.append(_missing(name, a, b))
            continue
        diffs += [f"{name}: {diff}" for diff in compare_runs(a, b)]
    return diffs


def _missing(name: str, a: Path, b: Path) -> str:
    """The difference of a file or point that the parent (``a``) or the change
    (``b``) lacks."""
    if a.exists() or b.exists():
        return f"{name}: only in {'parent' if a.exists() else 'change'}"
    return f"{name}: missing on both sides"


def _difference(a: str, b: str) -> tuple[float, float]:
    """|a - b| and |a - b| / max(|a|, |b|) of two numeric fields; inf for both
    when they differ and either is not a finite number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf, math.inf
    if x == y:
        return 0.0, 0.0
    diff = abs(x - y)
    return (diff, diff / max(abs(x), abs(y))) if math.isfinite(diff) else (math.inf, math.inf)


def _magnitude(field: str) -> float:
    """|field| of a finite numeric field, else 0."""
    try:
        x = abs(float(field))
    except ValueError:
        return 0.0
    return x if math.isfinite(x) else 0.0


def column_differences(name: str, parent: list[str], change: list[str]) -> list[str]:
    """Per column of two CSV files' rows (header first) that differs within
    the rows both have: how many rows differ, the largest relative difference,
    and the largest difference scaled by the largest finite magnitude the
    column holds on either side."""
    header = parent[0].split(",")
    pairs = [(a.split(","), b.split(",")) for a, b in zip(parent[1:], change[1:])]
    out = []
    for j, column in enumerate(header):
        fields = [(a[j] if j < len(a) else "", b[j] if j < len(b) else "") for a, b in pairs]
        differ = [_difference(a, b) for a, b in fields if a != b]
        if differ:
            largest = max(_magnitude(v) for both in fields for v in both)
            diff = max(d for d, _ in differ)
            scaled = diff / largest if diff and largest else diff
            out.append(f"{name}: {column} differs in {len(differ)} of {len(pairs)} rows, "
                       f"largest relative difference {max(r for _, r in differ):.1e}, "
                       f"largest difference {diff:.1e} ({scaled:.1e} of the column's "
                       f"largest magnitude {largest:.1e})")
    return out


def describe_differences(parent: Path, change: Path) -> list[str]:
    """How far two runs' numeric logs lie apart: ``column_differences`` of
    ``metrics.csv`` (``wall_ms`` left out) and ``layers.csv``, and whether
    ``events.csv`` matches."""
    out = []
    for name in ("metrics.csv", "layers.csv"):
        a, b = parent / name, change / name
        if a.exists() and b.exists():
            out += column_differences(name, _rows(a), _rows(b))
    a, b = parent / "events.csv", change / "events.csv"
    same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
    out.append(f"events.csv: {'matches' if same else 'differs'}")
    return out


def run_cli(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """``abel-sched *args`` with ``tree``'s library."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "abel_sched.cli", *args],
                          cwd=tree, env=env, capture_output=True, text=True)


def jobs(configs: Path, sweep: Path, shared: Path, logs: Path) -> list[tuple]:
    """(label, name of the logs kept, CLI arguments per side, comparison) of
    each job, in the order they run: a run of each config, the resume of
    ``RESUME`` from each side's own logs of its run (kept under ``logs``),
    and the sweep at 2 jobs and at 1. Every job logs into ``shared``."""
    out = [(config.name, config.stem,
            dict.fromkeys(SIDES, ["run", str(config), "--log-dir", str(shared)]), compare_runs)
           for config in sorted(configs.glob("*.txt"))]
    stem, ckpt, epochs = RESUME
    out.append((f"{stem} resume {ckpt} --epochs {epochs}", f"{stem}_resumed",
                {side: ["resume", str(logs / side / stem / ckpt), "--epochs", epochs,
                        "--log-dir", str(shared)] for side in SIDES}, compare_runs))
    for workers, name in (("2", sweep.stem), ("1", f"{sweep.stem}_jobs1")):
        out.append((f"{sweep.name} --grid {SWEEP_GRID} --jobs {workers}", name,
                    dict.fromkeys(SIDES, ["sweep", str(sweep), "--grid", SWEEP_GRID,
                                          "--jobs", workers, "--sweep-dir", str(shared)]),
                    compare_sweeps))
    return out


def check(parent_rev: str, change_rev: str, scratch: Path) -> int:
    trees = {side: scratch / side for side in SIDES}
    for side, rev in (("parent", parent_rev), ("change", change_rev)):
        extract(resolve(rev), trees[side])
    configs = scratch / "configs"
    configs.mkdir()
    for path in sorted((trees["parent"] / "configs").glob("*.txt")):
        shutil.copy(path, configs / path.name)
    abel = (configs / "blobs_abel.txt").read_text()
    for stem, overrides in VARIANTS.items():
        (configs / f"{stem}.txt").write_text(with_overrides(abel, overrides))
    sweep = scratch / "blobs_abel_sweep.txt"
    sweep.write_text(with_overrides(abel, SWEEP_OVERRIDES))

    shared = scratch / "run"  # the one log_dir path both sides log into
    logs = scratch / "logs"
    failed = False
    for label, name, args, compare in jobs(configs, sweep, shared, logs):
        outputs = {}
        for side, tree in trees.items():
            proc = run_cli(tree, *args[side])
            outputs[side] = logs / side / name
            outputs[side].parent.mkdir(parents=True, exist_ok=True)
            if shared.exists():
                shutil.move(str(shared), outputs[side])
            if proc.returncode != 0:
                print(f"{label} on {side}: exit {proc.returncode}: "
                      f"{proc.stderr.strip().splitlines()[-1:]}")
                failed = True
        diffs = compare(outputs["parent"], outputs["change"])
        for diff in diffs:
            print(f"{label}: {diff}")
        if any(diff.startswith(("metrics.csv", "layers.csv")) for diff in diffs):
            for line in describe_differences(outputs["parent"], outputs["change"]):
                print(f"{label}:   {line}")
        if not diffs:
            print(f"{label}: identical")
        failed = failed or bool(diffs)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD", help="a revision, or 'worktree'")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="an empty or missing directory to keep the trees and logs in "
                             "(default: a temporary directory, removed at the end)")
    args = parser.parse_args(argv)
    if args.scratch is not None:
        return check(args.parent, args.change, args.scratch)
    with tempfile.TemporaryDirectory(prefix="log_identity-") as tmp:
        return check(args.parent, args.change, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
