"""Paired A/B runs of perfbench: does HEAD beat BASE, and how surely?

Usage::

    python scripts/abtest.py BASE HEAD --workload fleet_overload --pairs 5
    python scripts/abtest.py HEAD~1 . --workload fleet_long_prompt \\
        --pairs 6 --seconds 8 --json ab.json

BASE and HEAD are each a directory holding a checkout (with
``perfbench/run.py`` and ``src/repro``) or a git revision of this
repository, which is exported with ``git archive`` into a temporary
directory and removed afterwards.  Each of the ``--pairs`` pairs runs
``perfbench/run.py --workload W --seconds S --seed SEED`` once in each
tree, one after the other.  Even pairs run BASE first and odd pairs
HEAD first, so a drift in host speed favours neither side.

The report is JSON, printed and optionally written to ``--json``.  For
each end-to-end metric of HEAD's ``BENCHMARK.json`` it gives:

* each side's median and quartiles over the pairs;
* HEAD's wins out of N: a pair HEAD wins is one where its value is
  better in the metric's direction;
* the exact two-sided sign-test p-value of those wins, ties dropped;
* the median of HEAD's per-pair change over BASE.

It also lists each side's perfbench ``correct`` flags and failed-worker
counts.  The script decides nothing about speed: it exits 0 once every
run printed its result line, 1 when a run printed none, and 2 when a
revision cannot be exported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class RunFailed(RuntimeError):
    """A perfbench run printed no result line."""


def resolve(ref: str, scratch: Path, label: str) -> Path:
    """The checkout ``ref`` names: a directory as is, else a revision of
    this repository exported into ``scratch/label``."""
    if Path(ref).is_dir():
        return Path(ref).resolve()
    target = scratch / label
    target.mkdir()
    archive = scratch / f"{label}.tar"
    with open(archive, "wb") as out:
        done = subprocess.run(["git", "-C", str(REPO), "archive", ref],
                              stdout=out, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise ValueError(f"{ref!r} is neither a directory nor a revision: "
                         f"{done.stderr.strip()}")
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()
    return target


def perfbench(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line."""
    # The tree's own src/ must be the only repro on the path.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", repr(seconds), "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"perfbench in {tree} printed no result "
                        f"(exit {done.returncode}): "
                        f"{done.stderr.strip()[-500:]}") from None


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    (ties already dropped); 1.0 with no untied pair."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(metric: dict, runs: list[dict]) -> dict:
    """One end-to-end metric over the pairs: both sides' spread, HEAD's
    wins, the sign test and the median per-pair change."""
    name, higher = metric["name"], metric["better"] == "higher"
    base = [run["base"]["metrics"][name]["value"] for run in runs]
    head = [run["head"]["metrics"][name]["value"] for run in runs]
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    losses = sum((h < b) if higher else (h > b) for b, h in zip(base, head))
    return {
        "unit": metric["unit"], "better": metric["better"],
        "base": spread(base), "head": spread(head),
        "head_wins": wins, "pairs": len(runs),
        "sign_test_p": sign_test_p(wins, losses),
        "median_change": statistics.median(
            (h - b) / b for b, h in zip(base, head)),
    }


def abtest(base: Path, head: Path, workload: str, pairs: int,
           seconds: float, seed: int) -> dict:
    """Run the pairs and build the report."""
    spec = json.loads((head / "BENCHMARK.json").read_text())
    runs = []
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        trees = {"base": base, "head": head}
        run = {"pair": pair, "first": order[0]}
        for side in order:
            run[side] = perfbench(trees[side], workload, seconds, seed)
        runs.append(run)
    return {
        "workload": workload, "pairs": pairs, "seconds": seconds,
        "seed": seed,
        "metrics": {metric["name"]: summarize(metric, runs)
                    for metric in spec["end_to_end"]},
        "correct": {side: [run[side]["correct"] for run in runs]
                    for side in ("base", "head")},
        "failed": {side: [run[side]["failed"] for run in runs]
                   for side in ("base", "head")},
        "first": [run["first"] for run in runs],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("base", help="directory or git revision")
    parser.add_argument("head", help="directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="perfbench --seconds per run")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the report here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="abtest-") as scratch:
        try:
            base = resolve(args.base, Path(scratch), "base")
            head = resolve(args.head, Path(scratch), "head")
        except ValueError as error:
            print(f"abtest.py: {error}", file=sys.stderr)
            return 2
        try:
            report = abtest(base, head, args.workload, args.pairs,
                            args.seconds, args.seed)
        except RunFailed as error:
            print(f"abtest.py: {error}", file=sys.stderr)
            return 1
    report["base"], report["head"] = args.base, args.head
    text = json.dumps(report, indent=1)
    if args.json is not None:
        args.json.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
