"""Compare the benchmark's end-to-end metrics with another revision, in pairs.

    python3 scripts/pairs.py REV [--workload W]

Exports REV with ``git archive`` into a temporary directory (removed again
afterwards), then runs each tree's own ``perfbench/run.py --trace 0`` on the
same workload, seed (SEED) and run length (BENCHMARK.json's run_seconds)
in PAIRS alternating pairs: REV (the base) and this working tree (the
change), with the side that runs first swapped from one pair to the next,
so a drift of the host's speed falls on both sides alike.
Without ``--workload``, every workload of BENCHMARK.json runs, one after
another.

Only the last line of each run's standard output is read: run.py's JSON
result. This script measures nothing itself. Per workload and end-to-end
metric of BENCHMARK.json it prints the base's median and quartiles, the
change's median, the relative change of the medians, the pairs in which
the change was better, in the metric's own direction, and a verdict
(:func:`compare`): gain, unresolved, worse or no change. Exits 0 when
every run was correct and none failed, 1 when one was not (each such run
is named on standard error), and 2 when REV cannot be exported.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The master seed of every run, on both sides.
SEED = 5
# Pairs per workload: the fewest that a claimed gain is judged on.
PAIRS = 10


def export(rev: str, dest: str) -> bool:
    """Write the files of ``rev`` into dest; False if git cannot."""
    archive = os.path.join(dest, "rev.tar")
    done = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", archive, rev])
    if done.returncode != 0:  # git has named the problem
        return False
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "rev"), filter="data")
    os.remove(archive)
    return True


def run(tree: str, workload: str, seconds: float) -> dict | None:
    """run.py's JSON result in ``tree``, or None if it printed none."""
    args = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(pairs: list[tuple[float, float]], lower: bool, bound: float) -> tuple:
    """``(q1, median, q3, change median, pairs won, verdict)`` of one
    metric's (base, change) pairs: the base's median and quartiles, the
    change's median, the pairs in which the change was better, and the
    verdict, which takes the bound as a fraction of the base's median.
    It is ``gain`` when the change is better in at least nine tenths of
    the pairs and its median better by more than the base's interquartile
    distance; else ``unresolved`` when that distance exceeds the bound;
    else ``worse`` when the change's median is worse by more than the
    bound; else ``no change``."""
    q1, base, q3 = quartiles([b for b, _ in pairs])
    change = statistics.median(c for _, c in pairs)
    won = sum(c < b if lower else c > b for b, c in pairs)
    better = base - change if lower else change - base
    if 10 * won >= 9 * len(pairs) and better > q3 - q1:
        word = "gain"
    elif q3 - q1 > bound * abs(base):
        word = "unresolved"
    elif -better > bound * abs(base):
        word = "worse"
    else:
        word = "no change"
    return q1, base, q3, change, won, word


def report(workload: str, metrics: list[dict], results: dict[str, list]) -> None:
    """Print one line per end-to-end metric of the workload's pairs, from
    the pairs in which both sides reported it."""
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base, change = ([(r or {}).get("metrics", {}).get(name, {}).get("value") for r in runs]
                        for runs in (results["base"], results["change"]))
        pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
        if not pairs:
            print(f"{workload:16} {name:12} not reported")
            continue
        q1, base_median, q3, change_median, won, word = compare(pairs, lower, metric["bound"])
        relative = (change_median - base_median) / base_median if base_median else float("nan")
        print(f"{workload:16} {name:12} base {base_median:.4g} [{q1:.4g}, {q3:.4g}]  "
              f"change {change_median:.4g}  {relative:+.1%}  better in {won}/{len(pairs)}  {word}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        if not export(args.rev, tmp):
            return 2
        trees = {"base": os.path.join(tmp, "rev"), "change": ROOT}
        for workload in workloads:
            results = {"base": [], "change": []}
            for i in range(PAIRS):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    result = run(trees[side], workload, bench["run_seconds"])
                    if result is None or not result.get("correct") or result.get("failed"):
                        bad += 1
                        print(f"{workload}: pair {i + 1}, {side}: incorrect or failed run: "
                              f"{result}", file=sys.stderr)
                    results[side].append(result)
            report(workload, bench["end_to_end"], results)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
