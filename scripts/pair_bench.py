#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change checkout, read by the
benchmark's rules for a claimed gain and for a regression.

    python3 scripts/pair_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seed S --seconds T

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` from
the root of each checkout N times, alternating which side goes first: the
parent in pairs 1, 3, 5, ..., the change in pairs 2, 4, 6, .... The last
line a run prints is its summary JSON. For every end-to-end metric that
``CHANGE_DIR/BENCHMARK.json`` declares (each ``<workload>.<metric>`` with
``--workload all``) it prints the parent's median and quartiles, the
change's median and quartiles, the pairs the change won (ties count for
neither), every pair's values, and three verdicts:

- claim met: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
- regression: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
- unresolved: the parent's interquartile range is wider than the bound
  times its median, so the runs spread too widely to tell a regression
  from noise, unless every run of the change is better than every run of
  the parent.

Quartiles are taken with ``statistics.quantiles(method="inclusive")``.
Exits 1 when a run reports failed operations or a metric regresses, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from the root of ``checkout``: its summary JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
              seconds: float) -> tuple[list, list]:
    """``pairs`` runs of each side, alternating which goes first; returns
    the parent's and the change's summaries, in pair order."""
    runs = {parent: [], change: []}
    for k in range(pairs):
        for side in ((parent, change) if k % 2 == 0 else (change, parent)):
            runs[side].append(run_once(side, workload, seed, seconds))
    return runs[parent], runs[change]


def compare(metric: dict, parent: list, change: list) -> dict:
    """The paired reading of one metric: ``parent`` and ``change`` hold the
    two sides' values, pair by pair."""
    sign = 1 if metric["better"] == "lower" else -1  # > 0: the change is better
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_q1, _, change_q3 = statistics.quantiles(change, n=4, method="inclusive")
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    gain = sign * (parent_median - change_median)
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    return {
        "parent_median": parent_median, "parent_q1": q1, "parent_q3": q3,
        "change_median": change_median, "change_q1": change_q1, "change_q3": change_q3,
        "won": won, "pairs": len(parent),
        "claim_met": won >= 0.9 * len(parent) and gain > q3 - q1,
        "regression": -gain > metric["bound"] * abs(parent_median),
        "unresolved": q3 - q1 > metric["bound"] * abs(parent_median) and not all_better,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    parent_runs, change_runs = run_pairs(args.parent.resolve(), args.change.resolve(),
                                         args.workload, args.pairs, args.seed, args.seconds)

    failed = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        side_failed = sum(r["failed"] for r in runs)
        failed += side_failed
        print(f"{side}: {side_failed} of {sum(r['attempted'] for r in runs)} operations failed")
    regressed = False
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    for name in change_runs[0]["metrics"]:
        metric = declared[name.split(".")[-1]]  # <workload>.<metric> under --workload all
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        c = compare(metric, parent, change)
        regressed |= c["regression"]
        print(f"{name} [{metric['unit']}, {metric['better']} is better, bound "
              f"{metric['bound']:g}]: parent median {c['parent_median']:.6g} "
              f"[q1 {c['parent_q1']:.6g}, q3 {c['parent_q3']:.6g}], change median "
              f"{c['change_median']:.6g} [q1 {c['change_q1']:.6g}, q3 "
              f"{c['change_q3']:.6g}], won {c['won']}/{c['pairs']}, claim met: "
              f"{'yes' if c['claim_met'] else 'no'}, regression: "
              f"{'yes' if c['regression'] else 'no'}, unresolved: "
              f"{'yes' if c['unresolved'] else 'no'}")
        print("  parent: " + " ".join(f"{v:.6g}" for v in parent))
        print("  change: " + " ".join(f"{v:.6g}" for v in change))
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
