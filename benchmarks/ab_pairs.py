#!/usr/bin/env python3
"""Alternating parent/change pairs of fabricbench workloads.

    python3 benchmarks/ab_pairs.py PARENT CHANGE --workload W[,W...]
                                   [--seed N[,N...]] [--pairs 10]

Each tree runs its *own* ``benchmarks/fabricbench/run.py``; which side goes
first swaps every pair.  One table per (workload, seed), workloads
outermost; per end-to-end metric of ``BENCHMARK.json``: both medians with
quartiles, pairs won and lost, whether the medians are further apart than
the parent's inter-quartile distance, whether that makes a claimable
``gain``, whether the change is within the metric's bound and, for sim
seconds, whether every run printed the same digits.  A run that exits
non-zero takes its pair out of the table, and the exit status is then 1,
as it is when a run reports a failed op or ``correct: false``.  See
docs/BENCH.md.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.bench.pairs import (  # noqa: E402
    alternate, quartiles, sign_test, within_bound)


def gain(won, count, parent, change, better):
    """The rule a claimed gain must meet: the change won at least 9 in 10
    of the ``count`` pairs run, and its median is better than the parent's
    by more than the parent's inter-quartile distance, in the metric's
    ``better`` direction.  ``parent`` is the parent's ``(q1, median, q3)``,
    ``change`` the change's median."""
    q1, median, q3 = parent
    ahead = change - median if better == "higher" else median - change
    return 10 * won >= 9 * count and ahead > q3 - q1


def run_once(tree, workload, seed):
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks/fabricbench/run.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=False)
    result = {"failed": 1, "correct": False, "metrics": None}  # exited non-zero
    if done.returncode == 0:
        result = json.loads(done.stdout.rstrip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        sys.stderr.write(done.stderr)  # which op failed, and its traceback
    return result


def seed_list(text):
    """``"11"`` or ``"11,12"`` as a list of ints (argparse ``type=``)."""
    return [int(part) for part in text.split(",")]


def workload_list(text):
    """``"v2s_load"`` or ``"sql_analytic,v2s_load"`` as a list of names."""
    names = text.split(",")
    if not all(names):
        raise argparse.ArgumentTypeError(f"empty workload name in {text!r}")
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--workload", type=workload_list, required=True,
                        dest="workloads", metavar="W[,W...]",
                        help="one table per workload and seed")
    parser.add_argument("--seed", type=seed_list, default=[11], dest="seeds",
                        metavar="N[,N...]", help="one table per seed (default 11)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs")
    return args


def main(argv):
    args = parse_args(argv)
    bad = sum(run_pairs(args, workload, seed)
              for workload in args.workloads for seed in args.seeds)
    return int(bad > 0)


def run_pairs(args, workload, seed):
    """Run and tabulate one (workload, seed)'s pairs; returns how many runs
    went bad."""
    spec = json.loads((args.change_tree / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent_tree, "change": args.change_tree}

    def measure(side, number):
        run = run_once(sides[side], workload, seed)
        took = run["metrics"] and run["metrics"]["op_ms_norm"]["value"]
        print(f"{workload} seed {seed} pair {number + 1} {side}: "
              f"op_ms_norm {took}", file=sys.stderr)
        return run

    pairs = alternate(args.pairs, measure)
    bad = sum(bool(r["failed"]) or not r["correct"] for p in pairs for r in p.values())
    pairs = [pair for pair in pairs if all(r["metrics"] for r in pair.values())]
    print(f"{workload}, seed {seed}, {len(pairs)} alternating pairs"
          f"{f', {bad} failed runs' if bad else ''}\n"
          "| metric | parent median [q1, q3] | change median [q1, q3] "
          "| change/parent | pairs won | > parent IQR | gain | within bound "
          "| == |\n" + "|---" * 9 + "|")
    for metric in spec["end_to_end"] if len(pairs) >= 2 else []:
        name, sign = metric["name"], -1 if metric["better"] == "higher" else 1
        parent, change = ([pair[side]["metrics"][name]["value"] for pair in pairs]
                          for side in sides)
        won, lost = sign_test([sign * p for p in parent],
                              [sign * c for c in change])
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        same = len(set(parent + change)) == 1 if name.startswith("sim_s") else ""
        print(f"| {name} | {p2:.6g} [{p1:.6g}, {p3:.6g}] "
              f"| {c2:.6g} [{c1:.6g}, {c3:.6g}] | {c2 / (p2 or math.nan):.3f} "
              f"| {won} won, {lost} lost of {len(pairs)} "
              f"| {abs(c2 - p2) > p3 - p1} "
              f"| {gain(won, len(pairs), (p1, p2, p3), c2, metric['better'])} "
              f"| {within_bound(p2, c2, metric['bound'], metric['better'])} "
              f"| {same} |")
    sys.stdout.flush()  # a table is out before the next one starts
    return bad


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
