#!/usr/bin/env python3
"""Does fabricbench agree with itself?  Two full sets of the same code.

    python3 benchmarks/fabricbench/check_repeat.py [--seed N] [--seconds S]
                                                   [--workload W ...]

Runs every workload twice (end-to-end and traced), back to back, and prints
for each end-to-end metric × workload the relative difference between the
sets beside that metric's bound.  Exits non-zero when

- an end-to-end metric differs by more than its bound,
- a simulated-clock metric or a count is not bit-identical between the two
  sets (``run.py`` pins hashing and the address layout of its children, and
  with those pinned the sim is deterministic: a difference is a bug, or a
  box that does not permit the pinning), or
- no simulated metric changes at ``seed + 1`` (the seed would then not be
  reaching the inputs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402 - needs the path line above
import spec  # noqa: E402

SIM_METRICS = ("sim_s_per_op", "sim_s_p95")


def exact_metrics() -> List[str]:
    """Per-layer metrics that count events or read the sim clock."""
    names = [name for name, __, __ in spec.COUNTS]
    names += [f"{layer}.calls_per_op" for layer in spec.LAYERS]
    names.append("run.rounds")
    return names


def inexact(label: str, a: float, b: float) -> bool:
    """Print a pair that should be identical and is not."""
    if a != b:
        print(f"{label}: {a!r} != {b!r}  NOT EXACT")
    return a != b


def measure(workload: str, seed: int, seconds: float,
            trace: int) -> Dict[str, Any]:
    done = run.child(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)])
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited "
                         f"{done.returncode}")
    result = run.last_json_line(done.stdout)
    if not result["correct"]:
        raise SystemExit(f"{workload} (trace {trace}): {result['failed']} of "
                         f"{result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    parser.add_argument("--workload", action="append",
                        choices=sorted(spec.WORKLOADS))
    args = parser.parse_args(argv)
    workloads = args.workload or list(spec.WORKLOADS)

    sets: List[Dict[str, Dict[int, Dict[str, float]]]] = []
    for number in (1, 2):
        print(f"-- set {number}", file=sys.stderr)
        sets.append({
            w: {t: measure(w, args.seed, args.seconds, t) for t in (0, 1)}
            for w in workloads
        })
    first, second = sets

    breaches = 0
    print(f"{'workload':<14}{'metric':<16}{'set 1':>14}{'set 2':>14}"
          f"{'diff':>9}{'bound':>7}")
    for workload in workloads:
        for name, __, bound in spec.END_TO_END:
            a, b = first[workload][0][name], second[workload][0][name]
            diff = (b - a) / a
            bad = abs(diff) > bound
            breaches += bad
            print(f"{workload:<14}{name:<16}{a:>14.4f}{b:>14.4f}"
                  f"{diff:>+9.4f}{bound:>7.2f}{'  BREACH' if bad else ''}")
            if name in SIM_METRICS:
                breaches += inexact(f"{workload:<14}{name}", a, b)
        for name in exact_metrics():
            breaches += inexact(f"{workload:<14}{name}",
                                first[workload][1][name],
                                second[workload][1][name])

    other = args.seed + 1
    print(f"-- seed {other}", file=sys.stderr)
    for workload in workloads:
        moved = measure(workload, other, args.seconds, 0)
        if all(moved[n] == first[workload][0][n] for n in SIM_METRICS):
            breaches += 1
            print(f"{workload:<14}{', '.join(SIM_METRICS)}: identical at "
                  f"seeds {args.seed} and {other}  SEED IGNORED")
    print("check_repeat: " + ("ok" if not breaches else f"{breaches} breach(es)"))
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
