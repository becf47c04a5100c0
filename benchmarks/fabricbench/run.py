#!/usr/bin/env python3
"""fabricbench: four fixed-work workloads, two clocks, one command.

    python3 benchmarks/fabricbench/run.py [--workload W] [--seed N]
                                          [--seconds S] [--trace [0|1]]

Without ``--workload`` all four run, one after another, each in its own
fresh interpreter.  ``--trace`` adds (with a workload: switches to) the
traced run that attributes wall time to layers.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"
RESULTS = HERE / "results"
DEFAULT_SEED = 11
DEFAULT_SECONDS = 12
#: set in the environment of a child whose hashing and address layout are pinned
PINNED = "FABRICBENCH_PINNED"
ADDR_NO_RANDOMIZE = 0x0040000

sys.path.insert(0, str(HERE))
import spec  # noqa: E402 - needs the path line above


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="sizes the fixed round count (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Measure one workload in this interpreter."""
    sys.path.insert(0, str(SOURCE))
    import harness
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]

    def factory():
        return cls(args.seed)

    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        trace_path = RESULTS / f"trace_{args.workload}.jsonl"
        return harness.measure_per_layer(
            args.workload, factory, args.seconds, str(trace_path))
    return harness.measure_end_to_end(args.workload, factory, args.seconds)


def print_metrics(workload: str, result: Dict[str, Any]) -> None:
    print(f"== {workload}: {result['attempted']} ops, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6f} {metric['unit']}")


def _fix_address_layout() -> None:
    """In the child, before exec: switch address-space randomisation off.

    The sim kernel iterates sets of objects, so float accumulation order —
    and with it the simulated clock's last digits — follows memory
    addresses.  With the layout fixed the sim metrics and every count repeat
    bit for bit.  Where the call is not permitted the run goes on unpinned.
    """
    libc = ctypes.CDLL(None)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def child(argv: List[str]) -> subprocess.CompletedProcess:
    """Re-run this script in a fresh interpreter, hashing and layout pinned."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{PINNED: "1"})
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env=env, stdout=subprocess.PIPE, text=True, check=False,
        preexec_fn=_fix_address_layout,
    )


def last_json_line(text: str) -> Dict[str, Any]:
    return json.loads(text.rstrip().splitlines()[-1])


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"fabricbench: no program to measure at {SOURCE}",
              file=sys.stderr)
        return 2

    if args.workload and os.environ.get(PINNED) == "1":
        result = run_workload(args)
        print_metrics(args.workload, result)
        print(json.dumps(result))
        return 0

    if args.workload:
        done = child(argv)
        sys.stdout.write(done.stdout)
        return done.returncode

    # every workload, one fresh interpreter each, never two at once
    summary: Dict[str, Any] = {}
    status = 0
    modes = (0, 1) if args.trace else (0,)
    for workload in spec.WORKLOADS:
        for trace in modes:
            done = child(["--workload", workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(trace)])
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                status = done.returncode
                continue
            result = last_json_line(done.stdout)
            entry = summary.setdefault(
                workload, {"correct": True, "attempted": 0, "failed": 0,
                           "metrics": {}})
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
    print(json.dumps(summary))
    if any(not entry["correct"] for entry in summary.values()):
        status = status or 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
