#!/usr/bin/env python3
"""Sampling profiler for fabricbench workloads (stdlib only).

    python3 benchmarks/sample_profile.py WORKLOAD [--kind KIND] [--rounds 10]
                                         [--seed 11] [--top 15]

Sets the workload up, then samples the Python stack every millisecond of
CPU (``ITIMER_PROF``; the kernel may tick coarser) while ``--rounds``
rounds run, or that many rounds of one op kind, and prints self time by
function and by line, then cumulative time.  A handler runs between
bytecodes, so a builtin's time lands on the line that called it, and no
call pays a hook, unlike under cProfile (docs/BENCH.md).
"""

import argparse
import collections
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Sampler:
    """``with Sampler(): ...`` counts the stacks it interrupts."""

    def __init__(self, interval=0.001):
        self.interval = interval
        self.self_fn = collections.Counter()
        self.self_line = collections.Counter()
        self.cumulative = collections.Counter()

    def _sample(self, signum, frame):
        code = frame.f_code
        self.self_fn[(code.co_filename, code.co_name)] += 1
        self.self_line[(code.co_filename, code.co_name, frame.f_lineno)] += 1
        on_stack = set()
        while frame is not None:
            on_stack.add((frame.f_code.co_filename, frame.f_code.co_name))
            frame = frame.f_back
        self.cumulative.update(on_stack)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def report(self, top=15):
        total = max(sum(self.self_fn.values()), 1)
        lines = [f"{total} samples"]
        for title, counts in (("self by function", self.self_fn),
                              ("self by line", self.self_line),
                              ("cumulative by function", self.cumulative)):
            lines.append(f"-- {title}")
            for (path, name, *line), n in counts.most_common(top):
                where = f"{Path(path).name}:{line[0]}" if line else Path(path).name
                lines.append(f"{100 * n / total:6.1f}%  {where}  {name}")
        return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--kind", help="sample only this op kind's calls")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "fabricbench")]
    from layertrace import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    with Sampler() as sampler:
        for __ in range(args.rounds):
            if args.kind is None:
                workload.run_round(Tracer(time_op_generators=False), lambda: None)
                continue
            workload.before_round()
            for op in workload.round_ops():
                if op.kind == args.kind:
                    op.run()
    print(sampler.report(args.top))


if __name__ == "__main__":
    main()
