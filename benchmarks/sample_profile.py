#!/usr/bin/env python3
"""Sampling profiler for fabricbench workloads (stdlib only).

    python3 benchmarks/sample_profile.py WORKLOAD [--kind KIND] [--rounds 10]
                                         [--seed 11] [--top 15] [--memory]

Sets the workload up, then samples the Python stack every millisecond of
CPU (``ITIMER_PROF``; the kernel may tick coarser) while ``--rounds``
rounds run, or that many rounds of one op kind, and prints self time by
function and by line, then cumulative time.  Beside the samples it prints
the simulated events per op (``env.stats.events_processed``, the count
fabricbench's ``sim.kernel.events_per_op`` reads) and the host time per
simulated event: what a change that only speeds the simulator must lower
while the events stay exactly the same.  A handler runs between
bytecodes, so a builtin's time lands on the line that called it, and no
call pays a hook, unlike under cProfile (docs/BENCH.md).

``--memory`` traces allocations instead.  It first prints the peak RSS
and the count of gc-tracked objects once the workload's modules are
imported, before set-up, so import weight shows apart from the data and
from per-round growth.  Then it starts ``tracemalloc`` after set-up,
prints the bytes still traced after each round (after ``gc.collect()``),
then the ``--top`` allocation sites whose memory was retained since
set-up, grouped by traceback.  Memory that grows round
after round is state one round leaves to the next.  Each line also
prints the peak RSS so far (``ru_maxrss``, as fabricbench's
``peak_rss_mb`` reads it): tracemalloc cannot see allocator slack, and
from the first round on that figure includes tracemalloc's own books.
"""

import argparse
import collections
import gc
import resource
import signal
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: frames kept per traced allocation (``--memory`` groups by traceback)
MEMORY_FRAMES = 6


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


def peak_rss_mb():
    """The process's peak resident set so far, as fabricbench reads it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_report():
    """Peak RSS and gc-tracked objects: the weight of what is imported."""
    gc.collect()
    return (f"imports: peak RSS {peak_rss_mb():.2f} MB, "
            f"{len(gc.get_objects())} gc-tracked objects")


def memory_report(run_round, rounds, top=15):
    """Run ``rounds`` rounds under ``tracemalloc``; returns the report."""
    gc.collect()
    tracemalloc.start(MEMORY_FRAMES)
    start = tracemalloc.take_snapshot()
    lines = []
    for number in range(1, rounds + 1):
        run_round()
        gc.collect()
        traced, peak = tracemalloc.get_traced_memory()
        lines.append(f"round {number}: {traced / 1e6:.2f} MB traced "
                     f"(peak {peak / 1e6:.2f} MB), "
                     f"peak RSS {peak_rss_mb():.2f} MB")
    end = tracemalloc.take_snapshot()
    tracemalloc.stop()
    ignore = [tracemalloc.Filter(False, tracemalloc.__file__)]
    retained = end.filter_traces(ignore).compare_to(
        start.filter_traces(ignore), "traceback")
    lines.append(f"-- retained since set-up, top {top} sites by traceback")
    for stat in retained[:top]:
        lines.append(f"{stat.size_diff / 1e6:+9.3f} MB  {stat.count_diff:+d} blocks")
        lines.extend(f"    {line}" for line in
                     stat.traceback.format(most_recent_first=True))
    return "\n".join(lines)


def sim_events(workload):
    """Simulated events processed so far; 0 for a workload with no sim."""
    return workload.env.stats.events_processed if workload.env else 0


def event_report(events, ops, seconds):
    """Events per op and host microseconds per event over ``ops`` ops."""
    if not events:
        return f"{ops} ops, no simulated events"
    return (f"{events / ops:.6f} simulated events/op, "
            f"{1e6 * seconds / events:.3f} host us/event "
            f"({events} events, {ops} ops, {seconds:.3f} s)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--kind", help="run only this op kind's calls")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument(
        "--memory", action="store_true",
        help="trace allocations (tracemalloc) instead of sampling CPU: "
             "traced bytes after each round, then the sites retained since "
             "set-up; not a timer, since tracing slows every allocation")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "fabricbench")]
    from layertrace import Tracer
    from workloads import WORKLOADS

    if args.memory:
        print(import_report())
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    ops = 0

    def run_round():
        nonlocal ops
        if args.kind is None:
            __, records = workload.run_round(
                Tracer(time_op_generators=False), lambda: None)
            ops += len(records)
            return
        workload.before_round()
        for op in workload.round_ops():
            if op.kind == args.kind:
                op.run()
                ops += 1

    if args.memory:
        print(f"set-up: peak RSS {peak_rss_mb():.2f} MB")
        print(memory_report(run_round, args.rounds, args.top))
        return
    events = sim_events(workload)
    started = time.perf_counter()
    with Sampler() as sampler:
        for __ in range(args.rounds):
            run_round()
    seconds = time.perf_counter() - started
    print(sampler.report(args.top))
    print(event_report(sim_events(workload) - events, ops, seconds))


if __name__ == "__main__":
    main()
