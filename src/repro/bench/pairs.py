"""Alternating pairs against the parent tree: the one judge of wall time.

A wall number on a shared box moves by a quarter between a quiet hour and
a busy one, so the parent tree, timed in alternation with the change on
the same box, is the calibration (Kalibera & Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013).  :func:`judge` is ``grid
--pairs TREE``; ``benchmarks/ab_pairs.py`` and the grid's in-run
``wall_ms`` share its statistics and timer.  The file is stdlib-only, and
run as a script it is the worker :func:`judge` starts per tree, with only
the *measured* tree's ``src`` on ``PYTHONPATH``: each side imports its
own engine and areas, and both are timed by this tree's code.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: pairs per cell; the side that goes first swaps every pair
PAIRS = 20
#: a cell fails when the change loses at least this many of its pairs (9
#: in 10: a fair coin does so once in 5,000 cells)...
LOSSES = 18
#: ...and its median is more than this fraction over the parent's
BOUND = 0.10
#: one timing runs the statement back to back for at least this long
WINDOW_SECONDS = 0.075
SIDES = ("parent", "change")


def seconds(statement, n):
    """Seconds for ``n`` back-to-back executions, from a collected heap
    and with the cyclic collector off (``timeit``'s convention)."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for __ in range(n):
            statement()
        return time.perf_counter() - started
    finally:
        gc.enable()


def calls_per_window(statement, window):
    """After one warm call, the executions that fill ``window`` seconds."""
    statement()
    return int(window / max(seconds(statement, 1), 1e-9)) + 1


def alternate(count, measure):
    """``count`` pairs ``{side: measure(side, number)}`` over :data:`SIDES`;
    the side that goes first swaps every pair."""
    return [{side: measure(side, number)
             for side in SIDES[::-1 if number % 2 else 1]}
            for number in range(count)]


def quartiles(values):
    """``(q1, median, q3)`` of at least two values."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def sign_test(parent, change):
    """``(won, lost)``: pairs where the change is lower / higher; a tie
    counts for neither."""
    return (sum(c < p for p, c in zip(parent, change)),
            sum(c > p for p, c in zip(parent, change)))


def within_bound(parent, change, bound, better):
    """Whether ``change`` is worse than ``parent`` by no more than the
    fraction ``bound``; worse is higher, or lower where ``better`` is
    ``"higher"``."""
    if better == "higher":
        return change >= parent * (1 - bound)
    return change <= parent * (1 + bound)


def verdict(parent, change):
    """``(fails, why)`` for one cell's paired seconds per execution.

    The cell fails when the change loses :data:`LOSSES` or more pairs
    *and* its median is more than :data:`BOUND` over the parent's.  A
    side that is ``None`` does not have the cell: reported, not judged.
    """
    if parent is None or change is None:
        only = "parent" if change is None else "change"
        return False, f"only in the {only} tree, not judged"
    won, lost = sign_test(parent, change)
    p, c = statistics.median(parent), statistics.median(change)
    fails = lost >= LOSSES and not within_bound(p, c, BOUND, "lower")
    return fails, (f"{'FAIL' if fails else 'pass'}: parent {p * 1e3:.4g} ms, "
                   f"change {c * 1e3:.4g} ms ({100 * (c / p - 1):+.1f} %), "
                   f"change lost {lost}, won {won} of {len(parent)}")


def _ask(worker, request=None):
    try:
        if request is not None:
            worker.stdin.write(json.dumps(request) + "\n")
            worker.stdin.flush()
        line = worker.stdout.readline()
    except BrokenPipeError:
        line = ""
    if not line:
        raise EOFError(f"{worker.args[2]} worker exited {worker.wait()}")
    return json.loads(line)


def judge(tree, areas, log=print):
    """Time every ``wall`` cell of ``areas`` in this tree and in ``tree``
    in alternating pairs; returns 1 if a cell failed or a worker died."""
    sources = {"parent": Path(tree).resolve() / "src",
               "change": Path(__file__).resolve().parents[2]}
    workers = {}
    try:
        for side in SIDES:  # both build their cells at once
            env = dict(os.environ, PYTHONPATH=str(sources[side]),
                       PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"))
            workers[side] = subprocess.Popen(
                [sys.executable, __file__, side, *areas], env=env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        cells = {side: _ask(workers[side]) for side in SIDES}
        failed = 0
        for cell in cells["change"] + [c for c in cells["parent"]
                                       if c not in cells["change"]]:
            times = {side: [] if cell in cells[side] else None for side in SIDES}
            if None not in times.values():
                n = min(_ask(workers[side], [cell, -WINDOW_SECONDS])
                        for side in SIDES)  # the slower side fills it
                runs = alternate(PAIRS, lambda side, __: _ask(
                    workers[side], [cell, n]) / n)
                times = {side: [run[side] for run in runs] for side in SIDES}
            fails, why = verdict(times["parent"], times["change"])
            failed += fails
            log(f"[pairs] {cell}: {why}")
    except EOFError as exc:
        log(f"[pairs] FAILED: {exc}")
        return 1
    finally:
        for worker in workers.values():
            worker.kill()
            worker.wait()
    log(f"[pairs] {failed} cell(s) failed against {tree}")
    return int(failed > 0)


def serve(areas):
    """The worker: build each cell once, then answer ``[cell, n]`` with the
    seconds of ``n`` executions (``n < 0``: the calls filling ``-n`` s)."""
    from repro.bench.areas import AREAS

    reply, sys.stdout = sys.stdout, sys.stderr  # an area's prints stay out
    statements = {}
    for name in areas:
        area = AREAS.get(name)
        for params in area.grid().cells() if area else ():
            statement = area.run_cell(dict(params)).get("wall")
            if statement is not None:
                statements[f"{name} {area.grid().cell_id(params)}"] = statement
    gc.freeze()  # the built cells are never garbage: collect skips them
    print(json.dumps(list(statements)), file=reply, flush=True)
    for line in sys.stdin:
        cell, n = json.loads(line)
        answer = (seconds(statements[cell], n) if n > 0
                  else calls_per_window(statements[cell], -n))
        print(json.dumps(answer), file=reply, flush=True)


if __name__ == "__main__":
    del sys.path[0]  # this directory: only the measured tree's src
    serve(sys.argv[2:])
