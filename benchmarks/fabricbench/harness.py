"""The measuring loop: set-up, calibrated rounds, metrics.

A *round* is one pass over a workload's fixed op list.  Work is a fixed
number of rounds derived from ``--seconds`` (never a wall-clock deadline),
so op counts, simulated seconds and memory repeat exactly at a given seed.
Between ops and between rounds — outside every timed window — the harness
times a frozen pure-Python calibration kernel; a round's wall time is
reported relative to the mean of the calibration samples taken around and
inside it, which cancels most of the neighbour noise of a shared box
(README, "Why the wall metric is calibrated").
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import spec
from layertrace import BENCH_LAYER, Tracer

_clock = time.perf_counter

#: the calibration kernel's nominal duration; ``op_ms_norm`` is wall time
#: expressed on a machine where the kernel takes exactly this long
CALIB_REFERENCE_MS = 5.0
#: calibration samples at each round boundary (workloads add one per op)
BOUNDARY_SAMPLES = 3
#: set-up is repeated so ``setup_s`` is a median, not one noisy sample
SETUP_REPEATS = 3
#: rounds per workload at REFERENCE_SECONDS; ``--seconds`` scales all four
#: by the one ratio seconds / REFERENCE_SECONDS.  Sized on a 2-core box so
#: a whole run (three set-ups, rounds, calibration, output checks) takes
#: about twice ``--seconds`` for every workload.
REFERENCE_ROUNDS = {
    "v2s_load": 30,
    "s2v_save": 26,
    "sql_analytic": 38,
    "serve_zipf": 110,
}
REFERENCE_SECONDS = 35.0
MIN_ROUNDS = 3
#: a run on a box several times slower stops early rather than overrun the
#: caller's time limit; counts then differ and ``run.rounds`` shows it
OVERRUN_FACTOR = 3.0


class OpRecord(NamedTuple):
    kind: str
    #: wall seconds of this op alone; None when ops interleave untimed
    wall_s: Optional[float]
    sim_s: float
    ok: bool


class Round(NamedTuple):
    wall_s: float
    calib_ms: float
    ops: List[OpRecord]


def calibration_kernel() -> int:
    """Fixed interpreter-bound work: dict, float, tuple and list traffic.

    Frozen with ``spec.SCHEMA_VERSION`` — editing it moves every
    ``op_ms_norm`` ever recorded.
    """
    table: Dict[int, float] = {}
    acc = 0.0
    out: List[Tuple[int, float]] = []
    for i in range(25_000):
        key = i & 511
        acc += table.get(key, 0.5) * 1.000001
        table[key] = acc % 97.0
        if not i & 7:
            out.append((key, acc))
    return len(out)


def calibration_sample() -> float:
    """Kernel time in ms: the faster of two back-to-back runs, so a
    millisecond-scale descheduling cannot land in the denominator."""
    fastest = float("inf")
    for __ in range(2):
        started = _clock()
        calibration_kernel()
        fastest = min(fastest, (_clock() - started) * 1e3)
    return fastest


def rounds_for(workload: str, seconds: float) -> int:
    scaled = REFERENCE_ROUNDS[workload] * seconds / REFERENCE_SECONDS
    return max(MIN_ROUNDS, round(scaled))


def run_rounds(workload, count: int, probe: Tracer,
               budget_s: float) -> List[Round]:
    """``count`` timed rounds, each divided by its own calibration.

    Samples are dense on purpose: contention here comes in bursts shorter
    than a round, and only samples taken *between the ops* of a round see
    the machine the round saw.  A boundary's samples serve both neighbours.
    """
    rounds: List[Round] = []
    spent = 0.0
    gc.collect()
    samples = [calibration_sample() for __ in range(BOUNDARY_SAMPLES)]
    for index in range(count):
        wall, ops = workload.run_round(
            probe, lambda: samples.append(calibration_sample()))
        gc.collect()
        boundary = [calibration_sample() for __ in range(BOUNDARY_SAMPLES)]
        samples.extend(boundary)
        rounds.append(Round(wall, statistics.fmean(samples), ops))
        samples = boundary
        spent += wall
        if spent > budget_s and MIN_ROUNDS <= index + 1 < count:
            print(f"fabricbench: WARNING stopped after {index + 1}/{count} "
                  f"rounds ({spent:.0f}s timed > {budget_s:.0f}s budget); "
                  "count metrics are not comparable", file=sys.stderr)
            break
    return rounds


# ------------------------------------------------------------------ statistics
def lower_quartile(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def percentile_exact(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile: a value that was observed, never interpolated."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def norm_ms_per_op(rounds: List[Round], ops_per_round: int) -> List[float]:
    return [
        r.wall_s * 1e3 / r.calib_ms * CALIB_REFERENCE_MS / ops_per_round
        for r in rounds
    ]


def drift_frac(values: List[float]) -> float:
    """Last-third median over first-third median, minus one."""
    third = max(1, len(values) // 3)
    first = statistics.median(values[:third])
    last = statistics.median(values[-third:])
    return last / first - 1.0 if first else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- set-up
def set_up(factory: Callable[[], Any], repeats: int) -> Tuple[Any, float]:
    """Build, populate and warm the workload ``repeats`` times.

    Returns the last instance and the median wall seconds of one set-up
    (testbed + data + one untimed warm-up round), so work a later change
    moves out of the timed rounds and into set-up still shows.
    """
    durations = []
    workload = None
    for __ in range(repeats):
        workload = None  # let the previous testbed go before timing the next
        gc.collect()
        started = _clock()
        workload = factory()
        workload.setup()
        workload.run_round(Tracer(time_op_generators=False), lambda: None)
        durations.append(_clock() - started)
    return workload, statistics.median(durations)


# ----------------------------------------------------------------- end to end
def measure_end_to_end(name: str, factory: Callable[[], Any], seconds: float,
                       rounds: Optional[int] = None,
                       setup_repeats: int = SETUP_REPEATS) -> Dict[str, Any]:
    """The untraced run.  ``rounds``/``setup_repeats`` shorten a smoke test."""
    workload, setup_s = set_up(factory, setup_repeats)
    probe = Tracer(time_op_generators=False)
    timed = run_rounds(workload, rounds or rounds_for(name, seconds), probe,
                       OVERRUN_FACTOR * seconds)
    ops = [op for r in timed for op in r.ops]
    sims = [op.sim_s for op in ops]
    metrics = {
        "setup_s": setup_s,
        "op_ms_norm": lower_quartile(
            norm_ms_per_op(timed, workload.ops_per_round)),
        "sim_s_per_op": sum(sims) / len(sims),
        "sim_s_p95": percentile_exact(sims, 0.95),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = {n: u for n, u, __ in spec.END_TO_END}
    report_health(timed, workload.ops_per_round)
    return result_line(ops, metrics, units)


def report_health(rounds: List[Round], ops_per_round: int,
                  overhead: Optional[float] = None) -> Dict[str, float]:
    """Run-health numbers, with the drift/overhead guards on stderr."""
    raw = [r.wall_s * 1e3 / ops_per_round for r in rounds]
    health = {
        "run.raw_ms_per_op_p50": statistics.median(raw),
        "run.raw_ms_per_op_p95": percentile_exact(raw, 0.95),
        "run.calib_ms_p50": statistics.median(r.calib_ms for r in rounds),
        "run.rounds": float(len(rounds)),
        "run.drift_frac": drift_frac(norm_ms_per_op(rounds, ops_per_round)),
    }
    print(f"fabricbench: {len(rounds)} rounds, raw "
          f"{health['run.raw_ms_per_op_p50']:.3f} ms/op, calibration kernel "
          f"{health['run.calib_ms_p50']:.3f} ms, drift "
          f"{health['run.drift_frac']:+.3f}", file=sys.stderr)
    print("fabricbench: normalised ms/op by round: " + " ".join(
        f"{v:.2f}" for v in norm_ms_per_op(rounds, ops_per_round)),
        file=sys.stderr)
    if health["run.drift_frac"] > spec.DRIFT_WARN:
        print(f"fabricbench: WARNING run.drift_frac "
              f"{health['run.drift_frac']:.3f} > {spec.DRIFT_WARN}: rounds "
              "slow down as the run goes on (state is growing)",
              file=sys.stderr)
    if overhead is not None and overhead > spec.OVERHEAD_WARN:
        print(f"fabricbench: WARNING trace.overhead_frac {overhead:.3f} > "
              f"{spec.OVERHEAD_WARN}: per-layer shares are distorted",
              file=sys.stderr)
    return health


def result_line(ops: List[OpRecord], metrics: Dict[str, float],
                units: Dict[str, str]) -> Dict[str, Any]:
    failed = sum(1 for op in ops if not op.ok)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


# ------------------------------------------------------------------ per layer
def measure_per_layer(name: str, factory: Callable[[], Any], seconds: float,
                      trace_path: Optional[str],
                      rounds: Optional[int] = None) -> Dict[str, Any]:
    """One third of the rounds untraced, then one third with every layer
    wrapped and the program's own telemetry on."""
    from repro import telemetry

    workload, __ = set_up(factory, 1)
    count = rounds or max(MIN_ROUNDS, rounds_for(name, seconds) // 3)
    budget = OVERRUN_FACTOR * seconds / 3.0
    op_timer = Tracer()
    plain = run_rounds(workload, count, op_timer, budget)

    tracer = Tracer()
    scanned = {"scanned": 0, "output": 0}

    def note_cost(result) -> None:
        # a result-cache hit replays the memoised cost: nothing was scanned
        if result.columns and not result.cost.cache_hit:
            scanned["scanned"] += result.cost.rows_scanned
            scanned["output"] += result.cost.rows_output

    tracer.observers["Session.execute"] = note_cost
    registry = telemetry.MetricsRegistry(enabled=True)
    if workload.env is not None:
        registry.bind(workload.env)
    telemetry.install(registry)
    tracer.install()
    before = workload.counters()
    try:
        traced = run_rounds(workload, count, tracer, budget)
    finally:
        tracer.uninstall()
        telemetry.reset()
    after = workload.counters()
    snapshot = registry.snapshot()
    for target in tracer.unresolved:
        print(f"fabricbench: WARNING entry point {target} no longer "
              "resolves; its layer reads low", file=sys.stderr)

    per_round = workload.ops_per_round
    ops = [op for r in traced for op in r.ops]
    n_ops = len(ops)
    metrics: Dict[str, float] = {n: 0.0 for n, __, __ in spec.per_layer()}

    totals = tracer.layer_totals()
    metrics.update(_layer_metrics(totals, sum(r.wall_s for r in traced), n_ops))
    metrics.update(_count_metrics(
        snapshot.counters, snapshot.histograms, totals, tracer.name_calls(),
        scanned, before, after, n_ops))

    # per-kind wall comes from the untraced third: tracing must not be in it
    for kind in spec.KINDS[name]:
        samples = [
            op.wall_s * 1e3 / r.calib_ms * CALIB_REFERENCE_MS
            for r in plain for op in r.ops
            if op.kind == kind and op.wall_s is not None
        ]
        if samples:
            metrics[f"kind.{kind}.ms_norm_p25"] = lower_quartile(samples)

    base = lower_quartile(norm_ms_per_op(plain, per_round))
    with_trace = lower_quartile(norm_ms_per_op(traced, per_round))
    overhead = with_trace / base - 1.0
    metrics["trace.overhead_frac"] = overhead
    metrics.update(report_health(plain, per_round, overhead))

    if trace_path is not None:
        lines = tracer.write_jsonl(trace_path)
        print(f"fabricbench: wrote {lines} spans to {trace_path}",
              file=sys.stderr)
    units = {n: u for n, u, __ in spec.per_layer()}
    all_ops = [op for r in plain for op in r.ops] + ops
    return result_line(all_ops, metrics, units)


def _layer_metrics(totals: Dict[str, List[float]], traced_wall: float,
                   n_ops: int) -> Dict[str, float]:
    """Self time and calls per layer, and how much wall no layer owns."""
    metrics: Dict[str, float] = {}
    attributed = 0.0
    for layer in spec.LAYERS:
        self_s, calls, __ = totals.get(layer, (0.0, 0, 0.0))
        metrics[f"{layer}.self_ms_per_op"] = self_s * 1e3 / n_ops
        metrics[f"{layer}.calls_per_op"] = calls / n_ops
        attributed += self_s
    bench_self = totals.get(BENCH_LAYER, (0.0, 0, 0.0))[0]
    metrics["trace.unattributed_frac"] = (
        (traced_wall - attributed) / traced_wall if traced_wall else 0.0
    )
    print(f"fabricbench: traced wall {traced_wall:.3f}s = layers "
          f"{attributed:.3f}s + benchmark driver {bench_self:.3f}s + "
          f"outside any span {traced_wall - attributed - bench_self:.3f}s",
          file=sys.stderr)
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _count_metrics(counters: Dict[str, float],
                   histograms: Dict[str, Dict[str, float]],
                   totals: Dict[str, List[float]],
                   calls: Dict[str, int], scanned: Dict[str, int],
                   before: Dict[str, float], after: Dict[str, float],
                   n_ops: int) -> Dict[str, float]:
    """Counts the program exposes itself, read after the traced rounds.

    ``counters``/``histograms`` are the telemetry registry's; ``scanned``
    sums the CostReports ``Session.execute`` returned; ``before``/``after``
    are the workload's own gauges around the traced rounds.
    """
    def c(name: str) -> float:
        return counters.get(name, 0.0)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def hit_rate(hits: str, misses: str) -> float:
        return _ratio(c(hits), c(hits) + c(misses))

    wire = totals.get("connector.costmodel", (0.0, 0, 0.0))
    return {
        "vertica.engine.rows_scanned_per_op": scanned["scanned"] / n_ops,
        "vertica.engine.rows_scanned_per_row_out": _ratio(
            scanned["scanned"], scanned["output"]),
        "vertica.plan.rows_shuffled_per_op":
            c("vertica.plan.join.rows_shuffled") / n_ops,
        "vertica.plan.replans_per_op":
            c("vertica.plan.adaptive.replans") / n_ops,
        "cache.result.hit_rate": hit_rate(
            "vertica.cache.result.hits", "vertica.cache.result.misses"),
        "cache.result.evictions": c("vertica.cache.result.evictions"),
        "cache.plan.parse_hit_rate": hit_rate(
            "vertica.cache.plan.parse_hits", "vertica.cache.plan.parse_misses"),
        "cache.plan.plan_hit_rate": hit_rate(
            "vertica.cache.plan.hits", "vertica.cache.plan.misses"),
        "wlm.admission.queue_wait_sim_s_per_op": histograms.get(
            "wlm.queue_wait_seconds", {}).get("total", 0.0) / n_ops,
        "wlm.admission.rejections": c("wlm.rejections"),
        "spark.scheduler.task_attempts_per_op":
            c("spark.attempts_launched") / n_ops,
        "spark.scheduler.task_retries_per_op":
            c("spark.task_failures") / n_ops,
        "connector.jdbc.statements_per_op":
            calls.get("SimVerticaConnection.execute", 0) / n_ops,
        "connector.v2s.wire_bytes_per_row": _ratio(wire[2], wire[1]),
        "connector.s2v.copy_bytes_per_row": _ratio(
            c("vertica.copy.bytes"), c("vertica.copy.rows_loaded")),
        "connector.s2v.duplicate_rows": delta("duplicate_rows"),
        "sim.kernel.events_per_op": delta("sim_events") / n_ops,
        "sim.network.flows_per_op": calls.get("Network.transfer", 0) / n_ops,
        "hdfs.bytes_written_per_op":
            c("hdfs.staging.bytes_written") / n_ops,
        "vertica.storage.containers_end": after.get("containers", 0.0),
    }
