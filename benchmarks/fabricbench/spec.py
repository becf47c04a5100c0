"""Names, units and bounds of everything fabricbench reports.

One table, read by the runner (what to print), by ``BENCHMARK.json``'s
consistency test (what the file must list) and by ``check_repeat.py``
(which bound each metric is held to).  Changing a definition here is a
``benchmark`` change: bump :data:`SCHEMA_VERSION` and re-measure baselines.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: bumped when a metric, a workload's op list or the calibration kernel changes
SCHEMA_VERSION = 1

#: workload name -> the reason it exists (``why`` in BENCHMARK.json)
WORKLOADS: Dict[str, str] = {
    "v2s_load": (
        "read path: plan.execute + engine.scan are 60% of wall, avrolite and "
        "copyload idle; what a columnar-executor change must move"
    ),
    "s2v_save": (
        "write path: avrolite, DML, COPY and the sim network carry it, scans "
        "are 2%; one op retries every task, so exactly-once is in the number"
    ),
    "sql_analytic": (
        "engine only, no sim/Spark/connector: parse, bind, optimize, "
        "operators, storage; DML beside the reads taxes read-only layouts"
    ),
    "serve_zipf": (
        "thousands of tiny statements, 6 clients over 4 WLM slots: the one "
        "workload where caches, admission, sim kernel and per-statement "
        "cost carry weight (a third of wall)"
    ),
}

#: (name, unit, bound).  Lower is better for every end-to-end metric.
#: Bounds are at least three times the spread measured over ten seeds
#: (README "Bounds"); ``setup_s`` is raw wall time and gets the widest.
END_TO_END: List[Tuple[str, str, float]] = [
    ("setup_s", "s", 0.25),
    ("op_ms_norm", "ms", 0.20),
    ("sim_s_per_op", "sim_s", 0.05),
    ("sim_s_p95", "sim_s", 0.05),
    ("peak_rss_mb", "MB", 0.10),
]

#: the repo's modules, outside in; each gets self_ms_per_op + calls_per_op
LAYERS: Tuple[str, ...] = (
    "sim.kernel",
    "sim.network",
    "spark.scheduler",
    "spark.dataframe",
    "connector.v2s",
    "connector.s2v",
    "connector.staging",
    "connector.jdbc",
    "connector.costmodel",
    "wlm.admission",
    "vertica.session",
    "vertica.sql",
    "cache.plan",
    "cache.result",
    "vertica.plan.bind",
    "vertica.plan.optimize",
    "vertica.plan.execute",
    "vertica.engine.scan",
    "vertica.engine.dml",
    "vertica.copyload",
    "vertica.txn",
    "vertica.tuplemover",
    "avrolite",
    "hdfs",
    "pmml",
)

#: op kinds per workload, in the order one round issues them
KINDS: Dict[str, Tuple[str, ...]] = {
    "v2s_load": (
        "load_full", "load_filtered", "load_agg", "load_d2", "load_staged",
    ),
    "s2v_save": (
        "save_overwrite", "save_append", "save_d2", "save_staged",
        "save_faulty",
    ),
    "sql_analytic": (
        "point", "full_scan", "filtered_scan", "grouped_agg", "join2",
        "star4", "score", "dml",
    ),
    "serve_zipf": ("read_zipf", "read_point", "write"),
}

#: counts the program already exposes: (name, unit, better)
COUNTS: List[Tuple[str, str, str]] = [
    ("vertica.engine.rows_scanned_per_op", "rows/op", "lower"),
    ("vertica.engine.rows_scanned_per_row_out", "rows/row", "lower"),
    ("vertica.plan.rows_shuffled_per_op", "rows/op", "lower"),
    ("vertica.plan.replans_per_op", "count/op", "lower"),
    ("cache.result.hit_rate", "frac", "higher"),
    ("cache.result.evictions", "count", "lower"),
    ("cache.plan.parse_hit_rate", "frac", "higher"),
    ("cache.plan.plan_hit_rate", "frac", "higher"),
    ("wlm.admission.queue_wait_sim_s_per_op", "sim_s/op", "lower"),
    ("wlm.admission.rejections", "count", "lower"),
    ("spark.scheduler.task_attempts_per_op", "count/op", "lower"),
    ("spark.scheduler.task_retries_per_op", "count/op", "lower"),
    ("connector.jdbc.statements_per_op", "count/op", "lower"),
    ("connector.v2s.wire_bytes_per_row", "B/row", "lower"),
    ("connector.s2v.copy_bytes_per_row", "B/row", "lower"),
    ("connector.s2v.duplicate_rows", "rows", "lower"),
    ("sim.kernel.events_per_op", "count/op", "lower"),
    ("sim.network.flows_per_op", "count/op", "lower"),
    ("hdfs.bytes_written_per_op", "B/op", "lower"),
    ("vertica.storage.containers_end", "count", "lower"),
]

#: health of the run itself, printed beside the numbers it explains
RUN_HEALTH: List[Tuple[str, str, str]] = [
    ("run.raw_ms_per_op_p50", "ms", "lower"),
    ("run.raw_ms_per_op_p95", "ms", "lower"),
    ("run.calib_ms_p50", "ms", "lower"),
    ("run.rounds", "count", "higher"),
    ("run.drift_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
]

#: warn when state grows across rounds or tracing distorts what it measures
DRIFT_WARN = 0.10
OVERHEAD_WARN = 0.5


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_ms_per_op", "ms/op", "lower"))
        out.append((f"{layer}.calls_per_op", "count/op", "lower"))
    out.extend(COUNTS)
    for kinds in KINDS.values():
        out.extend((f"kind.{kind}.ms_norm_p25", "ms", "lower") for kind in kinds)
    out.extend(RUN_HEALTH)
    return out


def benchmark_json(command: List[str], paths: List[str],
                   run_seconds: int) -> Dict[str, object]:
    """The contract file's content, derived from the tables above."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }
