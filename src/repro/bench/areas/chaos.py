"""Chaos soak: many seeded fault schedules, one invariant bar.

Each cell is one *trial*: it builds a fresh fabric, derives a
:class:`~repro.chaos.ChaosSchedule` from one integer seed, runs one
workload from the :data:`TRIALS` table (S2V saves, V2S scans, pushed
aggregates, WLM admission, EXPLAIN/PROFILE, the staging transport,
result-cache coherence, reordered star joins) under that schedule, and audits
the database with the :class:`~repro.chaos.InvariantChecker`.  Every
workload shares one skeleton (:func:`run_trial`); a trial passes when
every invariant holds — whether the workload succeeded or failed
cleanly.  A violated invariant raises :class:`GridCellError` carrying
the violations, the schedule and every injection, so the cell is
``FAILED`` and its artifact record says what happened.

The ``seed`` axis is the soak seed index: a trial's seed is the index
plus its workload's offset, and the S2V mode and speculation rotate with
the index.  A trial is a function of its seed, so a cell is replayed
from its parameters alone::

    AREAS["chaos"].run_cell({"seed": 16, "workload": "s2v"})

Nothing here reports sim seconds or is banded: the invariants are the
checks.  CI runs the area under two hash seeds and compares the cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.bench.area import BenchArea, Checks, GridCellError
from repro.bench.fabric import LIGHT_COST_MODEL, Fabric, insert_rows
from repro.chaos import (
    ALL_FAMILIES,
    ChaosSchedule,
    InvariantChecker,
    InvariantReport,
)
from repro.connector.s2v import FINAL_STATUS_TABLE, S2VWriter
from repro.connector.v2s import VerticaRelation
from repro.spark.row import StructField, StructType
from repro.vertica.errors import VerticaError
from repro.wlm import GENERAL, ResourcePool

SCHEMA = StructType([StructField("id", "long"), StructField("v", "double")])
ROWS = [(i, float((i * 7) % 31)) for i in range(240)]
PRIOR_ROWS = [(1000 + i, -1.0) for i in range(8)]
NUM_TASKS = 6
TARGET = "chaos_tgt"
SOURCE = "chaos_src"
#: virtual scale factor: stretches transfers so task phases span seconds
#: and timed faults land *inside* COPY streams and phase-5 commits
SCALE = 60.0
#: timed chaos events draw fire times from (0.05, HORIZON) — sized to the
#: fault-free run length so faults overlap setup, tasks and finalisation
HORIZON = 4.0


# ------------------------------------------------------------------- trials
@dataclass(frozen=True)
class Trial:
    """What differs between workloads around :func:`run_trial`'s skeleton.

    ``prepare(run)`` loads tables before the schedule is attached;
    ``start(run)`` builds the workload under the attached schedule and
    returns the thunk whose exception (if any) is the trial's ``raised``;
    ``audit(run, checker, raised, report)`` merges the workload's
    invariants after the clock has drained.  ``run`` is a scratch
    namespace carrying ``fabric``, ``seed`` and ``mode``.
    """

    prepare: Callable
    start: Callable
    audit: Callable
    #: added to the soak seed (a prime), so one soak seed derives nine
    #: unrelated schedules
    seed_offset: int
    #: extra :class:`Fabric` arguments (wlm, session pool, hdfs)
    fabric: Dict[str, Any] = field(default_factory=dict)
    #: extra :meth:`ChaosSchedule.random` arguments
    schedule: Dict[str, Any] = field(default_factory=dict)
    #: the save mode the trial runs (``"-"``: not a save); ``None`` = the
    #: caller's, which rotates with the seed index
    mode: Optional[str] = "-"


def run_trial(workload: str, seed: int, mode: str = "overwrite",
              speculation: bool = False
              ) -> Tuple[Dict[str, Any], InvariantReport]:
    """One seeded ``workload`` trial under chaos, audited.

    Returns the cell's metrics — ``injections``, ``outcome``
    (``succeeded`` or the workload's exception ``repr``) and
    ``cleanup_failures`` (teardown errors S2V swallowed) — with the
    audit; raises :class:`GridCellError` if an invariant was violated.
    """
    trial = TRIALS[workload]
    fabric = Fabric(
        num_vertica=3, num_spark=4, cost_model=LIGHT_COST_MODEL,
        speculation=speculation, hdfs_nodes=3, **trial.fabric,
    )
    run = SimpleNamespace(fabric=fabric, seed=seed, mode=trial.mode or mode)
    trial.prepare(run)
    checker = InvariantChecker(fabric.vertica)
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        horizon=HORIZON,
        **{"events": 4, **trial.schedule},
    )
    controller = fabric.attach_chaos(schedule)
    workload_thunk = trial.start(run)
    raised: Optional[BaseException] = None
    try:
        workload_thunk()
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"{workload} seed={seed}")
    # Run the clock to exhaustion (zombies, heals, restarts).
    try:
        fabric.env.run()
        report.passed("clean-drain")
    except BaseException as exc:  # noqa: BLE001 - audited, not swallowed
        report.violated("clean-drain", f"draining the run raised {exc!r}")
    trial.audit(run, checker, raised, report)
    report.merge(checker.check_stored_hashes())
    metrics = {
        "injections": len(controller.injections),
        "outcome": "succeeded" if raised is None else repr(raised),
        # the fabric's own registry: 0 for a trial that runs no S2V save
        "cleanup_failures": int(
            telemetry.counter("s2v.cleanup_failures").value),
    }
    if not report.ok:
        raise GridCellError("\n".join([
            report.describe(),
            f"mode={run.mode} speculation={speculation} "
            + " ".join(f"{key}={value}" for key, value in metrics.items()),
            "schedule:", *schedule.describe(),
            "injections:", *map(repr, controller.injections),
        ]))
    return metrics, report


def _load_source(run) -> None:
    """The static scan source every read-side trial audits against."""
    run.fabric.create_table(
        f"{SOURCE} (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)", ROWS)


#: the read-side fault mix: nothing that targets S2V's commit statements
SCAN_CHAOS = dict(
    families=("executor_crash", "link_degrade", "vertica_restart",
              "connection_sever", "task_kill"),
    sever_keywords=("AT",),
)
#: faults for single-connection statement workloads (no Spark tasks)
STATEMENT_FAMILIES = ("link_degrade", "vertica_restart", "connection_sever")
#: the staging transport's extra S2V / V2S options
STAGING = dict(transport="staging", staging_root="/staging")


# -- s2v / staged-s2v / wlm: exactly-once saves -------------------------------
def _load_prior(run) -> None:
    run.prior = []
    if run.mode == "append":
        run.prior = list(PRIOR_ROWS)
        run.fabric.create_table(f"{TARGET} (id INTEGER, v FLOAT)", run.prior)


def _start_save(**options) -> Callable:
    def start(run):
        fabric = run.fabric
        extra = dict(options)
        if "transport" in extra:
            extra["staging_fs"] = fabric.hdfs
        df = fabric.spark.create_dataframe(ROWS, SCHEMA,
                                           num_partitions=NUM_TASKS)
        run.writer = S2VWriter(
            fabric.spark, run.mode,
            {"db": fabric.vertica, "table": TARGET,
             "numpartitions": NUM_TASKS, "scale_factor": SCALE, **extra},
            df,
        )
        return run.writer.save

    return start


def _audit_save(run, checker, raised, report) -> None:
    report.merge(checker.check_s2v_save(
        run.writer.job_name, TARGET, ROWS,
        mode=run.mode, prior_rows=getattr(run, "prior", []), raised=raised,
    ))
    if run.fabric.hdfs is not None:
        # loser attempts, partial files and manifests must all be swept
        report.merge(checker.check_no_orphaned_staging(run.fabric.hdfs))
    report.merge(checker.check_cleanup_failures())


#: the WLM trial's deliberately starved ingest pool
INGEST_POOL = "SOAK_INGEST"


def _starve_pools(run) -> None:
    """A two-slot ingest pool cascading to an equally tight GENERAL."""
    db = run.fabric.vertica.db
    db.create_resource_pool(
        ResourcePool(GENERAL, memory_mb=2048, planned_concurrency=2,
                     max_concurrency=2, queue_timeout=0.8),
        or_replace=True,
    )
    db.create_resource_pool(
        ResourcePool(INGEST_POOL, memory_mb=2048, planned_concurrency=2,
                     max_concurrency=2, queue_timeout=0.6, cascade=GENERAL)
    )


def _audit_wlm_save(run, checker, raised, report) -> None:
    # Park nothing across the audit: whether the save landed or timed out
    # queueing, no admission slot, grant or pooled session may leak.
    run.fabric.vertica.session_pool.close_all()
    _audit_save(run, checker, raised, report)


# -- v2s / staged-v2s: scans audited against their pinned epoch ----------------
def _start_scan(**options) -> Callable:
    def start(run):
        fabric = run.fabric
        extra = dict(options)
        staged = "transport" in extra
        if staged:
            extra["staging_fs"] = fabric.hdfs
        run.relation = VerticaRelation(fabric.spark, {
            "db": fabric.vertica, "table": SOURCE, "numpartitions": NUM_TASKS,
            "scale_factor": SCALE, **extra,
        })
        run.rows, run.epoch = [], None
        # A direct scan is planned up front; a staged scan's export is part
        # of the workload, because it can itself die under chaos.
        planned = None if staged else run.relation.build_scan()

        def scan():
            rdd = run.relation.build_scan() if staged else planned
            run.epoch = rdd.epoch
            name = f"chaos_{'staged_' if staged else ''}v2s_{run.seed}"
            for partition in fabric.spark.run_job(rdd, name=name):
                run.rows.extend(partition)

        return scan

    return start


def _audit_scan(run, checker, raised, report) -> None:
    if run.fabric.hdfs is not None:
        run.relation.cleanup_staging()
    if raised is None and run.epoch is not None:
        report.merge(checker.check_v2s_scan(SOURCE, run.epoch, run.rows))
    else:
        report.merge(checker.check_no_leaks())
    if run.fabric.hdfs is not None:
        # the staging FS must hold nothing, even if the export died part-way
        report.merge(checker.check_no_orphaned_staging(run.fabric.hdfs))


# -- agg: pushed-down partial aggregation --------------------------------------
#: the aggregates the agg-scan trial pushes down (id is NULL-free, so the
#: expected values are computable exactly from ROWS)
AGG_SPECS = (("*", "count"), ("id", "sum"), ("id", "min"), ("id", "max"),
             ("id", "avg"))


def _ids_by_v() -> Dict[float, List[int]]:
    groups: Dict[float, List[int]] = {}
    for i, v in ROWS:
        groups.setdefault(v, []).append(i)
    return groups


def _start_agg(run) -> Callable:
    df = run.fabric.spark.read.format("vertica").options(
        db=run.fabric.vertica, table=SOURCE, numpartitions=NUM_TASKS,
        scale_factor=SCALE,
    ).load()

    def collect():
        run.rows = df.group_by("v").agg(*AGG_SPECS).collect()

    return collect


def _audit_agg(run, checker, raised, report) -> None:
    if raised is None:
        expected = sorted(
            repr((v, len(ids), sum(ids), min(ids), max(ids),
                  sum(ids) / len(ids)))
            for v, ids in _ids_by_v().items()
        )
        _audit_answer(report, "agg-exactly-once", "pushed aggregation",
                      sorted(map(repr, run.rows)), expected)
    report.merge(checker.check_no_leaks())


# -- profile / star: EXPLAIN + PROFILE over a data-plane connection ------------
def _start_explain_profile(select: str, name: str) -> Callable:
    """EXPLAIN then PROFILE ``select`` from a client node, so statement
    severs apply while restarts and link faults fire."""
    def start(run):
        fabric = run.fabric

        def workload():
            with fabric.vertica.connect(
                client_node=fabric.spark.workers[0]
            ) as connection:
                plan = yield from connection.execute("EXPLAIN " + select)
                run.plan = [row[0] for row in plan.rows]
                run.profiled = yield from connection.execute(
                    "PROFILE " + select, weight=SCALE
                )

        return lambda: fabric.vertica.run(workload(),
                                          name=f"chaos_{name}_{run.seed}")

    return start


def _audit_answer(report, check: str, what: str, actual, expected) -> None:
    report.expect(
        check, actual == expected,
        f"{what} produced {len(actual)} group rows that do "
        f"not match the {len(expected)} expected groups",
    )


#: the profile trial's query: a grouped aggregation whose exact answer is
#: computable from the static ROWS (id is NULL-free, v has 31 groups)
PROFILE_SELECT = (
    f"SELECT v, COUNT(*), SUM(id) FROM {SOURCE} GROUP BY v ORDER BY v"
)


def _audit_profile(run, checker, raised, report) -> None:
    if raised is None:
        profiled = run.profiled
        expected = [(v, len(ids), sum(ids))
                    for v, ids in sorted(_ids_by_v().items())]
        _audit_answer(report, "profile-exact-answer", "profiled query",
                      list(profiled.query_result.rows), expected)
        stats = {
            kind: (rows_in, rows_out)
            for kind, rows_in, rows_out in profiled.profile.operator_rows()
        }
        report.expect(
            "profile-cost-reconciles",
            stats.get("scan", (0, 0))[1] == profiled.cost.rows_scanned
            == len(ROWS)
            and stats.get("aggregate", (0, 0))[1] == len(expected),
            f"operator stats {stats} disagree with cost "
            f"rows_scanned={profiled.cost.rows_scanned}",
        )
        report.expect(
            "explain-renders",
            any("SCAN" in line for line in run.plan)
            and any("GROUP BY" in line.upper() for line in run.plan),
            f"EXPLAIN output is missing its scan/aggregate nodes: {run.plan}",
        )
    report.merge(checker.check_no_leaks())


#: the star-join trial's schema: fact stats are deliberately stale
#: (ANALYZEd at STAR_ANALYZED rows, then grown 15x), so the join order is
#: chosen on estimates the rows then contradict.
STAR_FACT = "chaos_star_fact"
STAR_DIM_A = "chaos_star_da"
STAR_DIM_B = "chaos_star_db"
STAR_FACT_ROWS = 360
STAR_ANALYZED = 24
#: sized above the stale intermediate estimate (~15 rows) but below its
#: observed size (~225 rows): an estimate would build the second join on
#: the intermediate; the join builds on the dim, the smaller input it holds
STAR_A_KEYS = 60
STAR_B_KEYS = 8
STAR_B_CUTOFF = 10  # b_val < 10 keeps b_id 0..4 (5 of 8 keys)

STAR_SELECT = (
    f"SELECT a_val, COUNT(*), SUM(fv) FROM {STAR_FACT} "
    f"JOIN {STAR_DIM_A} ON fk1 = a_id "
    f"JOIN {STAR_DIM_B} ON fk2 = b_id "
    f"WHERE b_val < {STAR_B_CUTOFF} GROUP BY a_val ORDER BY a_val"
)


def _load_star(run) -> None:
    fabric = run.fabric
    fabric.create_table(
        f"{STAR_FACT} (fk1 INTEGER, fk2 INTEGER, fv FLOAT) "
        f"SEGMENTED BY HASH(fk1)"
    )
    fabric.create_table(
        f"{STAR_DIM_A} (a_id INTEGER, a_val INTEGER) SEGMENTED BY HASH(a_id)",
        [(i, i * 2) for i in range(STAR_A_KEYS)],
    )
    fabric.create_table(
        f"{STAR_DIM_B} (b_id INTEGER, b_val INTEGER) UNSEGMENTED ALL NODES",
        [(i, i * 2) for i in range(STAR_B_KEYS)],
    )

    fact = [(i % STAR_A_KEYS, i % STAR_B_KEYS, float(i))
            for i in range(STAR_FACT_ROWS)]
    with fabric.vertica.db.connect() as session:
        insert_rows(session, STAR_FACT, fact[:STAR_ANALYZED])
        for table in (STAR_FACT, STAR_DIM_A, STAR_DIM_B):
            session.execute(f"ANALYZE {table}")
        insert_rows(session, STAR_FACT, fact[STAR_ANALYZED:])


def _audit_star(run, checker, raised, report) -> None:
    # Reordering and the observed build side may never change an answer;
    # EXPLAIN must show the order.
    if raised is None:
        groups: Dict[int, List[float]] = {}
        for i in range(STAR_FACT_ROWS):
            if (i % STAR_B_KEYS) * 2 < STAR_B_CUTOFF:
                groups.setdefault((i % STAR_A_KEYS) * 2, []).append(float(i))
        expected = [(a_val, len(vals), sum(vals))
                    for a_val, vals in sorted(groups.items())]
        _audit_answer(report, "star-exact-answer", "star join",
                      list(run.profiled.query_result.rows), expected)
        report.expect("explain-join-order",
                      any("JOIN ORDER:" in line for line in run.plan),
                      "EXPLAIN did not render the reordered join order")
    report.merge(checker.check_no_leaks())


# -- cache: result-cache coherence under churn ---------------------------------
CACHE_SOURCE = "chaos_cache_src"
CACHE_GROUPS = 8
CACHE_READERS = 3
CACHE_READS = 12
CACHE_WRITES = 12


def _load_cache_source(run) -> None:
    run.fabric.create_table(
        f"{CACHE_SOURCE} (id INTEGER, grp INTEGER, v FLOAT) "
        f"SEGMENTED BY HASH(id)",
        [(i, i % CACHE_GROUPS, float((i * 7) % 31)) for i in range(200)],
    )
    run.fabric.vertica.db.result_cache_default = True


def _start_cache(run) -> Callable:
    """Readers hammer result-cached point queries while a writer advances
    the epoch; every accepted answer is recorded with its pinned epoch."""
    fabric = run.fabric
    run.observations = []

    def reader(reader_id: int):
        rng = random.Random(run.seed * 7919 + reader_id)
        node_names = fabric.vertica.node_names
        for __ in range(CACHE_READS):
            yield fabric.env.timeout(0.05 + 0.25 * rng.random())
            grp = rng.randrange(CACHE_GROUPS)
            sql = (f"SELECT COUNT(*), SUM(v) FROM {CACHE_SOURCE} "
                   f"WHERE grp = {grp}")
            try:
                with fabric.vertica.connect(
                    node_names[reader_id % len(node_names)]
                ) as conn:
                    result = yield from conn.execute(sql, weight=SCALE)
            except VerticaError:
                continue  # severed / node down: the read never answered
            run.observations.append(
                (sql, result.snapshot_epoch, list(result.rows))
            )

    def writer():
        rng = random.Random(run.seed * 104729 + 1)
        for index in range(CACHE_WRITES):
            yield fabric.env.timeout(0.1 + 0.2 * rng.random())
            try:
                with fabric.vertica.connect() as conn:
                    yield from conn.execute(
                        f"INSERT INTO {CACHE_SOURCE} VALUES "
                        f"({10_000 + index}, {rng.randrange(CACHE_GROUPS)}, "
                        f"{float(index)})"
                    )
            except VerticaError:
                continue  # a failed write is fine; staleness is not

    for reader_id in range(CACHE_READERS):
        fabric.env.process(reader(reader_id), name=f"cache_reader{reader_id}")
    fabric.env.process(writer(), name="cache_writer")
    return lambda: None  # the processes run when the trial drains the clock


def _audit_cache(run, checker, raised, report) -> None:
    report.expect("progress", bool(run.observations),
                  "no reader recorded a single answer")
    # Replay each answer AT EPOCH with the cache forced off: one divergent
    # row is a stale read, the violation the (digest, epoch, catalog
    # version) cache key exists to prevent.
    report.merge(checker.check_no_stale_reads(run.observations))
    report.merge(checker.check_no_leaks())


S2V_TABLES = dict(tables=(FINAL_STATUS_TABLE, TARGET.upper()))

#: every soak workload, in the order a soak seed runs them
TRIALS: Dict[str, Trial] = {
    # exactly-once S2V save (overwrite/append x speculation)
    "s2v": Trial(_load_prior, _start_save(), _audit_save, 0,
                 schedule=S2V_TABLES, mode=None),
    # V2S scan: a successful scan must equal its AT EPOCH snapshot
    "v2s": Trial(_load_source, _start_scan(), _audit_scan, 7919,
                 schedule=SCAN_CHAOS),
    # group_by().agg() pushed down as per-hash-range partial GROUP BYs
    "agg": Trial(_load_source, _start_agg, _audit_agg, 104729,
                 schedule=SCAN_CHAOS),
    # the save admitted through starved pools while pool_storm noisy
    # neighbours claim the same slots
    "wlm": Trial(_starve_pools, _start_save(resource_pool=INGEST_POOL),
                 _audit_wlm_save, 1299709,
                 fabric=dict(wlm=True, session_pool_size=2),
                 schedule=dict(S2V_TABLES, events=5, families=ALL_FAMILIES,
                               pools=(INGEST_POOL, GENERAL)),
                 mode="overwrite"),
    # EXPLAIN + PROFILE: exact answer, operator stats == CostReport
    "profile": Trial(_load_source,
                     _start_explain_profile(PROFILE_SELECT, "profile"),
                     _audit_profile, 15485863,
                     schedule=dict(families=STATEMENT_FAMILIES,
                                   sever_keywords=("PROFILE", "EXPLAIN"))),
    # staging transport: crashes mid-file-write, severs around the manifest
    "staged-s2v": Trial(_load_prior, _start_save(**STAGING), _audit_save,
                        32452843, fabric=dict(with_hdfs=True),
                        schedule=S2V_TABLES, mode=None),
    "staged-v2s": Trial(_load_source, _start_scan(**STAGING), _audit_scan,
                        49979687, fabric=dict(with_hdfs=True),
                        schedule=SCAN_CHAOS),
    "cache": Trial(_load_cache_source, _start_cache, _audit_cache, 86028121,
                   schedule=dict(families=STATEMENT_FAMILIES,
                                 sever_keywords=("SELECT", "INSERT"))),
    # 3-way star join over stale statistics: reordered, never mis-answered
    "star": Trial(_load_star, _start_explain_profile(STAR_SELECT, "star"),
                  _audit_star, 179424673,
                  schedule=dict(families=STATEMENT_FAMILIES,
                                sever_keywords=("PROFILE", "SELECT"))),
}

#: the S2V configuration rotation: both commit paths × speculation
S2V_CONFIGS = (
    ("overwrite", False),
    ("overwrite", True),
    ("append", False),
    ("append", True),
)


def run_cell(params, config):
    """The trial soak seed index ``params["seed"]`` runs for its workload;
    the S2V configuration rotates with the index."""
    index, workload = params["seed"], params["workload"]
    mode, speculation = S2V_CONFIGS[index % len(S2V_CONFIGS)]
    metrics, __ = run_trial(workload, index + TRIALS[workload].seed_offset,
                            mode, speculation)
    return metrics


def checks(cells) -> Checks:
    """A soak that injected nothing, or in which a workload never got to
    finish, says nothing about that workload."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for cell in cells:
        runs.setdefault(cell["params"]["workload"], []).append(cell["metrics"])
    return [
        ("faults were injected into every workload",
         all(any(m["injections"] for m in ms) for ms in runs.values())),
        ("every workload completed under at least one seed",
         all(any(m["outcome"] == "succeeded" for m in ms)
             for ms in runs.values())),
    ]


AREA = BenchArea(
    "chaos",
    "Chaos soak: every workload under seeded faults, one invariant bar",
    axes={"seed": range(25), "workload": TRIALS},
    runner=run_cell,
    checks=checks,
    notes=["a trial's seed is the seed index plus its workload's offset; "
           "S2V mode and speculation rotate with the index"],
)
