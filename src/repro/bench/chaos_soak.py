"""Chaos soak harness: many seeded fault schedules, one invariant bar.

Each *trial* builds a fresh fabric, derives a :class:`~repro.chaos.
ChaosSchedule` from one integer seed, runs a full connector workload
(S2V save in overwrite/append × speculation on/off, or a V2S scan)
under that schedule, and audits the database with the
:class:`~repro.chaos.InvariantChecker`.  A trial passes when every
invariant holds — whether the workload succeeded or failed cleanly.

Reproducibility is the contract: a failing trial is replayed from its
printed seed alone::

    PYTHONPATH=src python -m repro.bench.chaos_soak --replay-seed 41 \\
        --workload s2v --mode append --speculation

Run the full soak (the CI chaos job does this with ``--seeds 25``)::

    PYTHONPATH=src python -m repro.bench.chaos_soak --seeds 50
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional, Sequence

from repro import telemetry
from repro.bench.fabric import Fabric
from repro.chaos import (
    ALL_FAMILIES,
    ChaosSchedule,
    InvariantChecker,
    InvariantReport,
)
from repro.connector.costmodel import VerticaCostModel
from repro.connector.s2v import FINAL_STATUS_TABLE, S2VWriter
from repro.spark.row import StructField, StructType
from repro.vertica.errors import VerticaError

#: small-but-nonzero latencies: enough clock movement for rich fault
#: interleavings (crashes mid-COPY, storms overlapping phase 5) while a
#: 100-trial soak stays in seconds of wall time
SOAK_COST_MODEL = VerticaCostModel(
    connect_latency=0.02,
    query_latency=0.004,
    ddl_latency=0.01,
    query_plan_cpu=0.002,
    scan_cpu_per_row=2e-6,
    agg_cpu_per_row=2e-6,
    output_cpu_per_row=4e-6,
    load_cpu_per_row=6e-6,
    encode_cpu_per_row=3e-6,
    per_connection_rate_cap=3e4,
    copy_rate_cap=2e4,
)

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


class TrialResult:
    """One trial's outcome: config, schedule, workload result, audit."""

    def __init__(self, workload: str, seed: int, mode: str, speculation: bool,
                 raised: Optional[BaseException], report: InvariantReport,
                 injections: int, cleanup_failures: int = 0):
        self.workload = workload
        self.seed = seed
        self.mode = mode
        self.speculation = speculation
        self.raised = raised
        self.report = report
        self.injections = injections
        #: teardown errors _safe_cleanup swallowed during this trial
        self.cleanup_failures = cleanup_failures

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def succeeded(self) -> bool:
        """The workload itself completed (as opposed to failing cleanly)."""
        return self.raised is None

    def replay_command(self) -> str:
        spec = " --speculation" if self.speculation else ""
        mode = (f" --mode {self.mode}"
                if self.workload in ("s2v", "staged-s2v") else "")
        return (
            f"python -m repro.bench.chaos_soak --replay-seed {self.seed} "
            f"--workload {self.workload}{mode}{spec}"
        )

    def describe(self) -> str:
        outcome = "succeeded" if self.succeeded else f"failed ({self.raised!r})"
        verdict = "OK" if self.ok else "INVARIANT VIOLATION"
        head = (
            f"[{verdict}] {self.workload} seed={self.seed} mode={self.mode} "
            f"speculation={self.speculation} injections={self.injections} "
            f"workload {outcome}"
        )
        if self.cleanup_failures:
            head += f" cleanup_failures={self.cleanup_failures}"
        if self.ok:
            return head
        return head + "\n" + self.report.describe() + \
            f"\nreplay: {self.replay_command()}"


def _fabric(speculation: bool, wlm: bool = False,
            session_pool_size: int = 0, with_hdfs: bool = False) -> Fabric:
    return Fabric(
        num_vertica=3,
        num_spark=4,
        cost_model=SOAK_COST_MODEL,
        speculation=speculation,
        telemetry=True,
        failover_connect=True,
        wlm=wlm,
        session_pool_size=session_pool_size,
        with_hdfs=with_hdfs,
        hdfs_nodes=3,
    )


def _cleanup_failures() -> int:
    """How many teardown errors S2V swallowed during the current fabric."""
    return int(telemetry.counter("s2v.cleanup_failures").value)


def _drain(fabric: Fabric, report: InvariantReport) -> None:
    """Run the clock to exhaustion (zombies, heals, restarts)."""
    try:
        fabric.env.run()
        report.passed("clean-drain")
    except BaseException as exc:  # noqa: BLE001 - audited, not swallowed
        report.violated("clean-drain", f"draining the run raised {exc!r}")


def run_s2v_trial(seed: int, mode: str = "overwrite",
                  speculation: bool = False, verbose: bool = False) -> TrialResult:
    """One seeded S2V save under chaos, audited."""
    fabric = _fabric(speculation)
    checker = InvariantChecker(fabric.vertica)
    prior: List = []
    if mode == "append":
        prior = list(PRIOR_ROWS)
        session = fabric.vertica.db.connect()
        session.execute(f"CREATE TABLE {TARGET} (id INTEGER, v FLOAT)")
        values = ", ".join(f"({i}, {v})" for i, v in prior)
        session.execute(f"INSERT INTO {TARGET} VALUES {values}")
        session.close()
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        tables=(FINAL_STATUS_TABLE, TARGET.upper()),
        horizon=HORIZON,
        events=4,
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    df = fabric.spark.create_dataframe(ROWS, SCHEMA, num_partitions=NUM_TASKS)
    writer = S2VWriter(
        fabric.spark, mode,
        {"db": fabric.vertica, "table": TARGET, "numpartitions": NUM_TASKS,
         "scale_factor": SCALE},
        df,
    )
    raised: Optional[BaseException] = None
    try:
        writer.save()
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"s2v seed={seed}")
    _drain(fabric, report)
    report.merge(checker.check_s2v_save(
        writer.job_name, TARGET, ROWS,
        mode=mode, prior_rows=prior, raised=raised,
    ))
    report.merge(checker.check_cleanup_failures())
    if verbose:
        for record in controller.injections:
            print(record)
        print(report.describe())
    return TrialResult(
        "s2v", seed, mode, speculation, raised, report,
        len(controller.injections), cleanup_failures=_cleanup_failures(),
    )


def run_v2s_trial(seed: int, speculation: bool = False,
                  verbose: bool = False) -> TrialResult:
    """One seeded V2S scan under chaos, audited against its pinned epoch."""
    from repro.connector.v2s import VerticaRelation

    fabric = _fabric(speculation)
    session = fabric.vertica.db.connect()
    session.execute(
        f"CREATE TABLE {SOURCE} (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)"
    )
    values = ", ".join(f"({i}, {v})" for i, v in ROWS)
    session.execute(f"INSERT INTO {SOURCE} VALUES {values}")
    session.close()
    checker = InvariantChecker(fabric.vertica)
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        horizon=HORIZON,
        events=4,
        families=("executor_crash", "link_degrade", "vertica_restart",
                  "connection_sever", "task_kill"),
        sever_keywords=("AT",),
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    relation = VerticaRelation(fabric.spark, {
        "db": fabric.vertica, "table": SOURCE, "numpartitions": NUM_TASKS,
        "scale_factor": SCALE,
    })
    rdd = relation.build_scan()
    raised: Optional[BaseException] = None
    rows: List = []
    try:
        for partition in fabric.spark.run_job(rdd, name=f"chaos_v2s_{seed}"):
            rows.extend(partition)
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"v2s seed={seed}")
    _drain(fabric, report)
    if raised is None:
        report.merge(checker.check_v2s_scan(SOURCE, rdd.epoch, rows))
    else:
        report.merge(checker.check_no_leaks())
    if verbose:
        for record in controller.injections:
            print(record)
        print(report.describe())
    return TrialResult(
        "v2s", seed, "-", speculation, raised, report,
        len(controller.injections),
    )


def run_staged_s2v_trial(seed: int, mode: str = "overwrite",
                         speculation: bool = False,
                         verbose: bool = False) -> TrialResult:
    """One seeded *staging-transport* S2V save under chaos, audited.

    Tasks write attempt-named columnar files to the staging FS before
    claiming their status rows, the winner writes the ``_MANIFEST``, and
    the driver bulk-loads the manifested files — so the chaos probes at
    ``s2v:staged_before_file_write`` / ``after_file_write`` and
    ``staged_before_manifest`` / ``after_manifest`` exercise crashes
    mid-write and severs on either side of the commit record.  Beyond the
    usual exactly-once audit, the staging FS itself must be empty after
    the run: loser attempts, partial files and manifests are all swept.
    """
    fabric = _fabric(speculation, with_hdfs=True)
    checker = InvariantChecker(fabric.vertica)
    prior: List = []
    if mode == "append":
        prior = list(PRIOR_ROWS)
        session = fabric.vertica.db.connect()
        session.execute(f"CREATE TABLE {TARGET} (id INTEGER, v FLOAT)")
        values = ", ".join(f"({i}, {v})" for i, v in prior)
        session.execute(f"INSERT INTO {TARGET} VALUES {values}")
        session.close()
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        tables=(FINAL_STATUS_TABLE, TARGET.upper()),
        horizon=HORIZON,
        events=4,
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    df = fabric.spark.create_dataframe(ROWS, SCHEMA, num_partitions=NUM_TASKS)
    writer = S2VWriter(
        fabric.spark, mode,
        {"db": fabric.vertica, "table": TARGET, "numpartitions": NUM_TASKS,
         "scale_factor": SCALE, "transport": "staging",
         "staging_fs": fabric.hdfs, "staging_root": "/staging"},
        df,
    )
    raised: Optional[BaseException] = None
    try:
        writer.save()
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"staged-s2v seed={seed}")
    _drain(fabric, report)
    report.merge(checker.check_s2v_save(
        writer.job_name, TARGET, ROWS,
        mode=mode, prior_rows=prior, raised=raised,
    ))
    report.merge(checker.check_no_orphaned_staging(fabric.hdfs))
    report.merge(checker.check_cleanup_failures())
    if verbose:
        for record in controller.injections:
            print(record)
        print(report.describe())
    return TrialResult(
        "staged-s2v", seed, mode, speculation, raised, report,
        len(controller.injections), cleanup_failures=_cleanup_failures(),
    )


def run_staged_v2s_trial(seed: int, speculation: bool = False,
                         verbose: bool = False) -> TrialResult:
    """One seeded staging-transport V2S scan under chaos, audited.

    The relation exports segment-local columnar files to the staging FS
    at a pinned epoch, then scan tasks read them block-locally.  Whatever
    the chaos does, a successful scan must equal the ``AT EPOCH``
    snapshot, and after ``cleanup_staging()`` the staging FS must hold
    nothing — including when the export itself died part-way.
    """
    from repro.connector.v2s import VerticaRelation

    fabric = _fabric(speculation, with_hdfs=True)
    session = fabric.vertica.db.connect()
    session.execute(
        f"CREATE TABLE {SOURCE} (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)"
    )
    values = ", ".join(f"({i}, {v})" for i, v in ROWS)
    session.execute(f"INSERT INTO {SOURCE} VALUES {values}")
    session.close()
    checker = InvariantChecker(fabric.vertica)
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        horizon=HORIZON,
        events=4,
        families=("executor_crash", "link_degrade", "vertica_restart",
                  "connection_sever", "task_kill"),
        sever_keywords=("AT",),
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    relation = VerticaRelation(fabric.spark, {
        "db": fabric.vertica, "table": SOURCE, "numpartitions": NUM_TASKS,
        "scale_factor": SCALE, "transport": "staging",
        "staging_fs": fabric.hdfs, "staging_root": "/staging",
    })
    raised: Optional[BaseException] = None
    rows: List = []
    epoch: Optional[int] = None
    try:
        rdd = relation.build_scan()
        epoch = rdd.epoch
        for partition in fabric.spark.run_job(
                rdd, name=f"chaos_staged_v2s_{seed}"):
            rows.extend(partition)
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"staged-v2s seed={seed}")
    _drain(fabric, report)
    relation.cleanup_staging()
    if raised is None and epoch is not None:
        report.merge(checker.check_v2s_scan(SOURCE, epoch, rows))
    else:
        report.merge(checker.check_no_leaks())
    report.merge(checker.check_no_orphaned_staging(fabric.hdfs))
    if verbose:
        for record in controller.injections:
            print(record)
        print(report.describe())
    return TrialResult(
        "staged-v2s", seed, "-", speculation, raised, report,
        len(controller.injections),
    )


#: the aggregates the agg-scan trial pushes down (id is NULL-free, so the
#: expected values are computable exactly from ROWS)
AGG_SPECS = (("*", "count"), ("id", "sum"), ("id", "min"), ("id", "max"),
             ("id", "avg"))


def _expected_aggregates() -> List[Tuple]:
    groups: dict = {}
    for i, v in ROWS:
        groups.setdefault(v, []).append(i)
    return [
        (v, len(ids), sum(ids), min(ids), max(ids), sum(ids) / len(ids))
        for v, ids in groups.items()
    ]


def run_agg_trial(seed: int, speculation: bool = False,
                  verbose: bool = False) -> TrialResult:
    """One seeded pushed-down aggregate scan under chaos, audited.

    The scan compiles ``group_by("v").agg(...)`` into per-hash-range
    partial GROUP BY queries at one pinned epoch; whatever the chaos
    does to tasks and connections, a successful job must produce exactly
    the aggregates of the static source rows.
    """
    fabric = _fabric(speculation)
    session = fabric.vertica.db.connect()
    session.execute(
        f"CREATE TABLE {SOURCE} (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)"
    )
    values = ", ".join(f"({i}, {v})" for i, v in ROWS)
    session.execute(f"INSERT INTO {SOURCE} VALUES {values}")
    session.close()
    checker = InvariantChecker(fabric.vertica)
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        horizon=HORIZON,
        events=4,
        families=("executor_crash", "link_degrade", "vertica_restart",
                  "connection_sever", "task_kill"),
        sever_keywords=("AT",),
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    df = fabric.spark.read.format("vertica").options(
        db=fabric.vertica, table=SOURCE, numpartitions=NUM_TASKS,
        scale_factor=SCALE,
    ).load()
    raised: Optional[BaseException] = None
    rows: List = []
    try:
        rows = df.group_by("v").agg(*AGG_SPECS).collect()
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"agg seed={seed}")
    _drain(fabric, report)
    if raised is None:
        expected = sorted(map(repr, _expected_aggregates()))
        actual = sorted(map(repr, rows))
        if actual == expected:
            report.passed("agg-exactly-once")
        else:
            report.violated(
                "agg-exactly-once",
                f"pushed aggregation produced {len(rows)} group rows that "
                f"do not match the {len(expected)} expected groups",
            )
    report.merge(checker.check_no_leaks())
    if verbose:
        for record in controller.injections:
            print(record)
        print(report.describe())
    return TrialResult(
        "agg", seed, "-", speculation, raised, report,
        len(controller.injections),
    )


#: the WLM trial's deliberately starved ingest pool
INGEST_POOL = "SOAK_INGEST"


def run_wlm_trial(seed: int, speculation: bool = False,
                  verbose: bool = False) -> TrialResult:
    """One seeded S2V save through starved WLM pools, under pool storms.

    The save is admitted through a two-slot ingest pool (cascading to an
    equally tight GENERAL) while seeded ``pool_storm`` noisy neighbours
    claim the same slots, alongside the regular fault families.  Whether
    the save lands or times out queueing, exactly-once must hold and no
    admission slot, memory grant or pooled session may leak.
    """
    from repro.wlm import GENERAL, ResourcePool

    fabric = _fabric(speculation, wlm=True, session_pool_size=2)
    db = fabric.vertica.db
    db.create_resource_pool(
        ResourcePool(GENERAL, memory_mb=2048, planned_concurrency=2,
                     max_concurrency=2, queue_timeout=0.8),
        or_replace=True,
    )
    db.create_resource_pool(
        ResourcePool(INGEST_POOL, memory_mb=2048, planned_concurrency=2,
                     max_concurrency=2, queue_timeout=0.6, cascade=GENERAL)
    )
    checker = InvariantChecker(fabric.vertica)
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        tables=(FINAL_STATUS_TABLE, TARGET.upper()),
        horizon=HORIZON,
        events=5,
        families=ALL_FAMILIES,
        pools=(INGEST_POOL, GENERAL),
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    df = fabric.spark.create_dataframe(ROWS, SCHEMA, num_partitions=NUM_TASKS)
    writer = S2VWriter(
        fabric.spark, "overwrite",
        {"db": fabric.vertica, "table": TARGET, "numpartitions": NUM_TASKS,
         "scale_factor": SCALE, "resource_pool": INGEST_POOL},
        df,
    )
    raised: Optional[BaseException] = None
    try:
        writer.save()
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"wlm seed={seed}")
    _drain(fabric, report)
    if fabric.vertica.session_pool is not None:
        fabric.vertica.session_pool.close_all()
    report.merge(checker.check_s2v_save(
        writer.job_name, TARGET, ROWS, mode="overwrite", raised=raised,
    ))
    report.merge(checker.check_cleanup_failures())
    if verbose:
        for record in controller.injections:
            print(record)
        print(report.describe())
    return TrialResult(
        "wlm", seed, "overwrite", speculation, raised, report,
        len(controller.injections), cleanup_failures=_cleanup_failures(),
    )


#: the profile trial's query: a grouped aggregation whose exact answer is
#: computable from the static ROWS (id is NULL-free, v has 31 groups)
PROFILE_SELECT = (
    f"SELECT v, COUNT(*), SUM(id) FROM {SOURCE} GROUP BY v ORDER BY v"
)


def _expected_profile_groups() -> List[tuple]:
    groups: dict = {}
    for i, v in ROWS:
        groups.setdefault(v, []).append(i)
    return [
        (v, len(ids), sum(ids)) for v, ids in sorted(groups.items())
    ]


def run_profile_trial(seed: int, speculation: bool = False,
                      verbose: bool = False) -> TrialResult:
    """One seeded EXPLAIN + PROFILE of a grouped query under chaos.

    The statements run over a data-plane connection (client node set, so
    statement severs apply) while restarts and link faults fire.  When
    the profiled query completes it must return exactly the aggregates
    of the static source rows, its per-operator stats must reconcile
    with the statement's CostReport, and — success or clean failure —
    no session or lock may leak.
    """
    fabric = _fabric(speculation)
    session = fabric.vertica.db.connect()
    session.execute(
        f"CREATE TABLE {SOURCE} (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)"
    )
    values = ", ".join(f"({i}, {v})" for i, v in ROWS)
    session.execute(f"INSERT INTO {SOURCE} VALUES {values}")
    session.close()
    checker = InvariantChecker(fabric.vertica)
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        horizon=HORIZON,
        events=4,
        families=("link_degrade", "vertica_restart", "connection_sever"),
        sever_keywords=("PROFILE", "EXPLAIN"),
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    outcome: dict = {}

    def workload():
        with fabric.vertica.connect(
            client_node=fabric.spark.workers[0]
        ) as connection:
            plan = yield from connection.execute(
                "EXPLAIN " + PROFILE_SELECT, weight=SCALE
            )
            outcome["plan"] = [row[0] for row in plan.rows]
            outcome["profile"] = yield from connection.execute(
                "PROFILE " + PROFILE_SELECT, weight=SCALE
            )

    raised: Optional[BaseException] = None
    try:
        fabric.vertica.run(workload(), name=f"chaos_profile_{seed}")
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"profile seed={seed}")
    _drain(fabric, report)
    if raised is None:
        profiled = outcome["profile"]
        expected = _expected_profile_groups()
        actual = list(profiled.query_result.rows)
        if actual == expected:
            report.passed("profile-exact-answer")
        else:
            report.violated(
                "profile-exact-answer",
                f"profiled query produced {len(actual)} group rows that do "
                f"not match the {len(expected)} expected groups",
            )
        stats = {
            kind: (rows_in, rows_out)
            for kind, rows_in, rows_out in profiled.profile.operator_rows()
        }
        if (stats.get("scan", (0, 0))[1] == profiled.cost.rows_scanned
                == len(ROWS)
                and stats.get("aggregate", (0, 0))[1] == len(expected)):
            report.passed("profile-cost-reconciles")
        else:
            report.violated(
                "profile-cost-reconciles",
                f"operator stats {stats} disagree with cost "
                f"rows_scanned={profiled.cost.rows_scanned}",
            )
        plan = outcome.get("plan", [])
        if any("SCAN" in line for line in plan) and \
                any("GROUP BY" in line.upper() for line in plan):
            report.passed("explain-renders")
        else:
            report.violated(
                "explain-renders",
                f"EXPLAIN output is missing its scan/aggregate nodes: {plan}",
            )
    report.merge(checker.check_no_leaks())
    if verbose:
        for record in controller.injections:
            print(record)
        print(report.describe())
    return TrialResult(
        "profile", seed, "-", speculation, raised, report,
        len(controller.injections),
    )


#: the cache-coherence trial's serving table and mix
CACHE_SOURCE = "chaos_cache_src"
CACHE_GROUPS = 8
CACHE_READERS = 3
CACHE_READS = 12
CACHE_WRITES = 12


def run_cache_trial(seed: int, speculation: bool = False,
                    verbose: bool = False) -> TrialResult:
    """One seeded result-cache coherence trial under chaos, audited.

    Readers hammer point queries over a result-cached table while a
    writer advances the epoch with INSERTs and faults sever connections
    and restart nodes.  Every answer a reader accepted — hit or miss —
    is recorded with its pinned snapshot epoch, and the audit replays
    each one ``AT EPOCH`` with the cache forced off: a single divergent
    row is a stale read, the violation the (digest, epoch, catalog
    version) key exists to prevent.
    """
    fabric = _fabric(speculation)
    db = fabric.vertica.db
    session = db.connect()
    session.execute(
        f"CREATE TABLE {CACHE_SOURCE} (id INTEGER, grp INTEGER, v FLOAT) "
        f"SEGMENTED BY HASH(id)"
    )
    values = ", ".join(
        f"({i}, {i % CACHE_GROUPS}, {float((i * 7) % 31)})"
        for i in range(200)
    )
    session.execute(f"INSERT INTO {CACHE_SOURCE} VALUES {values}")
    session.close()
    db.result_cache_default = True
    checker = InvariantChecker(fabric.vertica)
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        horizon=HORIZON,
        events=4,
        families=("link_degrade", "vertica_restart", "connection_sever"),
        sever_keywords=("SELECT", "INSERT"),
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    observations: List[tuple] = []
    hits = [0]

    def reader(reader_id: int):
        rng = random.Random(seed * 7919 + reader_id)
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
            observations.append(
                (sql, result.snapshot_epoch, list(result.rows))
            )
            if getattr(result.cost, "cache_hit", False):
                hits[0] += 1

    def writer():
        rng = random.Random(seed * 104729 + 1)
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
    report = InvariantReport(f"cache seed={seed}")
    _drain(fabric, report)
    if observations:
        report.passed("progress")
    else:
        report.violated("progress", "no reader recorded a single answer")
    report.merge(checker.check_no_stale_reads(observations))
    report.merge(checker.check_no_leaks())
    if verbose:
        for record in controller.injections:
            print(record)
        print(f"observations={len(observations)} cache_hits={hits[0]}")
        print(report.describe())
    return TrialResult(
        "cache", seed, "-", speculation, None, report,
        len(controller.injections),
    )


#: the adaptive-join trial's star schema: fact stats are deliberately
#: stale (ANALYZEd at ADAPTIVE_ANALYZED rows, then grown 15x), so the
#: reordered plan mis-builds and must replan mid-query
ADAPTIVE_FACT = "chaos_adaptive_fact"
ADAPTIVE_DIM_A = "chaos_adaptive_da"
ADAPTIVE_DIM_B = "chaos_adaptive_db"
ADAPTIVE_FACT_ROWS = 360
ADAPTIVE_ANALYZED = 24
#: sized above the stale intermediate estimate (~15 rows) but below its
#: observed size (~225 rows): the planner builds the second join on the
#: intermediate, which balloons, forcing a swap-build replan
ADAPTIVE_A_KEYS = 60
ADAPTIVE_B_KEYS = 8
ADAPTIVE_B_CUTOFF = 10  # b_val < 10 keeps b_id 0..4 (5 of 8 keys)

ADAPTIVE_SELECT = (
    f"SELECT a_val, COUNT(*), SUM(fv) FROM {ADAPTIVE_FACT} "
    f"JOIN {ADAPTIVE_DIM_A} ON fk1 = a_id "
    f"JOIN {ADAPTIVE_DIM_B} ON fk2 = b_id "
    f"WHERE b_val < {ADAPTIVE_B_CUTOFF} GROUP BY a_val ORDER BY a_val"
)


def _expected_adaptive_groups() -> List[tuple]:
    groups: dict = {}
    for i in range(ADAPTIVE_FACT_ROWS):
        if (i % ADAPTIVE_B_KEYS) * 2 >= ADAPTIVE_B_CUTOFF:
            continue
        groups.setdefault((i % ADAPTIVE_A_KEYS) * 2, []).append(float(i))
    return [(a_val, len(vals), sum(vals))
            for a_val, vals in sorted(groups.items())]


def run_adaptive_join_trial(seed: int, speculation: bool = False,
                            verbose: bool = False) -> TrialResult:
    """One seeded adaptive multi-way join under chaos, audited exactly.

    A 3-way star join runs while restarts and link faults fire.  The
    fact table's statistics are deliberately stale (ANALYZEd at 1/15th
    of its final size), so the reordered plan builds on a side that
    balloons at runtime and the join operators must replan mid-query.
    If the query completes it must return exactly the aggregates of the
    static rows — reordering, build-side swaps and the feedback loop may
    never change an answer — EXPLAIN must show the reordered join order,
    PROFILE must record at least one replan, and no session or lock may
    leak either way.
    """
    fabric = _fabric(speculation)
    session = fabric.vertica.db.connect()
    session.execute(
        f"CREATE TABLE {ADAPTIVE_FACT} (fk1 INTEGER, fk2 INTEGER, fv FLOAT) "
        f"SEGMENTED BY HASH(fk1)"
    )
    session.execute(
        f"CREATE TABLE {ADAPTIVE_DIM_A} (a_id INTEGER, a_val INTEGER) "
        f"SEGMENTED BY HASH(a_id)"
    )
    session.execute(
        f"CREATE TABLE {ADAPTIVE_DIM_B} (b_id INTEGER, b_val INTEGER) "
        f"UNSEGMENTED ALL NODES"
    )
    session.execute(f"INSERT INTO {ADAPTIVE_DIM_A} VALUES " + ", ".join(
        f"({i}, {i * 2})" for i in range(ADAPTIVE_A_KEYS)
    ))
    session.execute(f"INSERT INTO {ADAPTIVE_DIM_B} VALUES " + ", ".join(
        f"({i}, {i * 2})" for i in range(ADAPTIVE_B_KEYS)
    ))

    def fact_values(start, stop):
        return ", ".join(
            f"({i % ADAPTIVE_A_KEYS}, {i % ADAPTIVE_B_KEYS}, {float(i)})"
            for i in range(start, stop)
        )

    session.execute(f"INSERT INTO {ADAPTIVE_FACT} VALUES "
                    + fact_values(0, ADAPTIVE_ANALYZED))
    for table in (ADAPTIVE_FACT, ADAPTIVE_DIM_A, ADAPTIVE_DIM_B):
        session.execute(f"ANALYZE {table}")
    session.execute(f"INSERT INTO {ADAPTIVE_FACT} VALUES "
                    + fact_values(ADAPTIVE_ANALYZED, ADAPTIVE_FACT_ROWS))
    session.close()
    checker = InvariantChecker(fabric.vertica)
    schedule = ChaosSchedule.random(
        seed,
        spark_nodes=[worker.name for worker in fabric.spark.workers],
        vertica_nodes=fabric.vertica.node_names,
        link_names=sorted(fabric.all_links()),
        horizon=HORIZON,
        events=4,
        families=("link_degrade", "vertica_restart", "connection_sever"),
        sever_keywords=("PROFILE", "SELECT"),
    )
    controller = fabric.attach_chaos(schedule)
    if verbose:
        print("\n".join(schedule.describe()))
    outcome: dict = {}

    def workload():
        with fabric.vertica.connect(
            client_node=fabric.spark.workers[0]
        ) as connection:
            plan = yield from connection.execute(
                "EXPLAIN " + ADAPTIVE_SELECT, weight=SCALE
            )
            outcome["plan"] = [row[0] for row in plan.rows]
            outcome["profile"] = yield from connection.execute(
                "PROFILE " + ADAPTIVE_SELECT, weight=SCALE
            )

    raised: Optional[BaseException] = None
    try:
        fabric.vertica.run(workload(), name=f"chaos_adaptive_{seed}")
    except Exception as exc:  # noqa: BLE001 - the audit decides if this is fine
        raised = exc
    report = InvariantReport(f"adaptive seed={seed}")
    _drain(fabric, report)
    if raised is None:
        profiled = outcome["profile"]
        expected = _expected_adaptive_groups()
        actual = list(profiled.query_result.rows)
        if actual == expected:
            report.passed("adaptive-exact-answer")
        else:
            report.violated(
                "adaptive-exact-answer",
                f"adaptive join produced {len(actual)} group rows that do "
                f"not match the {len(expected)} expected groups",
            )
        if any("JOIN ORDER:" in line for line in outcome.get("plan", [])):
            report.passed("explain-join-order")
        else:
            report.violated(
                "explain-join-order",
                "EXPLAIN did not render the reordered join order",
            )
        if profiled.profile.replans:
            report.passed("replan-recorded")
        else:
            report.violated(
                "replan-recorded",
                "stale fact statistics produced no recorded replan",
            )
    report.merge(checker.check_no_leaks())
    if verbose:
        for record in controller.injections:
            print(record)
        print(report.describe())
    return TrialResult(
        "adaptive", seed, "-", speculation, raised, report,
        len(controller.injections),
    )


#: the S2V configuration rotation: both commit paths × speculation
S2V_CONFIGS = (
    ("overwrite", False),
    ("overwrite", True),
    ("append", False),
    ("append", True),
)


def run_soak(num_seeds: int = 25, base_seed: int = 0,
             verbose: bool = False) -> List[TrialResult]:
    """Run ``num_seeds`` S2V trials (rotating configs) plus V2S scan,
    pushed-aggregate, WLM-admission, EXPLAIN/PROFILE, staging-transport
    (S2V and V2S over the distributed FS), result-cache-coherence and
    adaptive-join trials."""
    trials: List[TrialResult] = []
    for index in range(num_seeds):
        seed = base_seed + index
        mode, speculation = S2V_CONFIGS[index % len(S2V_CONFIGS)]
        trials.append(run_s2v_trial(seed, mode, speculation))
        if verbose:
            print(trials[-1].describe())
        trials.append(run_v2s_trial(seed + 7919, speculation=speculation))
        if verbose:
            print(trials[-1].describe())
        trials.append(run_agg_trial(seed + 104729, speculation=speculation))
        if verbose:
            print(trials[-1].describe())
        trials.append(run_wlm_trial(seed + 1299709, speculation=speculation))
        if verbose:
            print(trials[-1].describe())
        trials.append(
            run_profile_trial(seed + 15485863, speculation=speculation)
        )
        if verbose:
            print(trials[-1].describe())
        trials.append(
            run_staged_s2v_trial(seed + 32452843, mode, speculation)
        )
        if verbose:
            print(trials[-1].describe())
        trials.append(
            run_staged_v2s_trial(seed + 49979687, speculation=speculation)
        )
        if verbose:
            print(trials[-1].describe())
        trials.append(
            run_cache_trial(seed + 86028121, speculation=speculation)
        )
        if verbose:
            print(trials[-1].describe())
        trials.append(
            run_adaptive_join_trial(seed + 179424673,
                                    speculation=speculation)
        )
        if verbose:
            print(trials[-1].describe())
    return trials


def summarize(trials: Sequence[TrialResult]) -> str:
    failures = [t for t in trials if not t.ok]
    succeeded = sum(1 for t in trials if t.succeeded)
    injections = sum(t.injections for t in trials)
    cleanup_failures = sum(t.cleanup_failures for t in trials)
    lines = [
        f"chaos soak: {len(trials)} trials, {len(failures)} invariant "
        f"violations, {succeeded} workloads succeeded, "
        f"{len(trials) - succeeded} failed cleanly, "
        f"{injections} faults injected, "
        f"{cleanup_failures} cleanup errors swallowed",
    ]
    for trial in sorted(
            (t for t in trials if t.cleanup_failures),
            key=lambda t: -t.cleanup_failures):
        lines.append(
            f"  cleanup_failures={trial.cleanup_failures}: "
            f"{trial.workload} seed={trial.seed} "
            f"(replay: {trial.replay_command()})"
        )
    for trial in failures:
        lines.append(trial.describe())
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of soak seeds (9 trials per seed)")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--replay-seed", type=int, default=None,
                        help="replay one trial with full fault/audit output")
    parser.add_argument("--workload",
                        choices=("s2v", "v2s", "agg", "wlm", "profile",
                                 "staged-s2v", "staged-v2s", "cache",
                                 "adaptive"),
                        default="s2v")
    parser.add_argument("--mode", choices=("overwrite", "append"),
                        default="overwrite")
    parser.add_argument("--speculation", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.replay_seed is not None:
        if args.workload == "s2v":
            trial = run_s2v_trial(args.replay_seed, args.mode,
                                  args.speculation, verbose=True)
        elif args.workload == "agg":
            trial = run_agg_trial(args.replay_seed, args.speculation,
                                  verbose=True)
        elif args.workload == "wlm":
            trial = run_wlm_trial(args.replay_seed, args.speculation,
                                  verbose=True)
        elif args.workload == "profile":
            trial = run_profile_trial(args.replay_seed, args.speculation,
                                      verbose=True)
        elif args.workload == "staged-s2v":
            trial = run_staged_s2v_trial(args.replay_seed, args.mode,
                                         args.speculation, verbose=True)
        elif args.workload == "staged-v2s":
            trial = run_staged_v2s_trial(args.replay_seed, args.speculation,
                                         verbose=True)
        elif args.workload == "cache":
            trial = run_cache_trial(args.replay_seed, args.speculation,
                                    verbose=True)
        elif args.workload == "adaptive":
            trial = run_adaptive_join_trial(args.replay_seed,
                                            args.speculation, verbose=True)
        else:
            trial = run_v2s_trial(args.replay_seed, args.speculation,
                                  verbose=True)
        print(trial.describe())
        return 0 if trial.ok else 1

    trials = run_soak(args.seeds, args.base_seed, verbose=args.verbose)
    print(summarize(trials))
    failures = [t for t in trials if not t.ok]
    if failures:
        return 1
    if not any(t.injections for t in trials):
        print("soak was vacuous: no faults were injected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
