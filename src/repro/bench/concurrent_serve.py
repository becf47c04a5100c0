"""Multi-tenant concurrent serving drivers for the WLM and caching tiers.

:func:`run_serve`: N tenants share one fabric and concurrently run a
mixed workload — V2S scans, S2V saves and in-database model scoring (MD)
— while every statement passes through :mod:`repro.wlm` admission
control and a client-side session pool.  The run reports per-tenant
p50/p95 latency, throughput, queue time and rejections, then audits the
fabric with the :class:`~repro.chaos.InvariantChecker`: whatever the
admission queueing did, no slot, memory grant or session may leak.  With
``premium=True`` tenant 0 moves from the deliberately congested GENERAL
pool to a dedicated high-priority PREMIUM pool, and its p95 must drop.

:func:`run_zipf_serve`: a Zipf-skewed, read-mostly point-query workload
over the caching tiers (:mod:`repro.cache`).  Writes advance the epoch
and therefore invalidate every cached answer, so the hit rate is earned
against real churn, not a static table.

Both are measured by the grid harness — the shared-vs-PREMIUM comparison
is the ``wlm`` area, result cache off-vs-on the ``serving`` area::

    PYTHONPATH=src python -m repro.bench.grid wlm serving
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Generator, List, Sequence

from repro.bench.fabric import Fabric
from repro.chaos import InvariantChecker, InvariantReport
from repro.connector.costmodel import VerticaCostModel
from repro.connector.md import deploy_pmml_model, install_pmml_udx
from repro.connector.s2v import S2VWriter
from repro.connector.v2s import VerticaRelation
from repro.spark.errors import SparkError
from repro.spark.mllib import LabeledPoint, train_linear_regression
from repro.spark.row import StructField, StructType
from repro.vertica.errors import AdmissionTimeout, VerticaError
from repro.wlm import GENERAL, ResourcePool

#: light-but-nonzero latencies: ops overlap enough to contend for
#: admission slots while a full comparison run stays in seconds
SERVE_COST_MODEL = VerticaCostModel(
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
ROWS = [(i, float((i * 13) % 17)) for i in range(120)]
SOURCE = "serve_src"
MODEL_NAME = "serve_model"
PREMIUM = "PREMIUM"
#: per-op task parallelism (each task is one admitted statement stream)
NUM_TASKS = 3
#: virtual scale factor: stretches each op so tenants genuinely overlap
SCALE = 25.0
#: deterministic per-tenant operation rotation
OP_MIX = ("v2s", "s2v", "md")
#: the congested shared pool: every concurrent statement fights for
#: these four slots, so queueing is the norm, not the exception
GENERAL_CONFIG = dict(
    memory_mb=4096, planned_concurrency=4, max_concurrency=4,
    queue_timeout=60.0,
)


def _percentile(values: Sequence[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class TenantStats:
    """One tenant's outcomes: latencies, queue time, rejections, failures."""

    def __init__(self, tenant: int, pool: str):
        self.tenant = tenant
        self.pool = pool
        self.latencies: List[float] = []
        self.queue_wait = 0.0
        self.rejections = 0
        self.failures = 0

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def p50(self) -> float:
        return _percentile(self.latencies, 0.50)

    @property
    def p95(self) -> float:
        return _percentile(self.latencies, 0.95)

    def describe(self, elapsed: float) -> str:
        rate = self.completed / elapsed if elapsed > 0 else 0.0
        return (
            f"tenant {self.tenant} [{self.pool}]: {self.completed} ops, "
            f"p50={self.p50:.3f}s p95={self.p95:.3f}s "
            f"{rate:.2f} ops/s queue_wait={self.queue_wait:.3f}s "
            f"rejected={self.rejections} failed={self.failures}"
        )


class ServeReport:
    """One serving run: per-tenant stats, pool telemetry, audit."""

    def __init__(self, mode: str, tenants: List[TenantStats], elapsed: float,
                 report: InvariantReport, snapshot):
        self.mode = mode
        self.tenants = tenants
        self.elapsed = elapsed
        self.report = report
        self.snapshot = snapshot

    @property
    def ok(self) -> bool:
        return self.report.ok

    def tenant(self, index: int) -> TenantStats:
        return self.tenants[index]

    def describe(self) -> str:
        counters = self.snapshot.counters
        gauges = self.snapshot.gauges
        lines = [
            f"concurrent serve [{self.mode}]: {len(self.tenants)} tenants, "
            f"{self.elapsed:.3f}s simulated",
        ]
        for stats in self.tenants:
            lines.append("  " + stats.describe(self.elapsed))
        waits = self.snapshot.histograms.get("wlm.queue_wait_seconds")
        lines.append(
            "  wlm: "
            f"admissions={counters.get('wlm.admissions', 0):.0f} "
            f"rejections={counters.get('wlm.rejections', 0):.0f} "
            f"cascades={counters.get('wlm.cascades', 0):.0f} "
            f"sessions_reused={counters.get('wlm.sessions.reused', 0):.0f}"
        )
        if waits and waits["count"]:
            lines.append(
                f"  queue wait: n={waits['count']:.0f} "
                f"mean={waits['mean']:.4f}s max={waits['max']:.4f}s"
            )
        for name in sorted(gauges):
            if name.endswith(".queue_depth") and name.startswith("wlm.pool."):
                final, peak = gauges[name]
                lines.append(f"  {name}: peak={peak:.0f}")
            elif name.startswith("db.sessions.active."):
                final, peak = gauges[name]
                lines.append(f"  {name}: peak={peak:.0f} final={final:.0f}")
        lines.append("  " + self.report.describe().replace("\n", "\n  "))
        return "\n".join(lines)


def _rdd_thunks(rdd) -> List:
    def make(split: int):
        def thunk(ctx) -> Generator:
            rows = yield from rdd.compute(split, ctx)
            return rows

        return thunk

    return [make(i) for i in range(rdd.num_partitions)]


def _tenant(fabric: Fabric, stats: TenantStats, ops: int) -> Generator:
    """One tenant's serving loop: a deterministic rotation of op kinds."""
    cluster = fabric.vertica
    spark = fabric.spark
    relation = VerticaRelation(spark, {
        "db": cluster, "table": SOURCE, "numpartitions": NUM_TASKS,
        "scale_factor": SCALE, "resource_pool": stats.pool,
    })
    dataframe = fabric.spark.create_dataframe(
        ROWS, SCHEMA, num_partitions=NUM_TASKS
    )
    for index in range(ops):
        op = OP_MIX[(stats.tenant + index) % len(OP_MIX)]
        start = fabric.env.now
        try:
            if op == "v2s":
                rdd = relation.build_scan()
                job = spark.scheduler.submit(
                    _rdd_thunks(rdd),
                    name=f"serve_t{stats.tenant}_op{index}_v2s",
                )
                yield job.done
            elif op == "s2v":
                writer = S2VWriter(
                    spark, "overwrite",
                    {"db": cluster, "table": f"serve_out_t{stats.tenant}",
                     "numpartitions": NUM_TASKS, "scale_factor": SCALE,
                     "resource_pool": stats.pool},
                    dataframe,
                )
                yield from writer.save_process()
            else:
                node = cluster.node_names[
                    (stats.tenant + index) % len(cluster.node_names)
                ]
                with cluster.connect(node, resource_pool=stats.pool) as conn:
                    result = yield from conn.execute(
                        f"SELECT PMMLPredict(v USING PARAMETERS "
                        f"model_name='{MODEL_NAME}') FROM {SOURCE}",
                        weight=SCALE, output_weight=1.0,
                    )
                    stats.queue_wait += result.cost.queue_wait_seconds
        except AdmissionTimeout:
            stats.rejections += 1
        except (VerticaError, SparkError):
            stats.failures += 1
        else:
            stats.latencies.append(fabric.env.now - start)


def _build_fabric(session_pool_size: int) -> Fabric:
    return Fabric(
        num_vertica=3,
        num_spark=4,
        cost_model=SERVE_COST_MODEL,
        telemetry=True,
        failover_connect=True,
        wlm=True,
        session_pool_size=session_pool_size,
    )


def _prepare(fabric: Fabric, premium: bool) -> None:
    db = fabric.vertica.db
    with db.connect() as session:
        session.execute(
            f"CREATE TABLE {SOURCE} (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)"
        )
        values = ", ".join(f"({i}, {v})" for i, v in ROWS)
        session.execute(f"INSERT INTO {SOURCE} VALUES {values}")
    model = train_linear_regression(
        [LabeledPoint(2.0 * x + 1.0, [float(x)]) for x in range(8)]
    )
    deploy_pmml_model(db, MODEL_NAME, model.to_pmml(MODEL_NAME))
    install_pmml_udx(db)
    # Shrink GENERAL so the tenant mix genuinely contends for admission.
    db.create_resource_pool(
        ResourcePool(GENERAL, **GENERAL_CONFIG), or_replace=True
    )
    if premium:
        db.create_resource_pool(ResourcePool(
            PREMIUM, priority=10, cascade=GENERAL, **GENERAL_CONFIG
        ))


def run_serve(tenants: int = 4, ops: int = 6, premium: bool = False,
              session_pool_size: int = 4) -> ServeReport:
    """Run one multi-tenant serving round; returns the audited report.

    With ``premium=True`` tenant 0 runs in a dedicated high-priority
    PREMIUM pool (cascading to GENERAL on queue timeout); everyone else
    stays in the congested GENERAL pool.
    """
    fabric = _build_fabric(session_pool_size)
    _prepare(fabric, premium)
    checker = InvariantChecker(fabric.vertica)
    mode = "pools" if premium else "shared"
    stats = [
        TenantStats(t, PREMIUM if premium and t == 0 else GENERAL)
        for t in range(tenants)
    ]
    for tenant_stats in stats:
        fabric.env.process(
            _tenant(fabric, tenant_stats, ops),
            name=f"tenant{tenant_stats.tenant}",
        )
    report = InvariantReport(f"serve:{mode}")
    try:
        fabric.env.run()
        report.passed("clean-drain")
    except BaseException as exc:  # noqa: BLE001 - audited, not swallowed
        report.violated("clean-drain", f"serving run raised {exc!r}")
    elapsed = fabric.env.now
    if fabric.vertica.session_pool is not None:
        fabric.vertica.session_pool.close_all()
    report.merge(checker.check_no_leaks())
    completed = sum(s.completed for s in stats)
    if completed == 0:
        report.violated("progress", "no tenant completed a single op")
    else:
        report.passed("progress")
    return ServeReport(mode, stats, elapsed, report, fabric.metrics_snapshot())


# ---------------------------------------------------- Zipf serving (caching)
ZIPF_TABLE = "zipf_src"
ZIPF_GROUPS = 40
ZIPF_ROWS = 600
#: stretches each point read so a cold scan costs ~0.25 s simulated —
#: the gap the result cache is supposed to close on the hot keys
ZIPF_READ_WEIGHT = 200.0


def zipf_cdf(groups: int, skew: float) -> List[float]:
    """Cumulative Zipf(``skew``) distribution over group ranks 0..G-1."""
    weights = [(rank + 1) ** -skew for rank in range(groups)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


class ZipfClientStats:
    """One serving client's outcomes, reads and writes kept apart."""

    def __init__(self, client: int):
        self.client = client
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        self.rejections = 0
        self.failures = 0


class ZipfServeReport:
    """One Zipf serving run: latency percentiles plus per-tier hit rates."""

    def __init__(self, skew: float, read_fraction: float, result_cache: bool,
                 clients: List[ZipfClientStats], elapsed: float,
                 report: InvariantReport, snapshot):
        self.skew = skew
        self.read_fraction = read_fraction
        self.result_cache = result_cache
        self.clients = clients
        self.elapsed = elapsed
        self.report = report
        self.snapshot = snapshot

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def read_latencies(self) -> List[float]:
        return [lat for stats in self.clients for lat in stats.read_latencies]

    @property
    def read_p50(self) -> float:
        return _percentile(self.read_latencies, 0.50)

    @property
    def read_p95(self) -> float:
        return _percentile(self.read_latencies, 0.95)

    def _hit_rate(self, prefix: str, hit: str, miss: str) -> float:
        counters = self.snapshot.counters
        hits = counters.get(f"{prefix}.{hit}", 0.0)
        misses = counters.get(f"{prefix}.{miss}", 0.0)
        return hits / (hits + misses) if hits + misses else 0.0

    @property
    def result_hit_rate(self) -> float:
        return self._hit_rate("vertica.cache.result", "hits", "misses")

    @property
    def plan_hit_rate(self) -> float:
        return self._hit_rate("vertica.cache.plan", "hits", "misses")


def _zipf_client(fabric: Fabric, stats: ZipfClientStats, ops: int,
                 cdf: List[float], read_fraction: float,
                 rng: random.Random, id_counter) -> Generator:
    """One serving client: Zipf-ranked point reads, occasional inserts."""
    cluster = fabric.vertica
    node = cluster.node_names[stats.client % len(cluster.node_names)]
    with cluster.connect(node) as conn:
        for __ in range(ops):
            start = fabric.env.now
            try:
                if rng.random() < read_fraction:
                    grp = bisect.bisect_left(cdf, rng.random())
                    yield from conn.execute(
                        f"SELECT COUNT(*), SUM(v) FROM {ZIPF_TABLE} "
                        f"WHERE grp = {grp}",
                        weight=ZIPF_READ_WEIGHT, output_weight=1.0,
                    )
                    stats.read_latencies.append(fabric.env.now - start)
                else:
                    row_id = next(id_counter)
                    grp = bisect.bisect_left(cdf, rng.random())
                    yield from conn.execute(
                        f"INSERT INTO {ZIPF_TABLE} VALUES "
                        f"({row_id}, {grp}, {float(row_id % 23)})"
                    )
                    stats.write_latencies.append(fabric.env.now - start)
            except AdmissionTimeout:
                stats.rejections += 1
            except (VerticaError, SparkError):
                stats.failures += 1


def run_zipf_serve(clients: int = 6, ops: int = 60, skew: float = 1.2,
                   read_fraction: float = 0.95, result_cache: bool = True,
                   seed: int = 11) -> ZipfServeReport:
    """Run one Zipf-skewed read-mostly serving round; audited.

    ``skew`` is the Zipf exponent over :data:`ZIPF_GROUPS` group ranks
    (0 = uniform); ``read_fraction`` is each op's probability of being a
    point read rather than an epoch-advancing INSERT.  With
    ``result_cache`` the database enables ``SET RESULT_CACHE`` for every
    session, and cached bytes are charged into the GENERAL pool's WLM
    memory ledger.
    """
    fabric = Fabric(num_vertica=3, num_spark=2, cost_model=SERVE_COST_MODEL,
                    telemetry=True, wlm=True)
    db = fabric.vertica.db
    with db.connect() as session:
        session.execute(
            f"CREATE TABLE {ZIPF_TABLE} (id INTEGER, grp INTEGER, v FLOAT) "
            f"SEGMENTED BY HASH(id) ALL NODES"
        )
        values = ", ".join(
            f"({i}, {i % ZIPF_GROUPS}, {float((i * 7) % 23)})"
            for i in range(ZIPF_ROWS)
        )
        session.execute(f"INSERT INTO {ZIPF_TABLE} VALUES {values}")
        session.execute(f"ANALYZE {ZIPF_TABLE}")
    db.result_cache_default = result_cache
    checker = InvariantChecker(fabric.vertica)
    cdf = zipf_cdf(ZIPF_GROUPS, skew)
    id_counter = itertools.count(ZIPF_ROWS)
    stats = [ZipfClientStats(c) for c in range(clients)]
    for client_stats in stats:
        rng = random.Random(seed * 10_007 + client_stats.client)
        fabric.env.process(
            _zipf_client(fabric, client_stats, ops, cdf, read_fraction,
                         rng, id_counter),
            name=f"client{client_stats.client}",
        )
    report = InvariantReport(
        f"serve:zipf:{'warm' if result_cache else 'cold'}"
    )
    try:
        fabric.env.run()
        report.passed("clean-drain")
    except BaseException as exc:  # noqa: BLE001 - audited, not swallowed
        report.violated("clean-drain", f"zipf serving run raised {exc!r}")
    elapsed = fabric.env.now
    report.merge(checker.check_no_leaks())
    if sum(len(s.read_latencies) for s in stats) == 0:
        report.violated("progress", "no client completed a single read")
    else:
        report.passed("progress")
    return ZipfServeReport(skew, read_fraction, result_cache, stats,
                           elapsed, report, fabric.metrics_snapshot())
