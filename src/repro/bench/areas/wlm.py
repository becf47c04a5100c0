"""WLM isolation: the same tenant mix in one shared pool vs a PREMIUM pool.

Every tenant runs a V2S / S2V / model-scoring rotation through admission
control and a client-side session pool.  ``shared`` crams everyone into
a deliberately congested GENERAL pool; ``pools`` moves tenant 0 to a
dedicated high-priority PREMIUM pool (cascading to GENERAL on queue
timeout), which must lower its p95 — workload management doing its job.
"""

from functools import partial
from typing import Generator, Iterator

from repro.bench.area import SIM_GATE, BenchArea, GridCellError, keyed
from repro.bench.clients import ClientStats, Op, ServeRun, run_clients
from repro.bench.fabric import LIGHT_COST_MODEL, Fabric
from repro.connector.md import deploy_pmml_model, install_pmml_udx
from repro.connector.s2v import S2VWriter
from repro.connector.v2s import VerticaRelation
from repro.spark.mllib import LabeledPoint, train_linear_regression
from repro.spark.row import StructField, StructType
from repro.wlm import GENERAL, ResourcePool

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


def _prepare(fabric: Fabric, premium: bool) -> None:
    db = fabric.vertica.db
    fabric.create_table(
        f"{SOURCE} (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)", ROWS)
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


def _tenant_ops(fabric: Fabric, stats: ClientStats, ops: int) -> Iterator[Op]:
    """One tenant's deterministic rotation of V2S scan, S2V save, scoring."""
    cluster, spark, tenant = fabric.vertica, fabric.spark, stats.client
    relation = VerticaRelation(spark, {
        "db": cluster, "table": SOURCE, "numpartitions": NUM_TASKS,
        "scale_factor": SCALE, "resource_pool": stats.pool,
    })
    dataframe = spark.create_dataframe(ROWS, SCHEMA, num_partitions=NUM_TASKS)

    def v2s(index: int) -> Generator:
        rdd = relation.build_scan()
        yield spark.scheduler.submit(
            [lambda ctx, split=split: rdd.compute(split, ctx)
             for split in range(rdd.num_partitions)],
            name=f"serve_t{tenant}_op{index}_v2s",
        ).done

    def s2v(index: int) -> Generator:
        yield from S2VWriter(
            spark, "overwrite",
            {"db": cluster, "table": f"serve_out_t{tenant}",
             "numpartitions": NUM_TASKS, "scale_factor": SCALE,
             "resource_pool": stats.pool},
            dataframe,
        ).save_process()

    def md(index: int) -> Generator:
        node = cluster.node_names[(tenant + index) % len(cluster.node_names)]
        with cluster.connect(node, resource_pool=stats.pool) as conn:
            result = yield from conn.execute(
                f"SELECT PMMLPredict(v USING PARAMETERS "
                f"model_name='{MODEL_NAME}') FROM {SOURCE}",
                weight=SCALE,
            )
            stats.queue_wait += result.cost.queue_wait_seconds

    kinds = {"v2s": v2s, "s2v": s2v, "md": md}
    for index in range(ops):
        kind = OP_MIX[(tenant + index) % len(OP_MIX)]
        yield kind, partial(kinds[kind], index)


def run_serve(tenants: int = 4, ops: int = 6, premium: bool = False,
              session_pool_size: int = 4) -> ServeRun:
    """One multi-tenant serving round; with ``premium`` tenant 0 runs in
    the PREMIUM pool while everyone else stays in congested GENERAL."""
    fabric = Fabric(num_vertica=3, num_spark=4, cost_model=LIGHT_COST_MODEL,
                    wlm=True, session_pool_size=session_pool_size)
    _prepare(fabric, premium)
    stats = [ClientStats(t, PREMIUM if premium and t == 0 else GENERAL)
             for t in range(tenants)]
    return run_clients(fabric, "pools" if premium else "shared",
                       [(s, _tenant_ops(fabric, s, ops)) for s in stats])


def run_cell(params, config):
    run = run_serve(config["tenants"], config["ops"],
                    premium=params["mode"] == "pools",
                    session_pool_size=config["session_pool_size"])
    if not run.ok:
        raise GridCellError(f"serving invariants failed:\n{run.describe()}")
    tenant0 = run.clients[0]
    return {
        "sim_seconds": round(run.elapsed, 3),
        "tenant0_p50": round(tenant0.percentile(0.50), 4),
        "tenant0_p95": round(tenant0.percentile(0.95), 4),
        "completed": sum(s.completed for s in run.clients),
        "rejections": sum(s.rejections for s in run.clients),
    }


def checks(cells):
    p95 = keyed(cells, "tenant0_p95")
    return [("PREMIUM pool lowers tenant 0's p95 vs the shared GENERAL pool",
             p95["pools"] < p95["shared"])]


AREA = BenchArea(
    "wlm",
    "WLM isolation: tenant 0 in the shared GENERAL pool vs a PREMIUM pool",
    axes={"mode": ("shared", "pools")},
    runner=run_cell,
    config={"tenants": 4, "ops": 6, "session_pool_size": 4},
    checks=checks,
    gate=SIM_GATE,
)
