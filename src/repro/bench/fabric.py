"""Experiment fabric: one fresh simulated testbed per measurement.

Reproduces the paper's §4.1 setup: a Vertica cluster and a Spark cluster
in a 1:2 node ratio (the default 4:8), 32-core machines, Spark given ~75%
of each machine's cores, two 1 GbE networks on the Vertica side, and the
:data:`~repro.connector.costmodel.PAPER_COST_MODEL` cost calibration.
Each measurement uses a fresh fabric so clocks and NIC byte counters
start at zero.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro import telemetry as _telemetry
from repro.bench.area import GridCellError
from repro.connector import PAPER_COST_MODEL, SimVerticaCluster
from repro.connector.costmodel import VerticaCostModel
from repro.hdfs import SimHdfsCluster
from repro.sim import Environment
from repro.sim.cluster import SimCluster
from repro.spark import SparkSession
from repro.workloads.datasets import Dataset, load_direct

#: light-but-nonzero latencies for the chaos soak and the serving areas:
#: enough clock movement that faults land mid-COPY and concurrent ops
#: contend for admission slots, while hundreds of runs stay in seconds of
#: wall time
LIGHT_COST_MODEL = VerticaCostModel(
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

#: the paper's single data HDD per datanode (bytes/s)
HDFS_DISK_BANDWIDTH = 150e6
#: Spark driver/JVM job submission latency (part of Fig 11's fixed costs)
JOB_LAUNCH_OVERHEAD = 1.2
#: per task-attempt scheduling latency
TASK_LAUNCH_OVERHEAD = 0.005


def insert_rows(session, table: str, rows: Sequence[Sequence],
                chunk: int = 2_000) -> None:
    """Load ``rows`` with one ``INSERT … VALUES`` per ``chunk`` of them.

    Each value is rendered with ``str`` (a string column's values arrive
    already quoted), so the statement text is the same wherever a bench
    table is loaded from.
    """
    for start in range(0, len(rows), chunk):
        values = ", ".join(f"({', '.join(map(str, row))})"
                           for row in rows[start:start + chunk])
        session.execute(f"INSERT INTO {table} VALUES {values}")


class Fabric:
    """A fresh Vertica + Spark (+ optional HDFS) testbed on one sim clock."""

    def __init__(
        self,
        num_vertica: int = 4,
        num_spark: int = 8,
        cost_model=PAPER_COST_MODEL,
        speculation: bool = False,
        with_hdfs: bool = False,
        hdfs_nodes: int = 4,
        hdfs_block_size: int = 64 * 1024 * 1024,
        wlm: bool = False,
        session_pool_size: int = 0,
    ):
        self.env = Environment()
        # Each fabric owns the global registry for its lifetime: a fresh
        # one bound to its clock, so no instrument leaks across runs.
        _telemetry.install(
            _telemetry.MetricsRegistry(enabled=True).bind(self.env)
        )
        self.sim_cluster = SimCluster(self.env)
        self.vertica = SimVerticaCluster(
            env=self.env,
            sim_cluster=self.sim_cluster,
            num_nodes=num_vertica,
            cost_model=cost_model,
            failover_connect=True,
            wlm=wlm,
            session_pool_size=session_pool_size,
        )
        self.spark = SparkSession(
            env=self.env,
            cluster=self.sim_cluster,
            num_workers=num_spark,
            speculation=speculation,
            job_launch_overhead=JOB_LAUNCH_OVERHEAD,
            task_launch_overhead=TASK_LAUNCH_OVERHEAD,
        )
        self.hdfs: Optional[SimHdfsCluster] = None
        if with_hdfs:
            self.hdfs = SimHdfsCluster(
                self.env,
                self.sim_cluster,
                num_nodes=hdfs_nodes,
                block_size=hdfs_block_size,
                disk_bandwidth=HDFS_DISK_BANDWIDTH,
            )
        self.chaos = None

    # -- chaos ------------------------------------------------------------------
    def all_links(self) -> Dict[str, "Link"]:  # noqa: F821
        """Every fair-share link in the fabric, by unique name."""
        links = {}
        for node in self.sim_cluster.nodes.values():
            for nic in node.nics.values():
                links[nic.tx.name] = nic.tx
                links[nic.rx.name] = nic.rx
        for link in self.vertica.ingest_links.values():
            links[link.name] = link
        return links

    def attach_chaos(self, schedule) -> "ChaosController":  # noqa: F821
        """Install a chaos schedule over this fabric; returns the controller.

        Arms every timed action on the fabric's clock and hooks the task
        scheduler and the JDBC bridge.  Call before running the workload.
        """
        from repro.chaos import ChaosController

        controller = ChaosController(self.env, schedule)
        controller.install(
            scheduler=self.spark.scheduler,
            vertica=self.vertica,
            links=self.all_links(),
            network=self.sim_cluster.network,
        )
        self.chaos = controller
        return controller

    def metrics_snapshot(self, trace_buckets: int = 60):
        """Freeze the telemetry recorded on this fabric so far.

        Reads the global registry, which this fabric installed unless
        something replaced it since; an empty snapshot if that registry is
        disabled.  Each Vertica node's external NIC transmit rate-log is
        folded in as a bucketed :class:`~repro.sim.UsageTrace`, so counters
        and utilisation series share the snapshot's one reporting path.
        """
        registry = _telemetry.get_registry()
        snapshot = registry.snapshot()
        if registry.enabled and self.env.now > 0:
            from repro.sim.trace import UsageTrace

            nic_name = self.vertica.cost_model.external_nic
            step = self.env.now / trace_buckets
            for node_name, node in sorted(self.vertica.sim_nodes.items()):
                link = node.nics[nic_name].tx
                snapshot.traces.append(
                    UsageTrace.from_log(
                        f"{node_name}.{nic_name}.tx_bytes_per_sec",
                        link.rate_log,
                        0.0,
                        self.env.now,
                        step,
                    )
                )
        return snapshot

    # -- setup helpers (uncharged) ------------------------------------------------
    def create_table(self, ddl: str, rows: Sequence[Sequence] = ()) -> None:
        """``CREATE TABLE <ddl>``, then one INSERT of the (numeric) ``rows``."""
        with self.vertica.db.connect() as session:
            session.execute(f"CREATE TABLE {ddl}")
            if rows:
                insert_rows(session, ddl.split()[0], rows, chunk=len(rows))

    # -- measured operations ----------------------------------------------------
    def _location(self, source: str, name: str, scale: float) -> Dict:
        """Where ``source`` keeps ``name``: an HDFS path or a Vertica table."""
        if source == "hdfs":
            assert self.hdfs is not None, "fabric built without HDFS"
            return {"fs": self.hdfs, "path": name, "scale_factor": scale}
        return {"db": self.vertica, "table": name, "scale_factor": scale}

    def load(self, source: str, name: str, scale: float, filters: Sequence = (),
             group_by: Optional[Tuple[Sequence[str], Sequence]] = None,
             **options) -> Tuple[float, int]:
        """Time ``read.format(source).load()`` of ``name`` to the driver.

        ``filters`` go through ``DataFrame.filter``; ``group_by`` is a
        ``(keys, aggregates)`` pair for ``group_by(*keys).agg(*aggregates)``.
        ``options`` are the source's own.  Returns (sim seconds, rows).
        """
        df = self.spark.read.format(source).options(
            self._location(source, name, scale), **options).load()
        for pushdown in filters:
            df = df.filter(pushdown)
        start = self.env.now
        if group_by is not None:
            keys, aggregates = group_by
            df = df.group_by(*keys).agg(*aggregates)  # runs its job: timed
        rows = df.collect()
        return self.env.now - start, len(rows)

    def save(self, source: str, dataset: Dataset, name: str, partitions: int,
             **options) -> float:
        """Time ``write.format(source).mode("overwrite").save()`` of
        ``dataset`` as a DataFrame of ``partitions`` partitions; ``options``
        are the source's own.  Returns sim seconds."""
        df = self.spark.create_dataframe(dataset.rows, dataset.schema,
                                         num_partitions=partitions)
        start = self.env.now
        df.write.format(source).options(
            self._location(source, name, dataset.scale), **options
        ).mode("overwrite").save()
        return self.env.now - start


def transfer(direction: str, dataset: Dataset, partitions: int,
             fabric: Optional[Fabric] = None, **options) -> float:
    """Sim seconds of one V2S load (``"v2s"``) or S2V save of ``dataset``.

    The measurement most paper figures are made of; runs on ``fabric``
    (default: a fresh paper-calibrated one) and checks a load returned
    every real row.
    """
    fabric = fabric or Fabric()
    if direction != "v2s":
        return fabric.save("vertica", dataset, "d1_out", partitions,
                           numpartitions=partitions, **options)
    load_direct(fabric.vertica, dataset, "d1")
    elapsed, rows = fabric.load("vertica", "d1", dataset.scale,
                                numpartitions=partitions, **options)
    if rows != dataset.real_rows:
        raise GridCellError(
            f"V2S returned {rows} rows, wanted {dataset.real_rows}")
    return elapsed
