"""SparkSession: the driver-side entry point.

Owns the simulation environment, the Spark worker nodes (as
:class:`~repro.sim.cluster.SimNode` objects), the executors and the task
scheduler, and provides ``parallelize`` / ``create_dataframe`` /
``read``.  Mirrors the paper's configuration defaults: one executor per
worker node with ~75% of the machine's logical cores as task slots.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim import Environment
from repro.sim.cluster import GBE_BYTES_PER_SEC, SimCluster, SimNode, make_nodes
from repro.spark.dataframe import DataFrame, DataFrameReader
from repro.spark.errors import SparkError
from repro.spark.faults import FaultPolicy
from repro.spark.rdd import RDD, ParallelCollectionRDD, materialize
from repro.spark.row import StructType
from repro.spark.scheduler import Executor, TaskScheduler

#: logical cores per machine in the paper's testbed
MACHINE_CORES = 32
#: "we assign roughly 75% of each machine's cores to Spark"
SPARK_CORE_FRACTION = 0.75


class SparkSession:
    """A driver connected to a simulated Spark cluster."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        cluster: Optional[SimCluster] = None,
        num_workers: int = 8,
        cores_per_worker: Optional[int] = None,
        max_failures: int = 4,
        speculation: bool = False,
        kill_speculative_losers: bool = False,
        fault_policy: Optional[FaultPolicy] = None,
        worker_prefix: str = "spark",
        job_launch_overhead: float = 0.0,
        task_launch_overhead: float = 0.0,
    ):
        self.env = env if env is not None else Environment()
        self.cluster = cluster if cluster is not None else SimCluster(self.env)
        if cores_per_worker is None:
            cores_per_worker = int(MACHINE_CORES * SPARK_CORE_FRACTION)
        existing = [
            node for name, node in self.cluster.nodes.items()
            if name.startswith(worker_prefix)
        ]
        if existing:
            self.workers: List[SimNode] = existing
        else:
            self.workers = make_nodes(
                self.cluster,
                worker_prefix,
                num_workers,
                cores=MACHINE_CORES,
                nics={"default": GBE_BYTES_PER_SEC},
            )
        self.executors = [
            Executor(self.env, node, cores_per_worker) for node in self.workers
        ]
        self.scheduler = TaskScheduler(
            self.env,
            self.executors,
            max_failures=max_failures,
            speculation=speculation,
            kill_speculative_losers=kill_speculative_losers,
            fault_policy=fault_policy,
            job_launch_overhead=job_launch_overhead,
            task_launch_overhead=task_launch_overhead,
        )
        self.default_parallelism = len(self.executors) * 2
        self.conf: Dict[str, Any] = {}
        #: lineage ids for this session's RDDs (executor block caches key
        #: on them)
        self.rdd_ids = itertools.count(1)

    # -- data creation ------------------------------------------------------------
    def parallelize(self, data: Sequence[Any], num_partitions: Optional[int] = None) -> RDD:
        if num_partitions is None:
            num_partitions = min(self.default_parallelism, max(1, len(data)))
        return ParallelCollectionRDD(self, data, num_partitions)

    def create_dataframe(
        self,
        rows: Sequence[Sequence[Any]],
        schema: StructType,
        num_partitions: Optional[int] = None,
    ) -> DataFrame:
        width = len(schema)
        tuples = []
        for row in rows:
            if len(row) != width:
                raise SparkError(
                    f"row arity {len(row)} does not match schema width {width}"
                )
            tuples.append(tuple(row))
        return DataFrame(self, schema, rdd=self.parallelize(tuples, num_partitions))

    @property
    def read(self) -> DataFrameReader:
        return DataFrameReader(self)

    # -- job running ---------------------------------------------------------------
    def run_job(
        self,
        rdd: RDD,
        result_fn: Optional[Callable[[int, List[Any]], Any]] = None,
        name: str = "",
    ) -> List[Any]:
        """Run one task per partition; returns per-partition results.

        Drives the simulation clock until the job completes, so callers
        use it synchronously from driver code.
        """

        def make_thunk(split: int):
            def thunk(ctx):
                rows = yield from materialize(rdd, split, ctx)
                if result_fn is not None:
                    return result_fn(split, rows)
                return rows

            return thunk

        thunks = [make_thunk(i) for i in range(rdd.num_partitions)]
        job = self.scheduler.submit(thunks, name or "collect")
        return self.env.run(job.done)

    def run_thunks(self, thunks: List[Callable], name: str = "") -> List[Any]:
        """Submit raw task thunks (used by save paths) and run to completion."""
        job = self.scheduler.submit(thunks, name)
        return self.env.run(job.done)

    @property
    def now(self) -> float:
        return self.env.now

