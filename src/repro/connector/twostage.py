"""The 2-stage transfer alternative (paper §5 / spark-redshift style).

The paper discusses — as a design alternative, not its chosen approach —
staging data through an intermediate store both systems can reach, the
way the Databricks Redshift connector uses S3: Spark writes all partition
files to the landing zone, then the database runs a sequence of loads
bracketed by BEGIN/END.  The costs the paper predicts (an extra full copy
of the data, a dependency on a third system) and the benefit (system
decoupling) can be measured here against single-stage S2V
(``benchmarks/bench_ablation_twostage.py``).

Semantics: stage 1 is idempotent per file (overwrites); stage 2 loads
every file into a staging table under **one transaction**, then the
driver atomically renames (overwrite) or INSERT..SELECTs (append) —
exactly-once, with the driver as the single committer.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.avrolite import encode_rows
from repro.connector.options import ConnectorOptions
from repro.connector.s2v import S2VResult
from repro.spark.errors import AnalysisError


class TwoStageWriter:
    """Save a DataFrame to Vertica through an intermediate landing zone."""

    def __init__(self, spark, hdfs, mode: str, options: Dict[str, Any], dataframe):
        if mode not in ("overwrite", "append"):
            raise AnalysisError(f"two-stage writer supports overwrite/append, "
                                f"got {mode!r}")
        self.spark = spark
        self.hdfs = hdfs
        self.mode = mode
        self.dataframe = dataframe
        self.opts = ConnectorOptions(options, for_save=True)
        self.cluster = self.opts.cluster
        self.job_name = f"TWOSTAGE_JOB_{next(self.cluster.job_ids)}"
        self.target = self.opts.table
        self.staging = f"{self.job_name}_STAGING"
        self.landing = f"/twostage/{self.job_name}"
        self.avro_schema = dataframe.schema.to_avro("twostage_row")
        #: container header size: paid once per file, never scaled
        self._header_bytes = len(
            encode_rows(self.avro_schema, [], codec=self.opts.avro_codec)
        )

    # ------------------------------------------------------------------ stage 1
    def _stage1_write_files(self) -> List[str]:
        """Spark tasks write one Avro file per partition to the landing zone."""
        hdfs = self.hdfs
        writer = self
        rdd = self.dataframe.rdd()
        if rdd.num_partitions > self.opts.num_partitions:
            rdd = rdd.coalesce(self.opts.num_partitions)
        weight = self.opts.scale_factor
        header_bytes = self._header_bytes

        def make_task(split: int):
            def thunk(ctx) -> Generator:
                body = rdd.compute(split, ctx)
                rows = (yield from body) if hasattr(body, "__next__") else body
                payload = encode_rows(self.avro_schema, list(rows),
                                      codec=writer.opts.avro_codec)
                path = f"{writer.landing}/part-{split:05d}.avro"
                blocks = hdfs.fs.write(path, payload, overwrite=True)
                data_bytes = max(0, len(payload) - header_bytes)
                nbytes = header_bytes + data_bytes * weight
                first = hdfs.sim_nodes[blocks[0].replicas[0]]
                yield hdfs.sim_cluster.transfer(
                    ctx.node, first, nbytes, name=f"land:{path}"
                )
                return path

            return thunk

        thunks = [make_task(i) for i in range(rdd.num_partitions)]
        return self.spark.run_thunks(thunks, name=f"{self.job_name}.stage1")

    # ------------------------------------------------------------------ stage 2
    def _stage2_load(self, paths: List[str]) -> Generator:
        """One transaction loads every landed file into the staging table.

        Like ``COPY ... ON ANY NODE`` (and Redshift's COPY-from-S3), the
        cluster pulls the landed files in parallel — files are dealt
        round-robin to nodes, each pull bounded by that node's ingest
        ceiling — while the bracketing transaction keeps the load atomic.
        """
        env = self.cluster.env
        conn = self.cluster.connect(self.opts.host, client_node=None)
        model = self.cluster.cost_model
        weight = self.opts.scale_factor
        header_bytes = self._header_bytes
        counts: List[int] = []
        nodes = self.cluster.node_names

        def load_file(path: str, node_name: str) -> Generator:
            payload = self.hdfs.fs.read(path)
            block = self.hdfs.fs.block_locations(path)[0]
            source = self.hdfs.sim_nodes[block.replicas[0]]
            puller = self.cluster.sim_nodes[node_name]
            data_bytes = max(1, len(payload) - header_bytes)
            nbytes = header_bytes + data_bytes * weight
            route = [
                source.nics["default"].tx,
                puller.nics[model.external_nic].rx,
            ]
            ingest = self.cluster.ingest_links.get(node_name)
            if ingest is not None:
                route.append(ingest)
            yield self.cluster.sim_cluster.network.transfer(
                route, nbytes, name=f"pull:{path}"
            )
            effective_weight = nbytes / len(payload)
            result = yield from conn.execute(
                f"COPY {self.staging} FROM STDIN FORMAT AVRO DIRECT",
                copy_data=payload,
                weight=effective_weight,
            )
            counts.append(result.rowcount)

        try:
            yield from conn.execute(
                self.dataframe.schema.create_table_sql(
                    self.staging,
                    segmented_by=[self.dataframe.schema.fields[0].name],
                    varchar_length=self.opts.varchar_length,
                )
            )
            yield from conn.execute("BEGIN")
            pulls = [
                env.process(load_file(path, nodes[index % len(nodes)]),
                            name=f"pull-{index}")
                for index, path in enumerate(paths)
            ]
            if pulls:
                yield env.all_of(pulls)
            loaded = sum(counts)
            yield from conn.execute("COMMIT")

            # Driver-side atomic publication (single committer, no races).
            if self.mode == "overwrite":
                yield from conn.execute(f"DROP TABLE IF EXISTS {self.target}")
                yield from conn.execute(
                    f"ALTER TABLE {self.staging} RENAME TO {self.target}"
                )
            else:
                yield from conn.execute("BEGIN")
                yield from conn.execute(
                    f"INSERT INTO {self.target} SELECT * FROM {self.staging}"
                )
                yield from conn.execute("COMMIT")
                yield from conn.execute(f"DROP TABLE {self.staging}")
            return loaded
        finally:
            conn.close()

    def _cleanup_landing(self) -> None:
        for path in self.hdfs.fs.list(self.landing + "/"):
            self.hdfs.fs.delete(path)

    # --------------------------------------------------------------------- save
    def save(self) -> S2VResult:
        if self.mode == "append" and not self.cluster.db.catalog.has_table(
            self.target
        ):
            raise AnalysisError(
                f"append mode requires existing table {self.target!r}"
            )
        paths = self._stage1_write_files()
        loaded = self.cluster.run(
            self._stage2_load(list(paths)), name=f"{self.job_name}.stage2"
        )
        self._cleanup_landing()
        return S2VResult(self.job_name, loaded, 0, 0.0, "SUCCESS")


def save_two_stage(spark, hdfs, dataframe, options: Dict[str, Any],
                   mode: str = "overwrite") -> S2VResult:
    """Convenience wrapper around :class:`TwoStageWriter`."""
    return TwoStageWriter(spark, hdfs, mode, options, dataframe).save()
