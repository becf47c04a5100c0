"""Spark's native HDFS read/write path (the §4.7.2 baseline).

The registered ``hdfs`` source runs on a
:class:`~repro.hdfs.SimHdfsCluster` (re-exported here for its existing
importers).  It reads one task per block — "it will default to one
partition per HDFS block", which is why the paper's 140 GB file became
2240 partitions — and writes parquet-like columnar files with 3×
replication.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.avrolite.schema import Schema
from repro.connector.costmodel import VerticaCostModel
from repro.hdfs import SimHdfsCluster
from repro.hdfs.columnar import read_columnar, write_columnar
from repro.spark.datasource import (
    BaseRelation,
    CreatableRelationProvider,
    Filter,
    RelationProvider,
    apply_filters,
    register_source,
)
from repro.spark.errors import AnalysisError
from repro.spark.rdd import RDD, materialize
from repro.spark.row import StructField, StructType


class HdfsRelation(BaseRelation):
    """A directory of columnar part files, one scan task per block."""

    def __init__(self, spark, options: Dict[str, Any]):
        self.spark = spark
        try:
            self.hdfs: SimHdfsCluster = options["fs"]
            self.path = options["path"]
        except KeyError as exc:
            raise AnalysisError(f"hdfs source requires option {exc}") from None
        self.scale_factor = float(options.get("scale_factor", 1.0))
        self._parts = self.hdfs.fs.list(self.path + "/part-")
        if not self._parts:
            raise AnalysisError(f"no part files under {self.path!r}")
        schema_bytes = self.hdfs.fs.read(self.path + "/_schema")
        avro = Schema.loads(schema_bytes.decode())
        fields = []
        for name, field_schema in avro.fields:
            kind = field_schema.kind
            data_type = {"long": "long", "double": "double", "boolean": "boolean"}.get(
                kind, "string"
            )
            fields.append(StructField(name, data_type))
        self._schema = StructType(fields)

    @property
    def schema(self) -> StructType:
        return self._schema

    def build_scan(
        self,
        required_columns: Optional[Sequence[str]] = None,
        filters: Sequence[Filter] = (),
    ) -> RDD:
        blocks = []
        for part in self._parts:
            blocks.extend(self.hdfs.fs.block_locations(part))
        return HdfsScanRDD(self, blocks, required_columns, filters)


class HdfsScanRDD(RDD):
    """One partition per HDFS block (Spark's default for file sources)."""

    def __init__(self, relation: HdfsRelation, blocks, required_columns, filters):
        super().__init__(relation.spark, max(1, len(blocks)))
        self.relation = relation
        self.blocks = blocks
        self.required_columns = list(required_columns) if required_columns else None
        self.filters = tuple(filters)
        #: cache: part path -> decoded rows (a block maps back to its file)
        self._file_rows: Dict[str, List[Tuple[Any, ...]]] = {}

    def _rows_of(self, path: str) -> List[Tuple[Any, ...]]:
        if path not in self._file_rows:
            __, rows = read_columnar(self.relation.hdfs.fs.read(path))
            self._file_rows[path] = rows
        return self._file_rows[path]

    def compute(self, split: int, ctx) -> Generator:
        relation = self.relation
        hdfs = relation.hdfs
        if not self.blocks:
            return []
        block = self.blocks[split]
        source_node = hdfs.sim_nodes[block.replicas[0]]
        nbytes = block.size * relation.scale_factor
        yield hdfs.sim_cluster.network.transfer(
            hdfs.read_route(source_node, ctx.node),
            nbytes,
            name=f"hdfs-read:{block.block_id}",
        )
        chunk = hdfs.block_rows(block, self._rows_of(block.path))
        if self.filters:
            chunk = apply_filters(list(self.filters), relation.schema, chunk)
        if self.required_columns:
            indices = [relation.schema.index_of(c) for c in self.required_columns]
            chunk = [tuple(r[i] for i in indices) for r in chunk]
        return chunk


class HdfsSource(RelationProvider, CreatableRelationProvider):
    """Registered as ``hdfs``: Spark's native file read/write."""

    def create_relation(self, spark, options: Dict[str, Any]) -> HdfsRelation:
        return HdfsRelation(spark, options)

    def save(self, spark, mode: str, options: Dict[str, Any], dataframe) -> None:
        hdfs: SimHdfsCluster = options["fs"]
        path = options["path"]
        scale = float(options.get("scale_factor", 1.0))
        if hdfs.fs.list(path + "/"):
            if mode == "errorifexists":
                raise AnalysisError(f"path {path!r} already exists")
            if mode == "ignore":
                return
            if mode == "overwrite":
                for existing in hdfs.fs.list(path + "/"):
                    hdfs.fs.delete(existing)
        schema = dataframe.schema
        avro = schema.to_avro("hdfs_row")
        rdd = dataframe.rdd()
        header_bytes = len(write_columnar(avro, []))

        def make_task(split: int):
            def thunk(ctx) -> Generator:
                rows = yield from materialize(rdd, split, ctx)
                payload = write_columnar(avro, rows)
                nbytes = VerticaCostModel.virtual_bytes(
                    len(payload), header_bytes, scale
                )
                # Write pipeline: the whole part streams executor -> the
                # first block's first replica, which then forwards it down
                # that block's replica chain.
                part_path = f"{path}/part-{split:05d}"
                blocks = hdfs.fs.write(part_path, payload, overwrite=True)
                replicas = blocks[0].replicas
                yield hdfs.sim_cluster.network.transfer(
                    hdfs.write_route(ctx.node, hdfs.sim_nodes[replicas[0]]),
                    nbytes,
                    name=f"hdfs-write:{part_path}",
                )
                hdfs.replicate(replicas, nbytes, f"hdfs-replicate:{part_path}")
                return len(rows)

            return thunk

        thunks = [make_task(i) for i in range(rdd.num_partitions)]
        spark.run_thunks(thunks, name=f"hdfs-save:{path}")
        hdfs.fs.write(path + "/_schema", avro.dumps().encode(), overwrite=True)


register_source("hdfs", HdfsSource)
