"""V2S: loading Vertica data into Spark (§3.1).

Design, as in the paper:

- **Locality-aware hash-range queries** (§3.1.2).  The relation reads the
  table's hash-ring boundaries from the system catalog, splits the ring
  into ``numpartitions`` non-overlapping ranges that never cross a
  segment boundary, and each Spark task connects *to the node owning its
  range* and issues ``SELECT ... WHERE HASH(seg_cols) >= lo AND
  HASH(seg_cols) < hi``.  Only node-local data is requested, so no bytes
  cross the Vertica-internal network.  That text is the wire contract
  and all the connector knows; the server turns the two conjuncts into
  the scan's hash range, answers it from the segmentation hash stored
  with every row, and drops them from the predicate — a task hashes
  nothing at read time (docs/ENGINE.md, the ``hash_range`` rule).
- **Snapshot consistency via epochs.**  Each scan pins the current epoch
  and every task queries ``AT EPOCH e``, so tasks running (or re-running,
  after failures) at different times still load one consistent view.
- **Pushdown** (§3.1.1).  Column pruning, the External Data Source API's
  filters, COUNT, and ``group_by().agg()`` (as per-range partial GROUP BY
  queries — see :meth:`VerticaRelation.build_aggregate_scan`) are all
  evaluated inside Vertica; views (and unsegmented tables) are
  parallelised with ``SYNTHETIC_HASH()`` ranges, which lets pre-defined
  views push down joins and arbitrary aggregations too.  Nothing is
  stored for those, so the server hashes each row of the relation per
  task query — once, whichever bound reads it.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.connector import staging as stg
from repro.connector.options import ConnectorOptions
from repro.hdfs.columnar import read_columnar, write_columnar
from repro.spark.datasource import (
    AggregateSpec,
    BaseRelation,
    Filter,
    filters_to_sql,
    unpushable,
)
from repro.spark.rdd import RDD
from repro.spark.row import StructType
from repro.vertica.errors import CatalogError
from repro.vertica.hashring import HashRing, Segment, synthetic_ring
from repro.vertica.types import parse_type


class VerticaRelation(BaseRelation):
    """A Vertica table or view exposed through the Data Source API."""

    def __init__(self, spark: "SparkSession", options: Dict[str, Any]):  # noqa: F821
        self.spark = spark
        self.opts = ConnectorOptions(options)
        self.cluster = self.opts.cluster
        #: staging directories created by staged scans, for cleanup_staging
        self._staging_dirs: List[str] = []
        self._discover()

    # -- catalog discovery (driver-side metadata queries) -----------------------
    def _discover(self) -> None:
        db = self.cluster.db
        with db.connect(self.opts.host, failover=True) as session:
            self.is_view = db.catalog.has_view(self.opts.table)
            if self.is_view:
                self._schema = self._discover_view_schema(session)
                self.ring = synthetic_ring(self.cluster.node_names)
                self.segmentation_columns: List[str] = []
                self.unsegmented = False
                return
            rows = session.execute(
                "SELECT column_name, data_type FROM v_catalog.columns "
                f"WHERE table_name = '{self.opts.table}' ORDER BY ordinal_position"
            ).rows
            if not rows:
                raise CatalogError(f"relation {self.opts.table!r} does not exist")
            self._schema = StructType.from_sql_types(
                [(name, parse_type(type_name)) for name, type_name in rows]
            )
            seg = session.execute(
                "SELECT is_segmented, row_segmentation FROM v_catalog.tables "
                f"WHERE table_name = '{self.opts.table}'"
            ).rows
            self.unsegmented = not seg[0][0]
            if self.unsegmented:
                self.segmentation_columns = []
                self.ring = synthetic_ring(self.cluster.node_names)
            else:
                self.segmentation_columns = seg[0][1].split(",")
                segments = session.execute(
                    "SELECT segment_lower_bound, segment_upper_bound, node_name "
                    f"FROM v_catalog.segments WHERE table_name = '{self.opts.table}' "
                    "ORDER BY segment_lower_bound"
                ).rows
                self.ring = HashRing(
                    [Segment(lo, hi, node) for lo, hi, node in segments]
                )

    def _discover_view_schema(self, session) -> StructType:
        """Infer a view's schema from sampled values.

        Views have no catalog column types here, so each column is typed
        by its value in a one-row sample or, where that is NULL, by its
        first non-NULL value (one more statement per such column; strings
        for NULL-only columns) — a documented limitation of the
        reproduction, not of the design.  Every sample is pinned to the
        current epoch: without ``AT EPOCH`` a writer committing between
        discovery and the scan could make schema inference observe a row
        the scan's snapshot never contains.
        """
        from repro.spark.row import StructField

        epoch = session.scalar("SELECT current_epoch FROM v_catalog.epochs")
        at = f"AT EPOCH {epoch} SELECT"
        sample = session.execute(f"{at} * FROM {self.opts.table} LIMIT 1")
        fields = []
        first = sample.rows[0] if sample.rows else [None] * len(sample.columns)
        for name, value in zip(sample.columns, first):
            # a quoted identifier cannot hold '"', so such a column keeps
            # its sampled NULL
            if value is None and sample.rows and '"' not in name:
                found = session.execute(
                    f'{at} "{name}" FROM {self.opts.table} '
                    f'WHERE "{name}" IS NOT NULL LIMIT 1'
                ).rows
                value = found[0][0] if found else None
            if isinstance(value, bool):
                data_type = "boolean"
            elif isinstance(value, int):
                data_type = "long"
            elif isinstance(value, float):
                data_type = "double"
            else:
                data_type = "string"
            fields.append(StructField(name, data_type))
        return StructType(fields)

    # -- BaseRelation API ----------------------------------------------------------
    @property
    def schema(self) -> StructType:
        return self._schema

    def unhandled_filters(self, filters: Sequence[Filter]) -> List[Filter]:
        return unpushable(filters)  # Vertica evaluates every other shape

    def pin_epoch(self) -> int:
        """The snapshot epoch all of a job's task queries will read at."""
        with self.cluster.db.connect(self.opts.host, failover=True) as session:
            return session.scalar("SELECT current_epoch FROM v_catalog.epochs")

    def _range_predicate(self, lo: int, hi: int, filters: Sequence[Filter]) -> str:
        """The task's hash range, ANDed with the pushed-down filters."""
        if self.is_view or self.unsegmented:
            hash_expr = "SYNTHETIC_HASH()"
        else:
            hash_expr = f"HASH({', '.join(self.segmentation_columns)})"
        predicate = f"{hash_expr} >= {lo} AND {hash_expr} < {hi}"
        pushed = filters_to_sql(filters)
        return f"{predicate} AND {pushed}" if pushed else predicate

    def task_sql(
        self,
        epoch: int,
        lo: int,
        hi: int,
        required_columns: Optional[Sequence[str]],
        filters: Sequence[Filter],
    ) -> str:
        columns = ", ".join(required_columns) if required_columns else "*"
        return (
            f"AT EPOCH {epoch} SELECT {columns} FROM {self.opts.table} "
            f"WHERE {self._range_predicate(lo, hi, filters)}"
        )

    def build_scan(
        self,
        required_columns: Optional[Sequence[str]] = None,
        filters: Sequence[Filter] = (),
    ) -> RDD:
        epoch = self.pin_epoch()
        if self.opts.transport == "staging":
            return self._build_staged_scan(epoch, required_columns, filters)
        plan = self.ring.partition_plan(self.opts.num_partitions)
        return VerticaScanRDD(self, plan, epoch, required_columns, filters)

    # -- staged transport (distributed-FS bridge) ------------------------------
    def _build_staged_scan(
        self,
        epoch: int,
        required_columns: Optional[Sequence[str]],
        filters: Sequence[Filter],
    ) -> "StagedScanRDD":
        """Export segment-local columnar files to the staging FS, then scan
        them one task per HDFS block.

        Each hash range is exported by *its owning node* (projection and
        filters applied inside Vertica, at the pinned epoch), so the wire
        from Vertica to the staging cluster carries columnar bytes instead
        of fat textual JDBC rows, and the export runs without the
        per-connection result-stream ceiling.  Scan tasks then read the
        staged blocks straight off the datanodes.
        """
        hdfs = self.opts.staging_fs
        scale = self.opts.scale_factor
        model = self.cluster.cost_model
        job = (
            f"V2S_{self.opts.table.replace('.', '_')}_"
            f"{next(self.opts.staging_fs.fs.path_ids)}"
        )
        export_dir = f"{self.opts.staging_root}/v2s/{job}"
        columns = list(required_columns) if required_columns else None
        struct = self._schema.select(columns) if columns else self._schema
        avro = struct.to_avro("v2s_row")
        header_bytes = len(write_columnar(avro, []))
        # Export at finer granularity than the scan asked for: more,
        # smaller segment-local files overlap per-range encode with the
        # node's writes and give the block scan evenly-packed waves
        # (the scan's partition count comes from the block count anyway).
        export_ranges = max(self.opts.num_partitions, 8 * len(self.cluster.node_names))
        ranges = [r for part in self.ring.partition_plan(export_ranges)
                  for r in part]
        # shared across the concurrent exports: balances block writes
        # over datanodes (see write_staged_file)
        write_load: Dict[str, float] = {}

        def export_range(index: int, lo: int, hi: int, node_name: str) -> Generator:
            vnode = self.cluster.sim_nodes[node_name]
            with self.cluster.connect(
                node_name, client_node=None,
                resource_pool=self.opts.resource_pool,
            ) as connection:
                sql = self.task_sql(epoch, lo, hi, columns, filters)
                with telemetry.span(
                    "v2s.staged_export", segment=index, node=node_name
                ):
                    # output_weight=0: rows leave as columnar file bytes
                    # (charged below), not as a JDBC result stream.
                    result = yield from connection.execute(
                        sql, weight=scale, output_weight=0.0
                    )
                    rows = result.rows
                    payload = write_columnar(avro, rows)
                    nbytes = model.virtual_bytes(len(payload), header_bytes, scale)
                    encode_seconds = model.encode_seconds(
                        len(rows), len(payload), header_bytes, scale,
                        columnar=True,
                    )
                    if encode_seconds:
                        yield from vnode.compute(encode_seconds)
                    path = f"{export_dir}/seg-{index:05d}-{node_name}"
                    yield from stg.write_staged_file(
                        hdfs, vnode, model.external_nic, path, payload,
                        nbytes, name=f"v2s-export:{path}",
                        load_map=write_load,
                    )
            telemetry.counter("v2s.staged.segments_exported").inc()
            telemetry.counter("v2s.staged.rows_exported").inc(len(rows))

        def export_all() -> Generator:
            processes = [
                self.cluster.env.process(
                    export_range(i, lo, hi, node), name=f"{job}.seg{i}"
                )
                for i, (lo, hi, node) in enumerate(ranges)
            ]
            yield self.cluster.env.all_of(processes)

        # Register the directory *before* exporting: a failed export must
        # still be reclaimable via cleanup_staging().
        self._staging_dirs.append(export_dir)
        self.cluster.run(export_all(), name=f"v2s-staged-export:{self.opts.table}")
        blocks = []
        for path in sorted(hdfs.fs.list(export_dir + "/")):
            blocks.extend(hdfs.fs.block_locations(path))
        return StagedScanRDD(
            self, blocks, epoch, export_dir, struct, header_bytes
        )

    def cleanup_staging(self) -> List[str]:
        """Delete every staged export this relation has produced.

        Export files are scan-scoped garbage once the job that read them
        finishes; callers (and the chaos invariant checker) rely on this
        leaving the staging FS empty.  Returns the deleted paths.
        """
        hdfs = self.opts.staging_fs
        deleted: List[str] = []
        if hdfs is None:
            return deleted
        for directory in self._staging_dirs:
            for path in hdfs.fs.list(directory + "/"):
                hdfs.fs.delete(path)
                deleted.append(path)
        self._staging_dirs = []
        telemetry.counter("hdfs.staging.exports_cleaned").inc(len(deleted))
        return deleted

    def aggregate_task_sql(
        self,
        epoch: int,
        lo: int,
        hi: int,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        filters: Sequence[Filter],
    ) -> str:
        keys = ", ".join(group_by)
        selection = ", ".join(
            list(group_by) + [spec.to_sql() for spec in aggregates]
        )
        return (
            f"AT EPOCH {epoch} SELECT {selection} FROM {self.opts.table} "
            f"WHERE {self._range_predicate(lo, hi, filters)} GROUP BY {keys}"
        )

    def build_aggregate_scan(
        self,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        filters: Sequence[Filter] = (),
    ) -> Optional[RDD]:
        """Partition-wise partial aggregation: one GROUP BY query per
        hash-range task, all pinned to a single epoch.

        Each task's query aggregates only its own hash range inside
        Vertica, so the wire carries one partial row per group per range
        instead of every raw row.  Views and unsegmented tables
        parallelise with ``SYNTHETIC_HASH()`` ranges like plain scans.
        """
        if not self.opts.agg_pushdown:
            return None
        epoch = self.pin_epoch()
        plan = self.ring.partition_plan(self.opts.num_partitions)
        telemetry.counter("v2s.agg_pushdown.jobs").inc()
        return VerticaAggregateScanRDD(
            self, plan, epoch, list(group_by), list(aggregates), tuple(filters)
        )

    def count(self, filters: Sequence[Filter] = ()) -> Optional[int]:
        """COUNT pushdown: one aggregate query computed inside Vertica."""
        epoch = self.pin_epoch()
        pushed = filters_to_sql(filters)
        where = f" WHERE {pushed}" if pushed else ""
        sql = f"AT EPOCH {epoch} SELECT COUNT(*) FROM {self.opts.table}{where}"

        def thunk(ctx) -> Generator:
            with self.cluster.connect(
                self.opts.host, ctx.node, resource_pool=self.opts.resource_pool,
            ) as connection:
                result = yield from connection.execute(
                    sql, weight=self.opts.scale_factor)
                return result.scalar()

        return self.spark.run_thunks([thunk], name=f"count:{self.opts.table}")[0]


class _HashRangeRDD(RDD):
    """One partition per hash-range task (Figure 4).

    A task runs one query per range of its partition, each on a
    connection to the node that owns the range (locality, §3.1.2: the
    query touches only node-local storage), and concatenates the rows.
    Subclasses say what the query is and what to count about its result.
    """

    #: telemetry span around each range's query
    span = ""

    def __init__(
        self,
        relation: VerticaRelation,
        plan: List[List[Tuple[int, int, str]]],
        epoch: int,
    ):
        super().__init__(relation.spark, len(plan))
        self.relation = relation
        self.plan = plan
        self.epoch = epoch

    def range_sql(self, lo: int, hi: int) -> str:
        raise NotImplementedError

    def observe(self, result: Any) -> None:
        raise NotImplementedError

    def compute(self, split: int, ctx) -> Generator:
        relation = self.relation
        rows: List[Tuple[Any, ...]] = []
        for lo, hi, node in self.plan[split]:
            with relation.cluster.connect(
                node, client_node=ctx.node,
                resource_pool=relation.opts.resource_pool,
            ) as connection:
                sql = self.range_sql(lo, hi)
                with telemetry.span(self.span, task=split, node=node):
                    result = yield from connection.execute(
                        sql, weight=relation.opts.scale_factor
                    )
                self.observe(result)
                rows.extend(result.rows)
        return rows


class VerticaScanRDD(_HashRangeRDD):
    """Plain scan: projection and filters pushed into each range query."""

    span = "v2s.range_query"

    def __init__(
        self,
        relation: VerticaRelation,
        plan: List[List[Tuple[int, int, str]]],
        epoch: int,
        required_columns: Optional[Sequence[str]],
        filters: Sequence[Filter],
    ):
        super().__init__(relation, plan, epoch)
        self.required_columns = list(required_columns) if required_columns else None
        self.filters = tuple(filters)

    def range_sql(self, lo: int, hi: int) -> str:
        return self.relation.task_sql(
            self.epoch, lo, hi, self.required_columns, self.filters
        )

    def observe(self, result: Any) -> None:
        telemetry.counter("v2s.rows_fetched").inc(len(result.rows))


class StagedScanRDD(RDD):
    """One partition per staged-export HDFS block.

    The export already applied projection and filters inside Vertica at
    the pinned epoch, so tasks only move bytes: read the block from a
    live replica and return the block's share of its file's rows.
    """

    def __init__(
        self,
        relation: VerticaRelation,
        blocks: List[Any],
        epoch: int,
        export_dir: str,
        schema: StructType,
        header_bytes: int = 0,
    ):
        super().__init__(relation.spark, max(1, len(blocks)))
        self.relation = relation
        self.blocks = blocks
        self.epoch = epoch
        self.export_dir = export_dir
        self.schema = schema
        self.header_bytes = header_bytes
        #: cache: export file path -> decoded rows
        self._file_rows: Dict[str, List[Tuple[Any, ...]]] = {}
        # Balance block reads across replicas up front (deterministic and
        # independent of task execution order): without this, every task
        # reading its block's first replica hot-spots whichever datanode
        # the placement hash favoured.
        load_map: Dict[str, float] = {}
        hdfs = relation.opts.staging_fs
        self._sources: Dict[str, str] = {
            block.block_id: stg.pick_replica(
                hdfs, block, load_map, float(block.size)
            )
            for block in blocks
        }

    def _rows_of(self, path: str) -> List[Tuple[Any, ...]]:
        if path not in self._file_rows:
            hdfs = self.relation.opts.staging_fs
            __, rows = read_columnar(hdfs.fs.read(path))
            self._file_rows[path] = rows
        return self._file_rows[path]

    def compute(self, split: int, ctx) -> Generator:
        relation = self.relation
        hdfs = relation.opts.staging_fs
        if not self.blocks:
            return []
        block = self.blocks[split]
        live = hdfs.fs.live_replicas(block) or list(block.replicas)
        source_name = self._sources.get(block.block_id)
        if source_name not in live:  # assigned replica's node went down
            source_name = live[0]
        source_node = hdfs.sim_nodes[source_name]
        # The block carries its proportional share of the file's virtual
        # volume (mirrors the export-side charge).
        file_size = hdfs.fs.file_size(block.path)
        virtual_file = relation.cluster.cost_model.virtual_bytes(
            file_size, self.header_bytes, relation.opts.scale_factor
        )
        nbytes = virtual_file * (block.size / file_size) if file_size else 0.0
        with telemetry.span(
            "v2s.staged_read", task=split, block=block.block_id
        ):
            yield hdfs.sim_cluster.network.transfer(
                hdfs.read_route(source_node, ctx.node),
                nbytes,
                name=f"v2s-staged-read:{block.block_id}",
            )
        telemetry.counter("hdfs.staging.files_read").inc()
        telemetry.counter("hdfs.staging.bytes_read").inc(int(nbytes))
        rows = hdfs.block_rows(block, self._rows_of(block.path))
        telemetry.counter("v2s.rows_fetched").inc(len(rows))
        return rows


class VerticaAggregateScanRDD(_HashRangeRDD):
    """One partial-aggregate GROUP BY query per hash-range task.

    Rows are ``(*group keys, *partial aggregates)`` — the driver-side
    combiner in :class:`~repro.spark.dataframe.GroupedData` merges the
    per-range partials for groups that span ranges.
    """

    span = "v2s.agg_query"

    def __init__(
        self,
        relation: VerticaRelation,
        plan: List[List[Tuple[int, int, str]]],
        epoch: int,
        group_by: List[str],
        aggregates: List[AggregateSpec],
        filters: Tuple[Filter, ...],
    ):
        super().__init__(relation, plan, epoch)
        self.group_by = group_by
        self.aggregates = aggregates
        self.filters = filters

    def range_sql(self, lo: int, hi: int) -> str:
        return self.relation.aggregate_task_sql(
            self.epoch, lo, hi, self.group_by, self.aggregates, self.filters
        )

    def observe(self, result: Any) -> None:
        fetched = len(result.rows)
        aggregated = result.cost.rows_aggregated
        telemetry.counter("v2s.agg_pushdown.queries").inc()
        telemetry.counter("v2s.agg_pushdown.partial_rows").inc(fetched)
        telemetry.counter("v2s.agg_pushdown.rows_aggregated").inc(aggregated)
        if aggregated > fetched:
            # raw rows the wire did NOT carry thanks to pushdown
            telemetry.counter("v2s.agg_pushdown.rows_saved").inc(
                aggregated - fetched
            )
