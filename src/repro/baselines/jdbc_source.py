"""Spark's JDBC Default Source (the §4.7.1 baseline), faithfully limited.

Compared with the connector, this source reproduces the baseline's
documented shortcomings:

- **Load** parallelism requires the source table to have an integer
  column whose name, ``lowerbound`` and ``upperbound`` the user supplies;
  without them it falls back to a single partition.  Range queries are
  *value* ranges, not hash ranges, so the rows a task asks for are
  scattered across all Vertica nodes — every query induces intra-Vertica
  shuffle traffic.  And every connection goes through the single ``host``
  node ("it does not distribute the queries evenly across all nodes").
  There is no epoch pinning: tasks running at different times can see
  different versions of the table.
- **Save** issues batches of INSERT statements per partition.  Each
  partition commits independently — a failed/restarted task can leave the
  target partially loaded or duplicated, which
  ``tests/test_baseline_jdbc.py`` demonstrates.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.spark.datasource import (
    BaseRelation,
    CreatableRelationProvider,
    Filter,
    RelationProvider,
    filters_to_sql,
    register_source,
    unpushable,
)
from repro.spark.errors import AnalysisError
from repro.spark.rdd import RDD, materialize
from repro.spark.row import StructType
from repro.vertica.types import parse_type

#: rows per INSERT round trip.  Spark 1.x's JDBC writer issued one
#: executeUpdate per row (batching arrived in 2.x), which is what makes
#: the paper's 1M-row save take ">3 hours".
INSERT_BATCH_ROWS = 1


class JdbcRelation(BaseRelation):
    """A JDBC table scan partitioned over an integer column's value range."""

    def __init__(self, spark, options: Dict[str, Any]):
        self.spark = spark
        try:
            self.cluster = options["db"]
            self.table = options["table"].upper()
        except KeyError as exc:
            raise AnalysisError(f"jdbc source requires option {exc}") from None
        self.host = options.get("host") or self.cluster.node_names[0]
        self.partition_column = options.get("partitioncolumn", "").upper()
        self.lower_bound = options.get("lowerbound")
        self.upper_bound = options.get("upperbound")
        self.num_partitions = int(options.get("numpartitions", 1))
        self.scale_factor = float(options.get("scale_factor", 1.0))
        if self.partition_column and (
            self.lower_bound is None or self.upper_bound is None
        ):
            raise AnalysisError(
                "jdbc partitioning requires partitioncolumn, lowerbound "
                "and upperbound together"
            )
        self._schema = self._discover_schema()

    def _discover_schema(self) -> StructType:
        with self.cluster.db.connect(self.host) as session:
            rows = session.execute(
                "SELECT column_name, data_type FROM v_catalog.columns "
                f"WHERE table_name = '{self.table}' ORDER BY ordinal_position"
            ).rows
            return StructType.from_sql_types(
                [(name, parse_type(type_name)) for name, type_name in rows]
            )

    @property
    def schema(self) -> StructType:
        return self._schema

    def unhandled_filters(self, filters: Sequence[Filter]) -> List[Filter]:
        return unpushable(filters)

    def _bounds(self) -> List[Tuple[Optional[int], Optional[int]]]:
        """Value-range bounds per partition (None = unbounded side)."""
        if not self.partition_column or self.num_partitions <= 1:
            return [(None, None)]
        lo = int(self.lower_bound)
        hi = int(self.upper_bound)
        span = max(1, hi - lo)
        step = span / self.num_partitions
        bounds: List[Tuple[Optional[int], Optional[int]]] = []
        for index in range(self.num_partitions):
            lower = None if index == 0 else lo + round(step * index)
            upper = (
                None
                if index == self.num_partitions - 1
                else lo + round(step * (index + 1))
            )
            bounds.append((lower, upper))
        return bounds

    def build_scan(
        self,
        required_columns: Optional[Sequence[str]] = None,
        filters: Sequence[Filter] = (),
    ) -> RDD:
        return JdbcScanRDD(self, self._bounds(), required_columns, filters)

    def task_sql(
        self,
        lower: Optional[int],
        upper: Optional[int],
        required_columns: Optional[Sequence[str]],
        filters: Sequence[Filter],
    ) -> str:
        columns = ", ".join(required_columns) if required_columns else "*"
        predicates = []
        if lower is not None:
            predicates.append(f"{self.partition_column} >= {lower}")
        if upper is not None:
            predicates.append(f"{self.partition_column} < {upper}")
        pushed = filters_to_sql(filters)
        if pushed:
            predicates.append(pushed)
        where = f" WHERE {' AND '.join(predicates)}" if predicates else ""
        return f"SELECT {columns} FROM {self.table}{where}"


class JdbcScanRDD(RDD):
    def __init__(self, relation, bounds, required_columns, filters):
        super().__init__(relation.spark, len(bounds))
        self.relation = relation
        self.bounds = bounds
        self.required_columns = (
            list(required_columns) if required_columns else None
        )
        self.filters = tuple(filters)

    def compute(self, split: int, ctx) -> Generator:
        relation = self.relation
        lower, upper = self.bounds[split]
        # Every connection goes through the single configured host node.
        with relation.cluster.connect(
            relation.host, client_node=ctx.node
        ) as connection:
            sql = relation.task_sql(lower, upper, self.required_columns, self.filters)
            result = yield from connection.execute(
                sql, weight=relation.scale_factor
            )
            return result.rows


class JdbcDefaultSource(RelationProvider, CreatableRelationProvider):
    """Registered as ``jdbc`` — load and save without exactly-once."""

    def create_relation(self, spark, options: Dict[str, Any]) -> JdbcRelation:
        return JdbcRelation(spark, options)

    def save(self, spark, mode: str, options: Dict[str, Any], dataframe) -> None:
        cluster = options["db"]
        table = options["table"].upper()
        host = options.get("host") or cluster.node_names[0]
        scale = float(options.get("scale_factor", 1.0))
        batch_rows = int(options.get("batchsize", INSERT_BATCH_ROWS))
        num_partitions = int(
            options.get("numpartitions", dataframe.num_partitions)
        )
        schema = dataframe.schema

        # Create the target up front (overwrite drops, append requires it),
        # with none of S2V's staging machinery.
        with cluster.db.connect(host) as session:
            exists = cluster.db.catalog.has_table(table)
            if mode == "overwrite" and exists:
                session.execute(f"DROP TABLE {table}")
                exists = False
            if mode == "errorifexists" and exists:
                raise AnalysisError(f"table {table!r} already exists")
            if not exists:
                session.execute(
                    schema.create_table_sql(table, segmented_by=[schema.fields[0].name])
                )

        rdd = dataframe.rdd()
        if rdd.num_partitions != num_partitions:
            rdd = rdd.coalesce(num_partitions) if num_partitions < rdd.num_partitions else rdd.repartition(num_partitions)

        def make_task(split: int):
            def thunk(ctx) -> Generator:
                rows = yield from materialize(rdd, split, ctx)
                with cluster.connect(host, client_node=ctx.node) as connection:
                    total = 0
                    for start in range(0, len(rows), batch_rows):
                        chunk = rows[start : start + batch_rows]
                        values = ", ".join(
                            "(" + ", ".join(_literal(v) for v in row) + ")"
                            for row in chunk
                        )
                        ctx.probe("jdbc:before_insert_batch")
                        result = yield from connection.execute(
                            f"INSERT INTO {table} VALUES {values}"
                        )
                        # Each batch is a separate round trip; at virtual
                        # scale every real row stands for `scale` statements'
                        # worth of latency.
                        model = cluster.cost_model
                        extra = model.query_latency * (scale - 1.0)
                        if extra > 0:
                            yield cluster.env.timeout(
                                extra * (len(chunk) / batch_rows)
                            )
                        total += result.rowcount
                    # Independent per-partition commit (autocommit already
                    # applied per statement) — no global coordination.
                    return total

            return thunk

        thunks = [make_task(i) for i in range(rdd.num_partitions)]
        spark.run_thunks(thunks, name=f"jdbc-save:{table}")


def _literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


register_source("jdbc", JdbcDefaultSource)
