"""DataFrames: schema'd RDDs with the reader/writer API.

A DataFrame is a thin logical plan over either an in-memory RDD or an
external :class:`~repro.spark.datasource.BaseRelation`.  When the
DataFrame wraps a relation directly, ``select``/``filter``/``count`` are
*pushed down* into the source (column pruning, pushdown filters, count
pushdown — the optimisations §3.1.1 of the paper relies on); once any
non-pushable operation intervenes, evaluation falls back to Spark-side
row processing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.spark.datasource import (
    AggregateSpec,
    BaseRelation,
    Filter,
    SAVE_MODES,
    apply_filters,
    lookup_source,
)
from repro.ordering import null_last_key
from repro.spark.errors import AnalysisError
from repro.spark.rdd import RDD
from repro.spark.row import StructField, StructType


class DataFrame:
    """An immutable, lazily-evaluated table of tuples."""

    def __init__(
        self,
        session: "SparkSession",  # noqa: F821
        schema: StructType,
        rdd: Optional[RDD] = None,
        relation: Optional[BaseRelation] = None,
        pushed_filters: Tuple[Filter, ...] = (),
        projected: Optional[Tuple[str, ...]] = None,
        num_partitions: Optional[int] = None,
    ):
        if (rdd is None) == (relation is None):
            raise AnalysisError("a DataFrame wraps exactly one of rdd / relation")
        self.session = session
        self.schema = schema
        self._rdd = rdd
        self._relation = relation
        self._pushed_filters = pushed_filters
        self._projected = projected
        self._num_partitions = num_partitions

    # -- plan info -------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return self.schema.names

    @property
    def is_relation_backed(self) -> bool:
        return self._relation is not None

    @property
    def pushed_filters(self) -> Tuple[Filter, ...]:
        return self._pushed_filters

    def __repr__(self) -> str:
        return f"DataFrame({self.schema!r})"

    # -- transformations ----------------------------------------------------------
    def select(self, *names: str) -> "DataFrame":
        """Column pruning; pushed into the relation when possible."""
        wanted = [self.schema.field(n).name for n in names]
        new_schema = self.schema.select(wanted)
        if self._relation is not None:
            return DataFrame(
                self.session,
                new_schema,
                relation=self._relation,
                pushed_filters=self._pushed_filters,
                projected=tuple(wanted),
                num_partitions=self._num_partitions,
            )
        indices = [self.schema.index_of(n) for n in wanted]
        rdd = self._rdd.map(lambda row: tuple(row[i] for i in indices))
        return DataFrame(self.session, new_schema, rdd=rdd)

    def filter(self, condition: Union[Filter, Callable[[Tuple], bool]]) -> "DataFrame":
        """Filter rows; :class:`Filter` conditions are pushed down."""
        if isinstance(condition, Filter):
            self.schema.field(condition.attribute)  # validate column
            if self._relation is not None:
                return DataFrame(
                    self.session,
                    self.schema,
                    relation=self._relation,
                    pushed_filters=self._pushed_filters + (condition,),
                    projected=self._projected,
                    num_partitions=self._num_partitions,
                )
            index = self.schema.index_of(condition.attribute)
            rdd = self._rdd.filter(lambda row: condition.evaluate(row[index]))
            return DataFrame(self.session, self.schema, rdd=rdd)
        if not callable(condition):
            raise AnalysisError("filter requires a Filter or a callable")
        return DataFrame(self.session, self.schema, rdd=self.rdd().filter(condition))

    where = filter

    def repartition(self, num_partitions: int) -> "DataFrame":
        return DataFrame(
            self.session, self.schema, rdd=self.rdd().repartition(num_partitions)
        )

    def coalesce(self, num_partitions: int) -> "DataFrame":
        return DataFrame(
            self.session, self.schema, rdd=self.rdd().coalesce(num_partitions)
        )

    def cache(self) -> "DataFrame":
        """Persist computed partitions in executor block managers.

        Materialises the physical plan (including any relation pushdown)
        and wraps it in a :class:`~repro.spark.rdd.CachedRDD`: the first
        job stores each partition as a columnar block on the executor
        that computed it; later jobs reuse the blocks instead of re-reading
        the source.  Shark-style — byte-accounted, LRU-evicted, recomputed
        from lineage after an executor crash.
        """
        return DataFrame(self.session, self.schema, rdd=self.rdd().cache())

    def unpersist(self) -> "DataFrame":
        """Drop this frame's cached blocks (no-op if never cached)."""
        if self._rdd is not None and hasattr(self._rdd, "unpersist"):
            self._rdd.unpersist()
        return self

    # -- physical plan ------------------------------------------------------------
    def rdd(self) -> RDD:
        """The underlying RDD (materialising relation pushdowns)."""
        if self._rdd is not None:
            return self._rdd
        assert self._relation is not None
        residual = self._relation.unhandled_filters(self._pushed_filters)
        source = self._relation.schema
        read = self._projected
        if residual and read is not None:
            # A residual filter reads its column even where the projection
            # drops it: scan that column too, filter, then project.
            read = tuple(dict.fromkeys(
                read + tuple(source.field(f.attribute).name for f in residual)
            ))
        scan = self._relation.build_scan(
            required_columns=read, filters=self._pushed_filters
        )
        if residual:
            schema = self.schema if read is None else source.select(list(read))
            rows_filter = lambda row: bool(  # noqa: E731
                apply_filters(residual, schema, [row])
            )
            scan = scan.filter(rows_filter)
            if read != self._projected:
                width = len(self._projected)
                scan = scan.map(lambda row: row[:width])
        return scan

    @property
    def num_partitions(self) -> int:
        if self._rdd is not None:
            return self._rdd.num_partitions
        return self._num_partitions or self.session.default_parallelism

    # -- actions -----------------------------------------------------------------
    def collect(self) -> List[Tuple[Any, ...]]:
        return self.rdd().collect()

    def take(self, n: int) -> List[Tuple[Any, ...]]:
        return self.rdd().take(n)

    def count(self) -> int:
        """Row count, pushed down into the relation when supported.

        Pushdown requires every filter to be handled by the source: a
        residual filter is re-evaluated Spark-side *after* the scan, so
        a count the source computes alone would include rows the
        residual rejects.
        """
        if (
            self._relation is not None
            and self._projected is None
            and not self._relation.unhandled_filters(self._pushed_filters)
        ):
            pushed = self._relation.count(self._pushed_filters)
            if pushed is not None:
                return pushed
        return self.rdd().count()

    def show(self, n: int = 20) -> str:
        """Render the first ``n`` rows as a text table (returns the text)."""
        rows = self.take(n)
        header = " | ".join(self.columns)
        sep = "-" * len(header)
        body = "\n".join(" | ".join(str(v) for v in row) for row in rows)
        text = f"{header}\n{sep}\n{body}"
        return text

    # -- relational extras ------------------------------------------------------
    def union(self, other: "DataFrame") -> "DataFrame":
        if other.schema != self.schema:
            raise AnalysisError(
                f"union requires matching schemas: {self.schema} vs {other.schema}"
            )
        return DataFrame(self.session, self.schema,
                         rdd=self.rdd().union(other.rdd()))

    def order_by(self, *names: str, descending: bool = False) -> "DataFrame":
        """Globally sort the rows (driver-side, like a final collect sort).

        NULLs sort last in both directions, matching the engine's
        ``ORDER BY`` — only the value ordering reverses, never the null
        rank.
        """
        indices = [self.schema.index_of(n) for n in names]
        rows = sorted(
            self.collect(),
            key=lambda row: tuple(
                null_last_key(row[i], descending) for i in indices
            ),
        )
        return DataFrame(self.session, self.schema,
                         rdd=self.session.parallelize(rows, self.num_partitions))

    def group_by(self, *names: str) -> "GroupedData":
        """Group rows by columns, then :meth:`GroupedData.agg`."""
        if not names:
            raise AnalysisError("group_by requires at least one column")
        return GroupedData(self, [self.schema.field(n).name for n in names])

    # -- writer ---------------------------------------------------------------------
    @property
    def write(self) -> "DataFrameWriter":
        return DataFrameWriter(self)


_AGGREGATES = {
    "count": lambda values: sum(1 for v in values if v is not None),
    "sum": lambda values: _null_or(sum, values),
    "avg": lambda values: _null_or(
        lambda vs: sum(vs) / len(vs), values
    ),
    "min": lambda values: _null_or(min, values),
    "max": lambda values: _null_or(max, values),
}


def _null_or(fn, values):
    present = [v for v in values if v is not None]
    return fn(present) if present else None


def _merge_nullable(fn):
    def merge(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return fn(a, b)
    return merge


#: how two partitions' partial values for one group combine, per
#: partial-aggregate function (counts are never NULL; the rest skip NULLs
#: like the aggregates themselves do)
_PARTIAL_MERGE = {
    "count": lambda a, b: a + b,
    "sum": _merge_nullable(lambda a, b: a + b),
    "min": _merge_nullable(min),
    "max": _merge_nullable(max),
}


class GroupedData:
    """The result of :meth:`DataFrame.group_by`, awaiting aggregations."""

    def __init__(self, dataframe: DataFrame, keys: List[str]):
        self.dataframe = dataframe
        self.keys = keys

    def count(self) -> DataFrame:
        return self.agg(("*", "count"))

    def agg(self, *specs: Tuple[str, str]) -> DataFrame:
        """Aggregate with (column, function) pairs.

        Functions: count, sum, avg, min, max.  ``("*", "count")`` counts
        rows.  Output columns are named ``<fn>_<column>``.

        Relation-backed frames push the aggregation into the source as
        partition-wise partial aggregates (``avg`` decomposed into SUM +
        COUNT) merged by a driver-side combiner; anything the source
        declines — or any residual filter — falls back to collecting raw
        rows and aggregating Spark-side.
        """
        from repro.spark.row import StructField, StructType

        schema = self.dataframe.schema
        key_indices = [schema.index_of(k) for k in self.keys]
        plans = []
        out_fields = [schema.field(k) for k in self.keys]
        for column, function in specs:
            fn_name = function.lower()
            if fn_name not in _AGGREGATES:
                raise AnalysisError(
                    f"unknown aggregate {function!r}; "
                    f"known: {sorted(_AGGREGATES)}"
                )
            if column == "*":
                if fn_name != "count":
                    raise AnalysisError(f"{function}(*) is not valid")
                plans.append((None, fn_name))
                out_fields.append(StructField("count_all", "long"))
            else:
                index = schema.index_of(column)
                plans.append((index, fn_name))
                source = schema.field(column)
                data_type = (
                    "long" if fn_name == "count"
                    else "double" if fn_name == "avg"
                    else source.data_type
                )
                out_fields.append(
                    StructField(f"{fn_name}_{source.name}", data_type)
                )
        out_schema = StructType(out_fields)

        pushed = self._pushdown(plans, out_schema)
        if pushed is not None:
            return pushed

        groups: Dict[Tuple, List[Tuple]] = {}
        for row in self.dataframe.collect():
            groups.setdefault(tuple(row[i] for i in key_indices), []).append(row)
        out_rows = []
        for key, members in groups.items():
            values = list(key)
            for index, fn_name in plans:
                if index is None:
                    values.append(len(members))
                else:
                    values.append(
                        _AGGREGATES[fn_name]([m[index] for m in members])
                    )
            out_rows.append(tuple(values))
        return DataFrame(
            self.dataframe.session,
            out_schema,
            rdd=self.dataframe.session.parallelize(out_rows, 1),
        )

    def _pushdown(
        self, plans: List[Tuple[Optional[int], str]], out_schema: "StructType"
    ) -> Optional[DataFrame]:
        """Try partial-aggregation pushdown; None means fall back.

        Compiles the logical aggregates into the minimal set of partial
        :class:`AggregateSpec` slots (``avg`` needs a SUM and a COUNT
        partial; duplicates share one slot), asks the relation for a
        partial-aggregate scan, then merges the per-partition partial
        rows group-wise and finishes each output column.
        """
        df = self.dataframe
        relation = df._relation
        if relation is None:
            return None
        if relation.unhandled_filters(df._pushed_filters):
            # a residual filter must run before aggregation — not pushable
            return None
        schema = df.schema

        partials: List[AggregateSpec] = []
        slots: Dict[AggregateSpec, int] = {}

        def slot(spec: AggregateSpec) -> int:
            if spec not in slots:
                slots[spec] = len(partials)
                partials.append(spec)
            return slots[spec]

        finishers = []  # map merged partial values -> one output value
        for index, fn_name in plans:
            column = None if index is None else schema.fields[index].name
            if fn_name == "avg":
                sum_at = slot(AggregateSpec("sum", column))
                count_at = slot(AggregateSpec("count", column))
                finishers.append(
                    lambda p, s=sum_at, c=count_at: (
                        p[s] / p[c] if p[c] else None
                    )
                )
            else:
                at = slot(AggregateSpec(fn_name, column))
                finishers.append(lambda p, a=at: p[a])

        scan = relation.build_aggregate_scan(
            list(self.keys), partials, df._pushed_filters
        )
        if scan is None:
            return None

        nkeys = len(self.keys)
        merged: Dict[Tuple, List[Any]] = {}
        for row in scan.collect():
            key = tuple(row[:nkeys])
            values = list(row[nkeys:])
            state = merged.get(key)
            if state is None:
                merged[key] = values
            else:
                for i, spec in enumerate(partials):
                    state[i] = _PARTIAL_MERGE[spec.function](state[i], values[i])
        out_rows = [
            tuple(key) + tuple(finish(state) for finish in finishers)
            for key, state in merged.items()
        ]
        return DataFrame(
            df.session,
            out_schema,
            rdd=df.session.parallelize(out_rows, 1),
        )


class DataFrameReader:
    """``spark.read.format(...).options(...).load()``."""

    def __init__(self, session: "SparkSession"):  # noqa: F821
        self.session = session
        self._format: Optional[str] = None
        self._options: Dict[str, Any] = {}

    def format(self, name: str) -> "DataFrameReader":
        self._format = name
        return self

    def option(self, key: str, value: Any) -> "DataFrameReader":
        self._options[key] = value
        return self

    def options(self, mapping: Optional[Dict[str, Any]] = None, **kwargs: Any) -> "DataFrameReader":
        if mapping:
            self._options.update(mapping)
        self._options.update(kwargs)
        return self

    def load(self) -> DataFrame:
        if self._format is None:
            raise AnalysisError("reader requires .format(<source name>)")
        provider = lookup_source(self._format)
        relation = provider.create_relation(self.session, dict(self._options))
        num_partitions = self._options.get("numpartitions")
        return DataFrame(
            self.session,
            relation.schema,
            relation=relation,
            num_partitions=int(num_partitions) if num_partitions else None,
        )


class DataFrameWriter:
    """``df.write.format(...).options(...).mode(...).save()``."""

    def __init__(self, dataframe: DataFrame):
        self.dataframe = dataframe
        self._format: Optional[str] = None
        self._options: Dict[str, Any] = {}
        self._mode = "errorifexists"

    def format(self, name: str) -> "DataFrameWriter":
        self._format = name
        return self

    def option(self, key: str, value: Any) -> "DataFrameWriter":
        self._options[key] = value
        return self

    def options(self, mapping: Optional[Dict[str, Any]] = None, **kwargs: Any) -> "DataFrameWriter":
        if mapping:
            self._options.update(mapping)
        self._options.update(kwargs)
        return self

    def mode(self, save_mode: str) -> "DataFrameWriter":
        normalized = save_mode.lower()
        if normalized not in SAVE_MODES:
            raise AnalysisError(
                f"unknown save mode {save_mode!r}; expected one of {SAVE_MODES}"
            )
        self._mode = normalized
        return self

    def save(self) -> None:
        if self._format is None:
            raise AnalysisError("writer requires .format(<source name>)")
        provider = lookup_source(self._format)
        provider.save(
            self.dataframe.session, self._mode, dict(self._options), self.dataframe
        )
