"""Spark's External Data Source API (the interface the connector implements).

Mirrors Spark 1.x `sources`:

- :class:`RelationProvider` — implements ``load``: given options, return a
  :class:`BaseRelation`;
- :class:`CreatableRelationProvider` — implements ``save``: given a
  DataFrame, a save mode and options, persist it;
- :class:`BaseRelation` — a named scan with schema, supporting column
  pruning and filter pushdown (``build_scan``), and optionally count
  and partial-aggregate pushdown (``count``, ``build_aggregate_scan``
  with :class:`AggregateSpec`).

Filters are the closed set of predicate shapes Spark pushes to sources;
anything else is evaluated Spark-side as a residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.spark.errors import AnalysisError, SparkError
from repro.spark.row import StructType


# -- pushdown filters ---------------------------------------------------------
@dataclass(frozen=True)
class Filter:
    """Base pushdown filter."""

    attribute: str

    def evaluate(self, value: Any) -> bool:
        raise NotImplementedError

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class EqualTo(Filter):
    value: Any

    def evaluate(self, value: Any) -> bool:
        return value is not None and value == self.value

    def to_sql(self) -> str:
        return f"{self.attribute} = {_sql_literal(self.value)}"


@dataclass(frozen=True)
class GreaterThan(Filter):
    value: Any

    def evaluate(self, value: Any) -> bool:
        return value is not None and value > self.value

    def to_sql(self) -> str:
        return f"{self.attribute} > {_sql_literal(self.value)}"


@dataclass(frozen=True)
class GreaterThanOrEqual(Filter):
    value: Any

    def evaluate(self, value: Any) -> bool:
        return value is not None and value >= self.value

    def to_sql(self) -> str:
        return f"{self.attribute} >= {_sql_literal(self.value)}"


@dataclass(frozen=True)
class LessThan(Filter):
    value: Any

    def evaluate(self, value: Any) -> bool:
        return value is not None and value < self.value

    def to_sql(self) -> str:
        return f"{self.attribute} < {_sql_literal(self.value)}"


@dataclass(frozen=True)
class LessThanOrEqual(Filter):
    value: Any

    def evaluate(self, value: Any) -> bool:
        return value is not None and value <= self.value

    def to_sql(self) -> str:
        return f"{self.attribute} <= {_sql_literal(self.value)}"


@dataclass(frozen=True)
class In(Filter):
    values: Tuple[Any, ...]

    def evaluate(self, value: Any) -> bool:
        return value is not None and value in self.values

    def to_sql(self) -> str:
        if not self.values:
            # `col IN ()` is a syntax error in Vertica; an empty IN-list
            # matches nothing, which SQL spells FALSE.
            return "FALSE"
        inner = ", ".join(_sql_literal(v) for v in self.values)
        return f"{self.attribute} IN ({inner})"


@dataclass(frozen=True)
class IsNull(Filter):
    def evaluate(self, value: Any) -> bool:
        return value is None

    def to_sql(self) -> str:
        return f"{self.attribute} IS NULL"


@dataclass(frozen=True)
class IsNotNull(Filter):
    def evaluate(self, value: Any) -> bool:
        return value is not None

    def to_sql(self) -> str:
        return f"{self.attribute} IS NOT NULL"


def _sql_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float) and math.isinf(value):
        # an overflowing literal: the engine's lexer reads it back as ±inf
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


def _pushable(f: Filter) -> bool:
    values = f.values if isinstance(f, In) else (getattr(f, "value", None),)
    return not any(isinstance(v, float) and math.isnan(v) for v in values)


def unpushable(filters: Sequence[Filter]) -> List[Filter]:
    """The filters SQL cannot state: NaN has no literal.  A SQL source
    returns them from ``unhandled_filters`` and Spark evaluates them."""
    return [f for f in filters if not _pushable(f)]


def filters_to_sql(filters: Sequence[Filter]) -> str:
    """AND-join the pushable filters into a SQL predicate ('' when none).

    The :func:`unpushable` ones are left out: the source reports them as
    unhandled, so Spark applies them to what the scan returns.
    """
    return " AND ".join(f.to_sql() for f in filters if _pushable(f))


def apply_filters(filters: Sequence[Filter], schema: StructType,
                  rows: Sequence[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """Evaluate filters Spark-side (used for residuals and testing)."""
    if not filters:
        return list(rows)
    indexed = [(schema.index_of(f.attribute), f) for f in filters]
    return [
        row
        for row in rows
        if all(f.evaluate(row[index]) for index, f in indexed)
    ]


# -- aggregate pushdown -------------------------------------------------------
#: partial-aggregate functions a source may be asked to compute; ``avg``
#: never appears here — the planner decomposes it into SUM + COUNT
#: partials and the driver-side combiner finishes the division
PARTIAL_AGGREGATES = ("count", "sum", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One partial aggregate a source computes per partition.

    ``column`` of ``None`` means ``COUNT(*)``.  Partial results from
    different partitions of the same group are merged by the driver-side
    combiner (counts add, sums add NULL-aware, min/max compare
    NULL-aware), so a source may evaluate the spec independently per
    hash range.
    """

    function: str
    column: Optional[str] = None

    def __post_init__(self) -> None:
        if self.function not in PARTIAL_AGGREGATES:
            raise AnalysisError(
                f"non-partial aggregate {self.function!r}; "
                f"known: {PARTIAL_AGGREGATES}"
            )
        if self.column is None and self.function != "count":
            raise AnalysisError(f"{self.function}(*) is not valid")

    def to_sql(self) -> str:
        if self.column is None:
            return "COUNT(*)"
        return f"{self.function.upper()}({self.column})"


# -- relations and providers ------------------------------------------------------
class BaseRelation:
    """A scannable external relation with pruning/pushdown support."""

    @property
    def schema(self) -> StructType:
        raise NotImplementedError

    def build_scan(
        self,
        required_columns: Optional[Sequence[str]] = None,
        filters: Sequence[Filter] = (),
    ) -> "RDD":  # noqa: F821
        """Return an RDD of tuples for the (pruned, filtered) scan."""
        raise NotImplementedError

    def count(self, filters: Sequence[Filter] = ()) -> Optional[int]:
        """Pushdown count; None means 'not supported, scan instead'."""
        return None

    def build_aggregate_scan(
        self,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        filters: Sequence[Filter] = (),
    ) -> Optional["RDD"]:  # noqa: F821
        """Partition-wise partial aggregation pushdown.

        Return an RDD whose rows are ``(*group_by values, *partial
        aggregate values)`` — one partial row per group *per partition*,
        merged by the caller — or None to decline (the caller falls back
        to scanning raw rows and aggregating Spark-side).  Only called
        when :meth:`unhandled_filters` is empty for ``filters``, since a
        residual filter would have to run before the aggregation.
        """
        return None

    def unhandled_filters(self, filters: Sequence[Filter]) -> List[Filter]:
        """Filters the source cannot evaluate (re-checked Spark-side)."""
        return []


class RelationProvider:
    """Implements LOAD for one format name."""

    def create_relation(self, session: "SparkSession", options: Dict[str, Any]) -> BaseRelation:  # noqa: F821
        raise NotImplementedError


class CreatableRelationProvider:
    """Implements SAVE for one format name."""

    def save(
        self,
        session: "SparkSession",  # noqa: F821
        mode: str,
        options: Dict[str, Any],
        dataframe: "DataFrame",  # noqa: F821
    ) -> None:
        raise NotImplementedError


SAVE_MODES = ("overwrite", "append", "errorifexists", "ignore")

_REGISTRY: Dict[str, Any] = {}


def register_source(name: str, provider: Any, replace: bool = True) -> None:
    """Register a DefaultSource class/instance under a format name."""
    if name in _REGISTRY and not replace:
        raise SparkError(f"source {name!r} already registered")
    _REGISTRY[name] = provider


def source_registry() -> Dict[str, Any]:
    return dict(_REGISTRY)


def lookup_source(name: str) -> Any:
    try:
        provider = _REGISTRY[name]
    except KeyError:
        raise AnalysisError(
            f"unknown data source format {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return provider() if isinstance(provider, type) else provider
