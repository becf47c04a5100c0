"""Table and column statistics for the cost-based optimizer.

Statistics are collected by a full scan of the committed data, and only
by ``ANALYZE``, which bumps the catalog version: nothing a load, a
rollback, a mergeout or an executed query does moves them, so a plan is
a function of its statement, the catalog version and the session's
settings.  They feed the optimizer's cardinality estimates: scan output
rows, filter selectivities, and join output sizes (which pick the join
order; a hash join builds on whichever input it holds fewer rows of).

The numbers are advisory and go stale as data changes until the next
``ANALYZE``.  Correctness never depends on them -- only plan choice does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

DEFAULT_BUCKETS = 16

_NUMERIC_TYPES = (int, float)


def _is_numeric(value: Any) -> bool:
    return isinstance(value, _NUMERIC_TYPES) and not isinstance(value, bool)


def _ordered(values: List[Any]) -> List[Any]:
    """``values`` without NaN, which has no place in an order: it would make
    ``min``/``max`` depend on where it sits and fits no histogram bucket."""
    return [value for value in values if value == value]


@dataclass
class HistogramBucket:
    """One equi-width bucket over ``[lo, hi)`` (last bucket is inclusive)."""

    lo: float
    hi: float
    count: int = 0


@dataclass
class ColumnStats:
    """Statistics for one column of one table."""

    column: str
    row_count: int = 0
    null_count: int = 0
    ndv: int = 0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    histogram: List[HistogramBucket] = field(default_factory=list)

    @property
    def null_fraction(self) -> float:
        if self.row_count <= 0:
            return 0.0
        return self.null_count / self.row_count

    # -- selectivity ---------------------------------------------------------------

    def equality_selectivity(self) -> float:
        if self.ndv <= 0:
            return 0.1
        return min(1.0, 1.0 / self.ndv)

    def range_selectivity(self, op: str, value: Any) -> float:
        """Estimated fraction of rows satisfying ``column <op> value``."""
        fraction = self._histogram_fraction(op, value)
        if fraction is not None:
            return fraction
        return 1.0 / 3.0

    def _histogram_fraction(self, op: str, value: Any) -> Optional[float]:
        if not self.histogram or not _is_numeric(value):
            return None
        total = sum(bucket.count for bucket in self.histogram)
        if total <= 0:
            return None
        below = 0.0  # estimated rows strictly below ``value``
        for bucket in self.histogram:
            if value >= bucket.hi:
                below += bucket.count
            elif value > bucket.lo:
                width = bucket.hi - bucket.lo
                if width > 0:
                    below += bucket.count * (value - bucket.lo) / width
        fraction_below = below / total
        if op in ("<", "<="):
            return min(1.0, fraction_below)
        if op in (">", ">="):
            return min(1.0, max(0.0, 1.0 - fraction_below))
        return None


@dataclass
class TableStats:
    """Statistics for one table, keyed into ``Catalog.statistics``."""

    table: str
    row_count: int = 0
    collected_epoch: int = 0
    buckets: int = DEFAULT_BUCKETS
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.upper())


def _build_histogram(
    values: List[Any], buckets: int
) -> List[HistogramBucket]:
    # an infinite bound would make every bucket infinitely wide
    numeric = [float(v) for v in values if _is_numeric(v) and math.isfinite(v)]
    if len(numeric) < 2 or buckets <= 0:
        return []
    lo, hi = min(numeric), max(numeric)
    if lo == hi:
        return [HistogramBucket(lo=lo, hi=hi, count=len(numeric))]
    width = (hi - lo) / buckets
    out = [
        HistogramBucket(lo=lo + i * width, hi=lo + (i + 1) * width)
        for i in range(buckets)
    ]
    for v in numeric:
        index = int((v - lo) / width)
        if index >= buckets:  # v == hi lands in the last (inclusive) bucket
            index = buckets - 1
        out[index].count += 1
    return out


def _column_stats(
    name: str, values: List[Any], buckets: int
) -> ColumnStats:
    non_null = [v for v in values if v is not None]
    comparable = _ordered(non_null)  # a NaN is a row, but no value to compare
    stats = ColumnStats(
        column=name,
        row_count=len(values),
        null_count=len(values) - len(non_null),
        ndv=len(set(comparable)),
    )
    if comparable:
        try:
            stats.min_value = min(comparable)
            stats.max_value = max(comparable)
        except TypeError:
            pass  # heterogeneous values; leave bounds unknown
        stats.histogram = _build_histogram(comparable, buckets)
    return stats


def collect_table_stats(
    database: Any, table_name: str, buckets: int = DEFAULT_BUCKETS
) -> TableStats:
    """Full-scan statistics collection for one table (the ANALYZE path).

    Reads committed rows at the current epoch from the initiator's view of
    the cluster; does not charge any query cost.
    """
    table = database.catalog.table(table_name)
    snapshot = database.epochs.current
    column_names: List[str] = list(table.column_names())
    values: Dict[str, List[Any]] = {name: [] for name in column_names}
    row_count = 0
    for chunk in database.engine.scan(
        table.name,
        snapshot,
        txn=None,
        initiator=database.node_names[0],
        cost=None,
        columns=column_names,
    ):
        row_count += chunk.num_rows
        for name, column in zip(column_names, chunk.columns):
            values[name].extend(column)
    stats = TableStats(
        table=table.name,
        row_count=row_count,
        collected_epoch=snapshot,
        buckets=buckets,
        columns={
            name: _column_stats(name, values[name], buckets)
            for name in column_names
        },
    )
    return stats

