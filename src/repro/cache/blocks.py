"""Per-executor columnar block store (Shark-style RDD caching).

A :class:`BlockManager` holds materialized RDD partitions as
:class:`ColumnBlock` objects under a byte budget with LRU eviction.
Uniform tuple rows are stored column-major (one list per column, the
layout Shark popularised for cached tables); anything else falls back
to a row store.  Blocks are *soft* state: when chaos crashes an
executor, :meth:`drop_all` empties its store and lineage recompute
rebuilds blocks on demand — exactly the RDD recovery story.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.cache.lru import BoundedLru

#: default per-executor budget for cached partition blocks
DEFAULT_EXECUTOR_CACHE_BYTES = 64 * 1024 * 1024

#: (rdd_id, partition_index)
BlockKey = Tuple[int, int]


def value_nbytes(value: Any) -> int:
    """Estimated in-memory bytes of one value (mirrors the engine's model)."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (tuple, list)):
        return 8 + sum(value_nbytes(v) for v in value)
    return 8


def rows_nbytes(rows: List[Any]) -> int:
    """Estimated bytes of a row list (8 bytes/row structural overhead)."""
    return sum(8 + value_nbytes(row) for row in rows)


class ColumnBlock:
    """One cached partition: column-major when rows are uniform tuples."""

    __slots__ = ("_columns", "_rows", "num_rows", "nbytes")

    def __init__(self, rows: List[Any]):
        rows = list(rows)
        self.num_rows = len(rows)
        self.nbytes = rows_nbytes(rows)
        width = len(rows[0]) if rows and isinstance(rows[0], tuple) else -1
        columnar = width >= 0 and all(
            isinstance(r, tuple) and len(r) == width for r in rows
        )
        if columnar:
            self._columns: Optional[List[List[Any]]] = [
                [row[i] for row in rows] for i in range(width)
            ]
            self._rows: Optional[List[Any]] = None
        else:
            self._columns = None
            self._rows = rows

    @property
    def is_columnar(self) -> bool:
        return self._columns is not None

    def rows(self) -> List[Any]:
        """Re-assembled rows; always a fresh list the caller may mutate."""
        if self._columns is None:
            assert self._rows is not None
            return list(self._rows)
        if not self._columns:
            return [() for __ in range(self.num_rows)]
        return [tuple(col[i] for col in self._columns) for i in range(self.num_rows)]


class BlockManager:
    """Byte-accounted LRU store of one executor's cached blocks."""

    def __init__(
        self,
        name: str,
        budget_bytes: int = DEFAULT_EXECUTOR_CACHE_BYTES,
    ):
        self.name = name
        self.budget_bytes = budget_bytes
        self._blocks = BoundedLru(budget_bytes)

    @property
    def used_bytes(self) -> int:
        return self._blocks.used

    def get(self, key: BlockKey) -> Optional[ColumnBlock]:
        return self._blocks.get(key)

    def put(self, key: BlockKey, rows: List[Any]) -> bool:
        """Store a computed partition; False when it exceeds the budget."""
        block = ColumnBlock(rows)
        if block.nbytes > self.budget_bytes:
            telemetry.counter("spark.cache.rejected").inc()
            return False
        evicted = self._blocks.put(key, block, block.nbytes)
        if evicted:
            telemetry.counter("spark.cache.evictions").inc(evicted)
        telemetry.counter("spark.cache.stores").inc()
        self._observe()
        return True

    def drop(self, key: BlockKey) -> None:
        if self._blocks.pop(key) is not None:
            self._observe()

    def drop_rdd(self, rdd_id: int) -> int:
        """Release every block of one RDD (``unpersist``); returns count."""
        doomed = [key for key in self._blocks if key[0] == rdd_id]
        for key in doomed:
            self.drop(key)
        return len(doomed)

    def drop_all(self) -> None:
        """Crash semantics: all soft state on this executor is gone."""
        self._blocks.clear()
        self._observe()

    def _observe(self) -> None:
        telemetry.gauge(f"spark.cache.bytes.{self.name}").set(self.used_bytes)

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def partitions_of(self, rdd_id: int) -> List[int]:
        return [split for (rid, split) in self._blocks if rid == rdd_id]


def cluster_partitions(managers: List[BlockManager], rdd_id: int) -> Dict[int, int]:
    """partition -> replica count across a set of block managers."""
    counts: Dict[int, int] = {}
    for manager in managers:
        for split in manager.partitions_of(rdd_id):
            counts[split] = counts.get(split, 0) + 1
    return counts
