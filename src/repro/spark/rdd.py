"""Resilient Distributed Datasets.

An RDD is an immutable, partitioned collection evaluated lazily: each RDD
remembers its parent and a per-partition compute function (its *lineage*),
so a failed task simply recomputes its partition from scratch — there is
no checkpointing and no partial state (§2.1.2).

``compute(split, ctx)`` is a *generator* so data sources can yield
simulation events (network transfers, CPU work) while producing rows;
pure in-memory transformations yield nothing and are free.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence

from repro import telemetry
from repro.spark.errors import SparkError


class RDD:
    """Base class; subclasses define partitioning and compute."""

    def __init__(self, context: "SparkContext", num_partitions: int):  # noqa: F821
        if num_partitions <= 0:
            raise SparkError(f"an RDD needs >= 1 partition: {num_partitions}")
        self.context = context
        self.num_partitions = num_partitions
        #: unique lineage id; cached blocks key on (rdd_id, partition)
        self.rdd_id = next(context.rdd_ids)

    # -- lineage node ---------------------------------------------------------
    def compute(self, split: int, ctx) -> Generator:
        """Yield sim events; return the list of rows of partition ``split``."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- transformations (lazy) --------------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return MapPartitionsRDD(self, lambda split, rows: [fn(r) for r in rows])

    def filter(self, fn: Callable[[Any], bool]) -> "RDD":
        return MapPartitionsRDD(self, lambda split, rows: [r for r in rows if fn(r)])

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(
            self, lambda split, rows: [o for r in rows for o in fn(r)]
        )

    def map_partitions(self, fn: Callable[[List[Any]], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(self, lambda split, rows: list(fn(rows)))

    def map_partitions_with_index(
        self, fn: Callable[[int, List[Any]], Iterable[Any]]
    ) -> "RDD":
        return MapPartitionsRDD(self, lambda split, rows: list(fn(split, rows)))

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self, other)

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce partition count without shuffling (§3.2 setup phase)."""
        if num_partitions >= self.num_partitions:
            return self
        return CoalescedRDD(self, num_partitions)

    def repartition(self, num_partitions: int) -> "RDD":
        """Change partition count, redistributing rows round-robin."""
        if num_partitions == self.num_partitions:
            return self
        if num_partitions < self.num_partitions:
            return self.coalesce(num_partitions)
        return RepartitionedRDD(self, num_partitions)

    def partition_by(self, num_partitions: int, key_fn: Callable[[Any], int]) -> "RDD":
        """Hash-partition rows by ``key_fn`` (used by pre-hashed S2V)."""
        return RepartitionedRDD(self, num_partitions, key_fn=key_fn)

    # -- actions (eager) -----------------------------------------------------------
    def collect(self) -> List[Any]:
        parts = self.context.run_job(self)
        return [row for part in parts for row in part]

    def count(self) -> int:
        parts = self.context.run_job(
            self, result_fn=lambda split, rows: len(rows)
        )
        return sum(parts)

    def take(self, n: int) -> List[Any]:
        out: List[Any] = []
        for part in self.context.run_job(self):
            out.extend(part)
            if len(out) >= n:
                break
        return out[:n]

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        parts = [p for p in self.collect_partitions() if p]
        if not parts:
            raise SparkError("reduce() on an empty RDD")
        accumulator: Optional[Any] = None
        for part in parts:
            for row in part:
                accumulator = row if accumulator is None else fn(accumulator, row)
        return accumulator

    def collect_partitions(self) -> List[List[Any]]:
        return self.context.run_job(self)

    def glom(self) -> List[List[Any]]:
        return self.collect_partitions()

    def cache(self) -> "RDD":
        """Persist computed partitions (like ``RDD.cache()``).

        The first computation of each partition stores its rows in the
        computing executor's block manager; later jobs (and retried
        tasks) reuse the stored block — fetching it from a peer executor
        when placement lands elsewhere — instead of recomputing the
        lineage, including any data-source reads.
        """
        return CachedRDD(self)


class CachedRDD(RDD):
    """Caches a parent RDD's partitions in executor block managers.

    Shark-style: each materialized partition lives as a columnar
    :class:`~repro.cache.blocks.ColumnBlock` in the block manager of the
    executor that computed it, byte-accounted with LRU eviction — no
    unbounded driver-side state.  A task placed on an executor without
    the block fetches it from any live peer holding one; if no replica
    survives (crash, eviction, ``unpersist``), lineage recompute rebuilds
    it and re-stores the result locally.
    """

    def __init__(self, parent: RDD):
        super().__init__(parent.context, parent.num_partitions)
        self.parent = parent

    def _block_managers(self) -> List[Any]:
        return [
            executor.block_manager
            for executor in getattr(self.context, "executors", [])
            if hasattr(executor, "block_manager")
        ]

    @property
    def cached_partitions(self) -> int:
        """Distinct partitions resident somewhere in the cluster."""
        seen = set()
        for manager in self._block_managers():
            seen.update(manager.partitions_of(self.rdd_id))
        return len(seen)

    @property
    def cached_bytes(self) -> int:
        """Total resident bytes of this RDD's blocks (replicas included)."""
        total = 0
        for manager in self._block_managers():
            for split in manager.partitions_of(self.rdd_id):
                block = manager.get((self.rdd_id, split))
                if block is not None:
                    total += block.nbytes
        return total

    def unpersist(self) -> None:
        """Drop every block on every executor, releasing accounted bytes."""
        for manager in self._block_managers():
            manager.drop_rdd(self.rdd_id)

    def compute(self, split: int, ctx) -> Generator:
        key = (self.rdd_id, split)
        local = getattr(getattr(ctx, "executor", None), "block_manager", None)
        if local is not None:
            block = local.get(key)
            if block is not None:
                telemetry.counter("spark.cache.hits").inc()
                return block.rows()
            # Remote fetch: any live peer holding the block serves it.
            for executor in getattr(self.context, "executors", []):
                if getattr(executor, "down", False):
                    continue
                manager = getattr(executor, "block_manager", None)
                if manager is local or manager is None:
                    continue
                block = manager.get(key)
                if block is not None:
                    telemetry.counter("spark.cache.remote_hits").inc()
                    return block.rows()
        telemetry.counter("spark.cache.misses").inc()
        rows = yield from materialize(self.parent, split, ctx)
        if local is not None:
            local.put(key, rows)
        return list(rows)


class ParallelCollectionRDD(RDD):
    """An RDD over an in-memory list, split into even slices."""

    def __init__(self, context, data: Sequence[Any], num_partitions: int):
        super().__init__(context, num_partitions)
        self._slices: List[List[Any]] = []
        data = list(data)
        count = len(data)
        for i in range(num_partitions):
            lo = (count * i) // num_partitions
            hi = (count * (i + 1)) // num_partitions
            self._slices.append(data[lo:hi])

    def compute(self, split: int, ctx) -> Generator:
        return list(self._slices[split])
        yield  # pragma: no cover


class MapPartitionsRDD(RDD):
    def __init__(self, parent: RDD, fn: Callable[[int, List[Any]], List[Any]]):
        super().__init__(parent.context, parent.num_partitions)
        self.parent = parent
        self.fn = fn

    def compute(self, split: int, ctx) -> Generator:
        rows = yield from materialize(self.parent, split, ctx)
        return self.fn(split, rows)


class UnionRDD(RDD):
    def __init__(self, left: RDD, right: RDD):
        super().__init__(left.context, left.num_partitions + right.num_partitions)
        self.left = left
        self.right = right

    def compute(self, split: int, ctx) -> Generator:
        if split < self.left.num_partitions:
            rows = yield from materialize(self.left, split, ctx)
        else:
            rows = yield from materialize(
                self.right, split - self.left.num_partitions, ctx
            )
        return rows


class CoalescedRDD(RDD):
    """Merges parent partitions into fewer, without moving rows between
    nodes (each output partition simply concatenates a contiguous group)."""

    def __init__(self, parent: RDD, num_partitions: int):
        super().__init__(parent.context, num_partitions)
        self.parent = parent

    def parent_splits(self, split: int) -> List[int]:
        total = self.parent.num_partitions
        lo = (total * split) // self.num_partitions
        hi = (total * (split + 1)) // self.num_partitions
        return list(range(lo, hi))

    def compute(self, split: int, ctx) -> Generator:
        out: List[Any] = []
        for parent_split in self.parent_splits(split):
            rows = yield from materialize(self.parent, parent_split, ctx)
            out.extend(rows)
        return out


class RepartitionedRDD(RDD):
    """Round-robin (or keyed) redistribution across more partitions.

    This is a narrow simulation of a shuffle: each output partition
    recomputes every parent partition it draws from.  With ``key_fn`` the
    destination is ``key_fn(row) % num_partitions`` (hash partitioning);
    otherwise rows go round-robin by position.
    """

    def __init__(self, parent: RDD, num_partitions: int,
                 key_fn: Optional[Callable[[Any], int]] = None):
        super().__init__(parent.context, num_partitions)
        self.parent = parent
        self.key_fn = key_fn

    def compute(self, split: int, ctx) -> Generator:
        out: List[Any] = []
        position = 0
        for parent_split in range(self.parent.num_partitions):
            rows = yield from materialize(self.parent, parent_split, ctx)
            for row in rows:
                if self.key_fn is not None:
                    destination = self.key_fn(row) % self.num_partitions
                else:
                    destination = position % self.num_partitions
                if destination == split:
                    out.append(row)
                position += 1
        return out


def materialize(rdd: RDD, split: int, ctx) -> Generator:
    """Run ``rdd.compute`` to a list of rows, tolerating plain-value returns."""
    body = rdd.compute(split, ctx)
    if hasattr(body, "__next__"):
        rows = yield from body
    else:  # pragma: no cover - all built-in RDDs are generators
        rows = body
    return list(rows) if rows is not None else []
