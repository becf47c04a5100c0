"""The server-side query result cache.

Completed SELECT results are stored under ``(statement digest, snapshot
epoch, catalog version)``.  Epochs only move forward, so a cached entry
can never be served to a reader at a different snapshot — invalidation
is free and exactness is structural, not advisory.  The catalog version
covers the one mutation class that does *not* advance an epoch (DDL,
TRUNCATE, ANALYZE).

The cache is bounded by a byte budget with LRU eviction and can be
charged into a WLM pool's memory ledger through a
:class:`MemoryAccount`, so resident results genuinely compete with
query admission grants.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro import telemetry
from repro.cache.blocks import rows_nbytes
from repro.cache.lru import BoundedLru

#: default byte budget (per database) for cached result sets
DEFAULT_RESULT_CACHE_BYTES = 8 * 1024 * 1024

_MB = 1024 * 1024

CacheKey = Tuple[str, int, int]


class MemoryAccount:
    """Where the cache's resident bytes are charged (MB granularity).

    The WLM adapter (:meth:`repro.wlm.admission.AdmissionController.
    cache_account`) implements this against a resource pool's memory
    ledger; the default ``None`` account leaves the cache bounded only
    by its own byte budget.
    """

    def grow(self, mb: int) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def shrink(self, mb: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class CachedResult:
    """One memoised SELECT: columns, rows, and its cost report (a copy no
    statement charges; a hit adds it into its own report)."""

    __slots__ = ("columns", "rows", "cost", "nbytes")

    def __init__(self, columns: List[str], rows: List[Tuple[Any, ...]], cost: Any):
        self.columns = list(columns)
        self.rows = list(rows)
        self.cost = cost
        self.nbytes = rows_nbytes(self.rows) + rows_nbytes([tuple(self.columns)])


class ResultCache:
    """Byte-bounded LRU of completed SELECT results, epoch-keyed."""

    def __init__(
        self,
        budget_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
        name: str = "vertica.cache.result",
    ):
        self.budget_bytes = budget_bytes
        self.name = name
        self._entries = BoundedLru(budget_bytes)
        self._account: Optional[MemoryAccount] = None
        self._reserved_mb = 0

    # -- accounting -----------------------------------------------------------
    def attach_account(self, account: Optional[MemoryAccount]) -> None:
        """Charge resident bytes into ``account`` from now on."""
        if self._account is not None and self._reserved_mb:
            self._account.shrink(self._reserved_mb)
            self._reserved_mb = 0
        self._account = account
        self._sync_account(self.used_bytes)

    @property
    def used_bytes(self) -> int:
        return self._entries.used

    @property
    def reserved_mb(self) -> int:
        return self._reserved_mb

    def _sync_account(self, target_bytes: int) -> bool:
        """Grow/shrink the account to cover ``target_bytes``; True on success."""
        if self._account is None:
            return True
        needed = (target_bytes + _MB - 1) // _MB
        if needed > self._reserved_mb:
            if not self._account.grow(needed - self._reserved_mb):
                return False
            self._reserved_mb = needed
        elif needed < self._reserved_mb:
            self._account.shrink(self._reserved_mb - needed)
            self._reserved_mb = needed
        return True

    # -- core operations --------------------------------------------------------
    def lookup(
        self, digest: str, epoch: int, catalog_version: int
    ) -> Optional[CachedResult]:
        entry = self._entries.get((digest, epoch, catalog_version))
        if entry is None:
            telemetry.counter(f"{self.name}.misses").inc()
            return None
        telemetry.counter(f"{self.name}.hits").inc()
        return entry

    def store(
        self,
        digest: str,
        epoch: int,
        catalog_version: int,
        columns: List[str],
        rows: List[Tuple[Any, ...]],
        cost: Any,
    ) -> bool:
        """Memoise one completed SELECT with ``cost``, a copy of its report
        that no statement charges; False when it cannot be held."""
        key = (digest, epoch, catalog_version)
        entries = self._entries
        entries.pop(key)
        entry = CachedResult(columns, rows, cost)
        fits = entry.nbytes <= self.budget_bytes
        if fits:
            evicted = entries.make_room(entry.nbytes)
            # The WLM pool may spare less than the byte budget allows:
            # keep evicting until the account covers the newcomer.
            while not self._sync_account(entries.used + entry.nbytes):
                if not entries:
                    fits = False  # the pool cannot spare even the floor
                    break
                entries.evict_one()
                evicted += 1
            if evicted:
                telemetry.counter(f"{self.name}.evictions").inc(evicted)
        if fits:
            entries.put(key, entry, entry.nbytes)
            telemetry.counter(f"{self.name}.stores").inc()
        else:
            telemetry.counter(f"{self.name}.rejected").inc()
            self._sync_account(entries.used)
        self._observe()
        return fits

    def bypass(self, reason: str) -> None:
        """Record a statement that skipped the cache (and why)."""
        telemetry.counter(f"{self.name}.bypass").inc()
        telemetry.counter(f"{self.name}.bypass.{reason}").inc()

    def clear(self) -> None:
        self._entries.clear()
        self._sync_account(0)
        self._observe()

    def _observe(self) -> None:
        telemetry.gauge(f"{self.name}.bytes").set(self.used_bytes)
        telemetry.gauge(f"{self.name}.entries").set(len(self._entries))

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

