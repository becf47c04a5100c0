"""The server-side query result cache.

A completed SELECT is stored under its canonical statement together
with the snapshot it read: (snapshot epoch, catalog version).  The cache
holds one entry per statement, the newest snapshot's answer stored for
it, and a lookup hits only when the reader's snapshot equals that
entry's.  Epochs only move forward and every write moves one, so each
store at the current snapshot replaces an answer no new reader asks for
again: invalidation is free and exactness is structural, not advisory.
The catalog version covers the one mutation class that does *not*
advance an epoch (DDL, TRUNCATE, ANALYZE); every reader reads at the
current version, so "newest" orders by version first, then epoch.  A
reader pinned to an older snapshot (a transaction that read before a
later write) hits its answer only until a newer snapshot's answer is
stored, and its own store never displaces a newer entry.  ``AT EPOCH n``
is part of a statement's canonical text, so a statement pinned that way
is an entry of its own.

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
    """One memoised SELECT: columns, rows, its cost report (a copy no
    statement charges; a hit adds it into its own report) and the
    snapshot it read, as ``(catalog version, epoch)`` so that a newer
    snapshot compares greater."""

    __slots__ = ("columns", "rows", "cost", "nbytes", "snapshot")

    def __init__(
        self,
        columns: List[str],
        rows: List[Tuple[Any, ...]],
        cost: Any,
        snapshot: Tuple[int, int],
    ):
        self.columns = list(columns)
        self.rows = list(rows)
        self.cost = cost
        self.nbytes = rows_nbytes(self.rows) + rows_nbytes([tuple(self.columns)])
        self.snapshot = snapshot


class ResultCache:
    """Byte-bounded LRU of completed SELECT results, one per statement."""

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
        """The answer read at exactly this snapshot, now the most recently
        used entry; or None (a miss leaves LRU order alone)."""
        entry = self._entries.peek(digest)
        if entry is None or entry.snapshot != (catalog_version, epoch):
            telemetry.counter(f"{self.name}.misses").inc()
            return None
        self._entries.get(digest)
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
        that no statement charges, in place of the statement's older entry;
        False when it is not held (it cannot be, or a newer snapshot's
        answer is)."""
        entries = self._entries
        snapshot = (catalog_version, epoch)
        held = entries.peek(digest)
        if held is not None and held.snapshot > snapshot:
            return False
        entries.pop(digest)
        entry = CachedResult(columns, rows, cost, snapshot)
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
            entries.put(digest, entry, entry.nbytes)
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
        """Whether ``(digest, epoch, catalog version)`` would hit; LRU
        order and counters are left alone."""
        digest, epoch, catalog_version = key
        entry = self._entries.peek(digest)
        return entry is not None and entry.snapshot == (catalog_version, epoch)

