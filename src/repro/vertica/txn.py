"""Transactions, epochs and locking.

The substrate provides what the connector's correctness rests on:

- **Epochs** — a global counter advanced by every commit.  A query reads a
  *snapshot epoch*; rows are visible if committed at or before it and not
  deleted by it.  V2S pins all of its per-task queries to one epoch so
  independently scheduled (and re-scheduled) Spark tasks load one
  consistent view (§3.1.2).
- **Table-level exclusive locks** for writers, no-wait: within a single
  instant of simulated time there is no true concurrency, so a conflicting
  writer fails fast with :class:`LockContention` and retries.  S2V's
  "update-if-still-empty else abort" leader election runs on top of this.
- **Atomic commit** — all of a transaction's staged inserts become ROS
  containers stamped with one fresh epoch, and staged deletes become
  delete-vector entries at that same epoch, so other snapshots see either
  none or all of the transaction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.vertica.errors import LockContention, TransactionError
from repro.vertica.storage import NodeStorage, RosContainer, WosBuffer

ACTIVE = "ACTIVE"
COMMITTED = "COMMITTED"
ABORTED = "ABORTED"


class EpochManager:
    """The global epoch counter (last committed epoch)."""

    def __init__(self, initial: int = 1):
        self._current = initial

    @property
    def current(self) -> int:
        return self._current

    def advance(self) -> int:
        self._current += 1
        return self._current


class LockManager:
    """No-wait table locks with two modes.

    ``"I"`` (insert) locks are shared among inserters — parallel COPY/INSERT
    transactions append independent ROS containers and never conflict, which
    is what lets S2V's tasks load one staging table concurrently.  ``"X"``
    (exclusive) locks, taken by UPDATE/DELETE, conflict with everything.
    """

    def __init__(self) -> None:
        #: table -> {txn_id: mode}
        self._holders: Dict[str, Dict[int, str]] = {}

    def acquire(self, table: str, txn_id: int, mode: str = "X") -> None:
        if mode not in ("I", "X"):
            raise TransactionError(f"unknown lock mode {mode!r}")
        holders = self._holders.setdefault(table, {})
        current = holders.get(txn_id)
        if current == "X" or current == mode:
            return  # already hold an equal-or-stronger lock
        others = {t: m for t, m in holders.items() if t != txn_id}
        if mode == "X" and others:
            telemetry.counter("vertica.lock.contention").inc()
            raise LockContention(table, next(iter(others)), txn_id)
        if mode == "I" and any(m == "X" for m in others.values()):
            blocker = next(t for t, m in others.items() if m == "X")
            telemetry.counter("vertica.lock.contention").inc()
            raise LockContention(table, blocker, txn_id)
        holders[txn_id] = mode
        telemetry.counter("vertica.lock.acquired").inc()

    def release_all(self, txn_id: int) -> None:
        for table in list(self._holders):
            self._holders[table].pop(txn_id, None)
            if not self._holders[table]:
                del self._holders[table]

    def holder(self, table: str) -> Optional[int]:
        holders = self._holders.get(table)
        if not holders:
            return None
        return next(iter(holders))

    def held_tables(self) -> Dict[str, Dict[int, str]]:
        """Snapshot of every held lock: table -> {txn_id: mode}.

        Empty once all transactions have committed or aborted — the
        invariant the chaos checker audits after every faulted run.
        """
        return {table: dict(holders) for table, holders in self._holders.items()}


class Transaction:
    """One transaction's staged state."""

    def __init__(self, txn_id: int, epoch_manager: EpochManager,
                 lock_manager: LockManager):
        #: unique within the database whose lock table is keyed by it
        self.txn_id = txn_id
        self.status = ACTIVE
        self._epochs = epoch_manager
        self._locks = lock_manager
        #: snapshot the transaction reads at (fixed at first read)
        self._snapshot: Optional[int] = None
        #: staged inserts: (table, node) -> WosBuffer
        self.wos: Dict[Tuple[str, str], WosBuffer] = {}
        #: staged replica inserts for k-safety: (table, buddy_node) -> WosBuffer
        self.replica_wos: Dict[Tuple[str, str], WosBuffer] = {}
        #: staged deletes: (container, row_index)
        self.deletes: List[Tuple[RosContainer, int]] = []
        self._deleted_keys: set = set()
        #: actions to run after a successful commit (e.g. TRUNCATE finalise)
        self.post_commit: List[Callable[[int], None]] = []

    # -- snapshot ------------------------------------------------------------
    def snapshot_epoch(self, requested: Optional[int] = None) -> int:
        """The epoch this transaction's reads see.

        ``requested`` pins an explicit ``AT EPOCH n``; otherwise the first
        read fixes the snapshot at the current committed epoch (repeatable
        reads within one transaction).
        """
        if requested is not None:
            if requested > self._epochs.current:
                raise TransactionError(
                    f"epoch {requested} is in the future "
                    f"(current {self._epochs.current})"
                )
            return requested
        if self._snapshot is None:
            self._snapshot = self._epochs.current
        return self._snapshot

    @property
    def read_epoch(self) -> int:
        """The epoch a read without ``AT EPOCH`` would see, without fixing
        the snapshot (EXPLAIN reads no rows, so it must not pin one)."""
        return self._snapshot if self._snapshot is not None else self._epochs.current

    # -- write staging ---------------------------------------------------------
    def require_active(self) -> None:
        if self.status != ACTIVE:
            raise TransactionError(f"transaction {self.txn_id} is {self.status}")

    def lock(self, table: str, mode: str = "X") -> None:
        self.require_active()
        self._locks.acquire(table, self.txn_id, mode)

    def wos_for(self, table: str, node: str, column_names) -> WosBuffer:
        key = (table, node)
        if key not in self.wos:
            self.wos[key] = WosBuffer(column_names)
        return self.wos[key]

    def replica_wos_for(self, table: str, node: str, column_names) -> WosBuffer:
        key = (table, node)
        if key not in self.replica_wos:
            self.replica_wos[key] = WosBuffer(column_names)
        return self.replica_wos[key]

    def stage_delete(self, container: RosContainer, row_index: int) -> None:
        self.require_active()
        self.deletes.append((container, row_index))
        self._deleted_keys.add((id(container), row_index))

    def is_deleted_by_self(self, container: RosContainer, row_index: int) -> bool:
        return (id(container), row_index) in self._deleted_keys

    # -- outcome -------------------------------------------------------------------
    def commit(self, storage: Dict[str, NodeStorage]) -> int:
        """Apply staged writes atomically; returns the new commit epoch.

        ``release_all`` runs in a ``finally``: a fault injected mid-commit
        (e.g. a crash between the WOS flush and the epoch advance) must not
        leave this transaction's table locks behind, or every later job on
        the same table deadlocks against a ghost holder.  A transaction
        whose commit raised is marked ABORTED — its outcome is undefined
        and it must not be retried as if still active.
        """
        self.require_active()
        try:
            has_writes = bool(
                self.wos or self.replica_wos or self.deletes or self.post_commit
            )
            if not has_writes:
                self.status = COMMITTED
                return self._epochs.current
            epoch = self._epochs.advance()
            for (table, node), buffer in self.wos.items():
                if buffer.nrows:
                    storage[node].add_container(table, buffer.to_container(epoch))
            for (table, node), buffer in self.replica_wos.items():
                if buffer.nrows:
                    storage[node].add_replica(table, buffer.to_container(epoch))
            for container, row_index in self.deletes:
                if container.delete_epochs[row_index] == 0:
                    container.delete_epochs[row_index] = epoch
            for action in self.post_commit:
                action(epoch)
            self.status = COMMITTED
            telemetry.counter("vertica.txn.commits").inc()
            return epoch
        finally:
            if self.status != COMMITTED:
                self.status = ABORTED
                telemetry.counter("vertica.txn.commit_failures").inc()
            self._locks.release_all(self.txn_id)

    def abort(self) -> None:
        self.require_active()
        try:
            self.wos.clear()
            self.replica_wos.clear()
            self.deletes.clear()
            self._deleted_keys.clear()
            self.post_commit.clear()
        finally:
            self.status = ABORTED
            self._locks.release_all(self.txn_id)
            telemetry.counter("vertica.txn.aborts").inc()
