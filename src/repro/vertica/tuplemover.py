"""The Tuple Mover: mergeout and the Ancient History Mark.

Every committed transaction adds one ROS container per (table, node), so
a long run of small loads fragments storage into many tiny containers —
S2V at 128 partitions creates 128 of them.  Vertica's Tuple Mover
periodically *merges out* small containers into larger ones and purges
deleted rows, bounded by the **Ancient History Mark (AHM)**: the oldest
epoch any query may still ask for.  Containers newer than the AHM must
stay separate (a historical ``AT EPOCH`` query distinguishes them);
containers at or below it can be merged and their deleted rows dropped.

This module implements exactly that contract, and
``tests/test_vertica_tuplemover.py`` checks that mergeout never changes
the result of any query at any still-queryable epoch.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.vertica.batch import gather
from repro.vertica.errors import TransactionError
from repro.vertica.storage import RosContainer


class TupleMover:
    """Mergeout/purge for one database."""

    def __init__(self, database: "VerticaDatabase"):  # noqa: F821
        self.db = database
        #: the Ancient History Mark: no query may read below this epoch
        self.ahm_epoch = 0
        #: statistics for observability/tests
        self.containers_merged = 0
        self.rows_purged = 0

    # -- AHM ------------------------------------------------------------------
    def advance_ahm(self, epoch: int = None) -> int:
        """Raise the AHM (defaults to the current committed epoch)."""
        target = self.db.epochs.current if epoch is None else epoch
        if target > self.db.epochs.current:
            raise TransactionError(
                f"AHM {target} cannot exceed the current epoch "
                f"{self.db.epochs.current}"
            )
        if target < self.ahm_epoch:
            raise TransactionError(
                f"AHM cannot move backwards ({self.ahm_epoch} -> {target})"
            )
        self.ahm_epoch = target
        return self.ahm_epoch

    # -- mergeout ----------------------------------------------------------------
    def mergeout(self, table: str = None) -> int:
        """Merge all eligible containers; returns how many were merged away.

        A container is eligible when its commit epoch is at or below the
        AHM.  Eligible containers of one (table, node) merge into a single
        container stamped with the *latest* of their commit epochs; rows
        whose deletion epoch is at or below the AHM are purged, while
        later deletions keep their delete-vector entries.
        """
        merged_away = 0
        tables = (
            [table.upper()] if table else list(self.db.catalog.tables.keys())
        )
        for table_name in tables:
            if self.db.locks.holder(table_name) is not None:
                # An active transaction may hold references into this
                # table's containers (staged deletes); skip until idle.
                continue
            for node_storage in self.db.storage.values():
                merged_away += self._mergeout_node(
                    node_storage.containers, table_name
                )
                merged_away += self._mergeout_node(
                    node_storage.replicas, table_name
                )
        self.containers_merged += merged_away
        return merged_away

    def _mergeout_node(
        self, container_map: Dict[str, List[RosContainer]], table_name: str
    ) -> int:
        containers = container_map.get(table_name)
        if not containers:
            return 0
        eligible = [c for c in containers if c.commit_epoch <= self.ahm_epoch]
        if len(eligible) < 2 and not any(
            self._purgeable_rows(c) for c in eligible
        ):
            return 0
        keep = [c for c in containers if c.commit_epoch > self.ahm_epoch]
        merged = self._merge(eligible)
        container_map[table_name] = ([merged] if merged else []) + keep
        return max(0, len(eligible) - (1 if merged else 0))

    def _purgeable_rows(self, container: RosContainer) -> int:
        return container.nrows - len(container.visible(self.ahm_epoch))

    def _merge(self, containers: List[RosContainer]) -> RosContainer:
        if not containers:
            return None
        column_names = containers[0].column_names
        columns: List[List] = [[] for __ in column_names]
        delete_epochs: List[int] = []
        row_hashes = array("I")
        purged = 0
        for container in containers:
            # Eligible containers committed at or below the AHM, so what
            # the AHM snapshot still sees is exactly what must survive:
            # rows deleted at or below it are purged for good, later
            # deletions keep their delete-vector entries.
            keep = container.visible(self.ahm_epoch)
            purged += container.nrows - len(keep)
            for column, source in zip(columns, container.columns):
                column.extend(gather(source, keep))
            delete_epochs.extend(gather(container.delete_epochs, keep))
            hashes = container.row_hashes  # gather slices an array as a list
            row_hashes.extend(gather(hashes, keep))  # type: ignore[arg-type]
        self.rows_purged += purged
        if not delete_epochs and purged:
            # Everything was purged: no container needed at all.
            return None
        merged = RosContainer(
            column_names,
            columns,
            commit_epoch=max(c.commit_epoch for c in containers),
            row_hashes=row_hashes,
        )
        merged.delete_epochs = delete_epochs
        return merged


def storage_container_stats(
        database: "VerticaDatabase") -> List[Tuple[str, str, int, int]]:  # noqa: F821
    """(node, table, container count, live rows) per (node, table)."""
    out = []
    epoch = database.epochs.current
    for node_name, storage in database.storage.items():
        for table_name, containers in sorted(storage.containers.items()):
            live = sum(len(c.visible(epoch)) for c in containers)
            out.append((node_name, table_name, len(containers), live))
    return out
