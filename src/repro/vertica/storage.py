"""Columnar storage: ROS containers and per-node stores.

Vertica keeps committed data in Read Optimized Storage (ROS) containers —
immutable, column-major batches tagged with the epoch that committed them
— and marks deletions in per-container *delete vectors* rather than
rewriting data (§2.1.1; Lamb et al., VLDB'12).  Visibility at a snapshot
epoch ``e`` is therefore: container committed at or before ``e``, row not
deleted, or deleted strictly after ``e`` — :meth:`RosContainer.visible`
answers it as a *selection vector* of row indices, the form the scan, the
tuple mover and the row counts all consume; no per-row object is ever
built from a container.

Uncommitted writes live in a per-transaction WOS (Write Optimized
Storage) buffer that becomes one ROS container per (table, node) at
commit.  The buffer is column-major like the container it turns into:
``Engine.insert_rows`` extends it a column slice at a time, commit hands
its column lists to the container, and a read-your-writes scan slices
them exactly as it slices a container's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.vertica.errors import CatalogError


class RosContainer:
    """One immutable committed batch of rows on one node."""

    __slots__ = ("column_names", "columns", "commit_epoch", "delete_epochs",
                 "row_hashes", "_kinds")

    def __init__(
        self,
        column_names: Sequence[str],
        columns: Sequence[Sequence[Any]],
        commit_epoch: int,
        row_hashes: Sequence[int],
    ):
        if len(column_names) != len(columns):
            raise CatalogError("column name/data arity mismatch in ROS container")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise CatalogError("ragged columns in ROS container")
        nrows = len(columns[0]) if columns else 0
        if len(row_hashes) != nrows:
            raise CatalogError("ROS container needs one segmentation hash per row")
        self.column_names = list(column_names)
        self.columns = [list(c) for c in columns]
        self.commit_epoch = commit_epoch
        #: 0 = live; otherwise the epoch at which the row was deleted
        self.delete_epochs: List[int] = [0] * nrows
        #: ``vertica_hash`` of each row's segmentation values (0 throughout
        #: an unsegmented table).  A ranged scan reads this *instead of*
        #: evaluating ``HASH(...)``, so every writer supplies it:
        #: ``Engine.insert_rows`` computes it, mergeout gathers it.
        self.row_hashes = list(row_hashes)
        #: slot -> :meth:`kind` of that column, filled as they are asked for
        self._kinds: Dict[int, Optional[type]] = {}

    @property
    def nrows(self) -> int:
        return len(self.delete_epochs)

    def kind(self, slot: int) -> Optional[type]:
        """The one Python type every value of column ``slot`` has (a NULL's
        is ``NoneType``); None when it holds several, or no value at all.

        Computed on first ask and kept: a container's columns never change
        (a delete only hides rows; mergeout builds a new container), and
        every row subset of a column has the column's kind.
        """
        kinds = self._kinds
        if slot not in kinds:
            types = set(map(type, self.columns[slot]))
            kinds[slot] = types.pop() if len(types) == 1 else None
        return kinds[slot]

    def visible(self, snapshot_epoch: int) -> Sequence[int]:
        """Indices of the rows visible at ``snapshot_epoch``, ascending.

        ``range(nrows)`` when nothing in the container was ever deleted.
        """
        if self.commit_epoch > snapshot_epoch:
            return range(0)
        if not any(self.delete_epochs):
            return range(self.nrows)
        return [
            index
            for index, delete_epoch in enumerate(self.delete_epochs)
            if delete_epoch == 0 or delete_epoch > snapshot_epoch
        ]


class WosBuffer:
    """Per-transaction, per-(table, node) staged inserts (column-major)."""

    __slots__ = ("column_names", "columns", "row_hashes")

    def __init__(self, column_names: Sequence[str]):
        self.column_names = list(column_names)
        self.columns: List[List[Any]] = [[] for __ in self.column_names]
        self.row_hashes: List[int] = []

    @property
    def nrows(self) -> int:
        return len(self.row_hashes)

    def extend(
        self, columns: Sequence[Sequence[Any]], row_hashes: Sequence[int]
    ) -> None:
        """Stage ``len(row_hashes)`` more rows, given as one slice per column."""
        if len(columns) != len(self.column_names):
            raise CatalogError(
                f"row arity {len(columns)} does not match "
                f"{len(self.column_names)} columns"
            )
        if any(len(values) != len(row_hashes) for values in columns):
            raise CatalogError("ragged columns staged into WOS buffer")
        for held, values in zip(self.columns, columns):
            held.extend(values)
        self.row_hashes.extend(row_hashes)

    def to_container(self, commit_epoch: int) -> RosContainer:
        return RosContainer(
            self.column_names, self.columns, commit_epoch, row_hashes=self.row_hashes
        )


class NodeStorage:
    """All committed containers held by one node, keyed by table name."""

    def __init__(self, node_name: str):
        self.node_name = node_name
        self.containers: Dict[str, List[RosContainer]] = {}
        #: k-safety replicas of other nodes' segments: table -> buddy containers
        self.replicas: Dict[str, List[RosContainer]] = {}

    def add_container(self, table: str, container: RosContainer) -> None:
        self.containers.setdefault(table, []).append(container)

    def add_replica(self, table: str, container: RosContainer) -> None:
        self.replicas.setdefault(table, []).append(container)

    def table_containers(self, table: str) -> List[RosContainer]:
        return self.containers.get(table, [])

    def replica_containers(self, table: str) -> List[RosContainer]:
        return self.replicas.get(table, [])

    def drop_table(self, table: str) -> None:
        self.containers.pop(table, None)
        self.replicas.pop(table, None)

    def rename_table(self, table: str, new_name: str) -> None:
        if table in self.containers:
            self.containers[new_name] = self.containers.pop(table)
        if table in self.replicas:
            self.replicas[new_name] = self.replicas.pop(table)

    def live_row_count(self, table: str, snapshot_epoch: int) -> int:
        return sum(
            len(container.visible(snapshot_epoch))
            for container in self.table_containers(table)
        )
