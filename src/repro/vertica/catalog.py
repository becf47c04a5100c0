"""The system catalog: table definitions, segmentation metadata, views.

The catalog is also queryable through virtual system tables, exactly the
mechanism the paper's V2S uses to discover the hash-ring layout ("this
information is stored in the Vertica system catalog and can be queried",
§3.1.2):

- ``v_catalog.nodes`` — node_name, node_state
- ``v_catalog.segments`` — table_name, segment_lower_bound,
  segment_upper_bound, node_name
- ``v_catalog.tables`` — table_name, is_segmented, row_segmentation
- ``v_catalog.epochs`` — current_epoch
- ``v_catalog.resource_pools`` — WLM pool definitions (memory,
  planned/max concurrency, priority, queue timeout, cascade)
- ``v_catalog.column_statistics`` — optimizer statistics collected by
  ``ANALYZE`` (row/null counts, NDV, min/max, histogram buckets)
- ``v_monitor.storage_containers`` — ROS containers and live rows per
  (node, table), from the tuple mover

Each is one row of :data:`SYSTEM_TABLES` at the foot of this module.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.vertica.errors import CatalogError, SqlError
from repro.vertica.hashring import HashRing
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.tuplemover import storage_container_stats


class TableDef:
    """One table: schema, segmentation, and its hash ring."""

    def __init__(
        self,
        name: str,
        columns: Sequence[ast.ColumnDef],
        node_names: Sequence[str],
        segmented_by: Optional[List[str]] = None,
        unsegmented: bool = False,
    ):
        if not columns:
            raise CatalogError(f"table {name!r} requires at least one column")
        self.name = name
        self.columns = list(columns)
        names = self.column_names()
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {name!r}")
        self.unsegmented = unsegmented
        if unsegmented:
            self.segmentation_columns: List[str] = []
            self.ring: Optional[HashRing] = None
        else:
            if segmented_by:
                missing = [c for c in segmented_by if c not in names]
                if missing:
                    raise CatalogError(
                        f"segmentation columns {missing} not in table {name!r}"
                    )
                self.segmentation_columns = list(segmented_by)
            else:
                # Vertica's default: segment by (several) columns; we use all.
                self.segmentation_columns = list(names)
            self.ring = HashRing.even(list(node_names))

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def has_column(self, column: str) -> bool:
        return any(c.name == column for c in self.columns)


class ViewDef:
    """A named stored query."""

    def __init__(self, name: str, query: ast.Select, sql_text: str = ""):
        self.name = name
        self.query = query
        self.sql_text = sql_text


class Catalog:
    """Tables, views and resource pools; names the virtual system tables."""

    def __init__(self, node_names: Sequence[str]):
        from repro.vertica.stats import TableStats
        from repro.wlm.pools import ResourcePool, general_pool

        self.node_names = list(node_names)
        self.tables: Dict[str, TableDef] = {}
        self.views: Dict[str, ViewDef] = {}
        #: WLM pool definitions; every database is born with GENERAL
        self.resource_pools: Dict[str, "ResourcePool"] = {
            "GENERAL": general_pool()
        }
        #: optimizer statistics, keyed by upper-cased table name (ANALYZE)
        self.statistics: Dict[str, "TableStats"] = {}
        #: monotonically increasing catalog version: bumped by every DDL
        #: change and by ANALYZE, because those mutate query-visible state
        #: *without* advancing an epoch.  The plan and result caches fold
        #: this into their keys, so epoch keying alone stays exact.
        self.version = 0

    def bump_version(self) -> int:
        """Invalidate version-keyed caches (DDL/ANALYZE happened)."""
        self.version += 1
        return self.version

    # -- tables ----------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[ast.ColumnDef],
        segmented_by: Optional[List[str]] = None,
        unsegmented: bool = False,
        if_not_exists: bool = False,
    ) -> Optional[TableDef]:
        key = name.upper()
        if key in self.tables or key in self.views:
            if if_not_exists:
                return None
            raise CatalogError(f"relation {name!r} already exists")
        table = TableDef(
            key,
            columns,
            self.node_names,
            segmented_by=[c.upper() for c in segmented_by] if segmented_by else None,
            unsegmented=unsegmented,
        )
        self.tables[key] = table
        self.bump_version()
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        key = name.upper()
        if key not in self.tables:
            if if_exists:
                return False
            raise CatalogError(f"table {name!r} does not exist")
        del self.tables[key]
        self.statistics.pop(key, None)
        self.bump_version()
        return True

    def rename_table(self, name: str, new_name: str) -> None:
        key = name.upper()
        new_key = new_name.upper()
        if key not in self.tables:
            raise CatalogError(f"table {name!r} does not exist")
        if new_key in self.tables or new_key in self.views:
            raise CatalogError(f"relation {new_name!r} already exists")
        table = self.tables.pop(key)
        table.name = new_key
        self.tables[new_key] = table
        stats = self.statistics.pop(key, None)
        if stats is not None:
            stats.table = new_key
            self.statistics[new_key] = stats
        self.bump_version()

    def table(self, name: str) -> TableDef:
        try:
            return self.tables[name.upper()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name.upper() in self.tables

    # -- views ------------------------------------------------------------------
    def create_view(self, name: str, query: ast.Select, or_replace: bool = False,
                    sql_text: str = "") -> ViewDef:
        key = name.upper()
        if key in self.tables:
            raise CatalogError(f"a table named {name!r} already exists")
        if key in self.views and not or_replace:
            raise CatalogError(f"view {name!r} already exists")
        view = ViewDef(key, query, sql_text)
        self.views[key] = view
        self.bump_version()
        return view

    def drop_view(self, name: str, if_exists: bool = False) -> bool:
        key = name.upper()
        if key not in self.views:
            if if_exists:
                return False
            raise CatalogError(f"view {name!r} does not exist")
        del self.views[key]
        self.bump_version()
        return True

    def has_view(self, name: str) -> bool:
        return name.upper() in self.views

    def view(self, name: str) -> ViewDef:
        try:
            return self.views[name.upper()]
        except KeyError:
            raise CatalogError(f"view {name!r} does not exist") from None

    # -- resource pools ---------------------------------------------------------
    def create_resource_pool(self, pool, or_replace: bool = False):
        """Register a :class:`~repro.wlm.pools.ResourcePool` definition."""
        key = pool.name  # already uppercased by the dataclass
        if key in self.resource_pools and not or_replace:
            raise CatalogError(f"resource pool {pool.name!r} already exists")
        if pool.cascade is not None and pool.cascade not in self.resource_pools:
            raise CatalogError(
                f"resource pool {pool.name!r} cascades to unknown pool "
                f"{pool.cascade!r}"
            )
        self.resource_pools[key] = pool
        return pool

    def drop_resource_pool(self, name: str, if_exists: bool = False) -> bool:
        key = name.upper()
        if key == "GENERAL":
            raise CatalogError("the GENERAL pool cannot be dropped")
        if key not in self.resource_pools:
            if if_exists:
                return False
            raise CatalogError(f"resource pool {name!r} does not exist")
        dependents = [
            p.name for p in self.resource_pools.values() if p.cascade == key
        ]
        if dependents:
            raise CatalogError(
                f"resource pool {name!r} is the cascade target of "
                f"{', '.join(sorted(dependents))}"
            )
        del self.resource_pools[key]
        return True

    def resource_pool(self, name: str):
        try:
            return self.resource_pools[name.upper()]
        except KeyError:
            raise CatalogError(f"resource pool {name!r} does not exist") from None

    # -- system tables ---------------------------------------------------------------
    def is_system_table(self, name: str) -> bool:
        """Whether ``name`` lies in the reserved system schemas."""
        return name.upper().startswith(("V_CATALOG.", "V_MONITOR."))

    def system_table(self, name: str) -> Tuple[Tuple[str, ...], "RowProducer"]:
        """Column names and row producer of one virtual system table."""
        try:
            return SYSTEM_TABLES[name.upper()]
        except KeyError:
            raise SqlError(f"unknown system table {name!r}") from None


# -- the system-table registry -------------------------------------------------
# One row per virtual table: its column names and a producer that, given the
# database, returns the current rows as tuples in column order.  The binder
# takes the names, ``SystemScanOp`` (and the reference interpreter) the rows;
# adding a system table is adding a producer and a row here, nothing else.

RowProducer = Callable[["VerticaDatabase"], List[Tuple[Any, ...]]]  # noqa: F821


def _nodes(db) -> List[Tuple[Any, ...]]:
    return [(n, db.node_states.get(n, "UP")) for n in db.catalog.node_names]


def _segments(db) -> List[Tuple[Any, ...]]:
    return [
        (table.name, segment.lo, segment.hi, segment.node)
        for table in db.catalog.tables.values() if table.ring is not None
        for segment in table.ring.segments
    ]


def _tables(db) -> List[Tuple[Any, ...]]:
    return [
        (t.name, not t.unsegmented, ",".join(t.segmentation_columns))
        for t in db.catalog.tables.values()
    ]


def _columns(db) -> List[Tuple[Any, ...]]:
    return [
        (table.name, column_def.name, column_def.sql_type.name, position)
        for table in db.catalog.tables.values()
        for position, column_def in enumerate(table.columns)
    ]


def _epochs(db) -> List[Tuple[Any, ...]]:
    return [(db.epochs.current,)]


def _column_statistics(db) -> List[Tuple[Any, ...]]:
    return [
        (
            table_name, column_name, cs.row_count, cs.null_count, cs.ndv,
            cs.min_value, cs.max_value, len(cs.histogram),
            table_stats.collected_epoch,
        )
        for table_name, table_stats in sorted(db.catalog.statistics.items())
        for column_name, cs in table_stats.columns.items()
    ]


def _resource_pools(db) -> List[Tuple[Any, ...]]:
    return [
        (
            p.name, p.memory_mb, p.planned_concurrency, p.max_concurrency,
            p.priority, p.queue_timeout, p.cascade,
        )
        for __, p in sorted(db.catalog.resource_pools.items())
    ]


SYSTEM_TABLES: Dict[str, Tuple[Tuple[str, ...], RowProducer]] = {
    "V_CATALOG.NODES": (("NODE_NAME", "NODE_STATE"), _nodes),
    "V_CATALOG.SEGMENTS": (
        ("TABLE_NAME", "SEGMENT_LOWER_BOUND", "SEGMENT_UPPER_BOUND", "NODE_NAME"),
        _segments,
    ),
    "V_CATALOG.TABLES": (
        ("TABLE_NAME", "IS_SEGMENTED", "ROW_SEGMENTATION"), _tables,
    ),
    "V_CATALOG.COLUMNS": (
        ("TABLE_NAME", "COLUMN_NAME", "DATA_TYPE", "ORDINAL_POSITION"), _columns,
    ),
    "V_CATALOG.EPOCHS": (("CURRENT_EPOCH",), _epochs),
    "V_CATALOG.COLUMN_STATISTICS": (
        (
            "TABLE_NAME", "COLUMN_NAME", "ROW_COUNT", "NULL_COUNT", "NDV",
            "MIN_VALUE", "MAX_VALUE", "HISTOGRAM_BUCKETS", "COLLECTED_EPOCH",
        ),
        _column_statistics,
    ),
    "V_CATALOG.RESOURCE_POOLS": (
        (
            "POOL_NAME", "MEMORY_MB", "PLANNED_CONCURRENCY", "MAX_CONCURRENCY",
            "PRIORITY", "QUEUE_TIMEOUT", "CASCADE_TO",
        ),
        _resource_pools,
    ),
    "V_MONITOR.STORAGE_CONTAINERS": (
        ("NODE_NAME", "TABLE_NAME", "CONTAINER_COUNT", "LIVE_ROWS"),
        storage_container_stats,
    ),
}
