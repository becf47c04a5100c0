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
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.vertica.errors import CatalogError, SqlError
from repro.vertica.hashring import HashRing
from repro.vertica.sql import ast_nodes as ast


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

    def row_width(self, row: Dict[str, Any]) -> int:
        total = 0
        for column_def in self.columns:
            total += column_def.sql_type.value_width(row.get(column_def.name))
        return total


class ViewDef:
    """A named stored query."""

    def __init__(self, name: str, query: ast.Select, sql_text: str = ""):
        self.name = name
        self.query = query
        self.sql_text = sql_text


class Catalog:
    """Tables and views, plus virtual system-table generation."""

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
        return name.upper().startswith(("V_CATALOG.", "V_MONITOR."))

    def system_table_rows(
        self, name: str, current_epoch: int, node_states: Dict[str, str]
    ) -> Tuple[List[str], List[Dict[str, Any]]]:
        """Columns and rows for one virtual system table."""
        key = name.upper()
        if key == "V_CATALOG.NODES":
            columns = ["NODE_NAME", "NODE_STATE"]
            rows = [
                {"NODE_NAME": n, "NODE_STATE": node_states.get(n, "UP")}
                for n in self.node_names
            ]
            return columns, rows
        if key == "V_CATALOG.SEGMENTS":
            columns = [
                "TABLE_NAME",
                "SEGMENT_LOWER_BOUND",
                "SEGMENT_UPPER_BOUND",
                "NODE_NAME",
            ]
            rows = []
            for table in self.tables.values():
                if table.ring is None:
                    continue
                for segment in table.ring.segments:
                    rows.append(
                        {
                            "TABLE_NAME": table.name,
                            "SEGMENT_LOWER_BOUND": segment.lo,
                            "SEGMENT_UPPER_BOUND": segment.hi,
                            "NODE_NAME": segment.node,
                        }
                    )
            return columns, rows
        if key == "V_CATALOG.TABLES":
            columns = ["TABLE_NAME", "IS_SEGMENTED", "ROW_SEGMENTATION"]
            rows = [
                {
                    "TABLE_NAME": t.name,
                    "IS_SEGMENTED": not t.unsegmented,
                    "ROW_SEGMENTATION": ",".join(t.segmentation_columns),
                }
                for t in self.tables.values()
            ]
            return columns, rows
        if key == "V_CATALOG.COLUMNS":
            columns = ["TABLE_NAME", "COLUMN_NAME", "DATA_TYPE", "ORDINAL_POSITION"]
            rows = []
            for table in self.tables.values():
                for position, column_def in enumerate(table.columns):
                    rows.append(
                        {
                            "TABLE_NAME": table.name,
                            "COLUMN_NAME": column_def.name,
                            "DATA_TYPE": column_def.sql_type.name,
                            "ORDINAL_POSITION": position,
                        }
                    )
            return columns, rows
        if key == "V_CATALOG.EPOCHS":
            return ["CURRENT_EPOCH"], [{"CURRENT_EPOCH": current_epoch}]
        if key == "V_CATALOG.COLUMN_STATISTICS":
            from repro.vertica import stats as stats_module

            return stats_module.system_table_rows(self.statistics)
        if key == "V_CATALOG.RESOURCE_POOLS":
            columns = [
                "POOL_NAME",
                "MEMORY_MB",
                "PLANNED_CONCURRENCY",
                "MAX_CONCURRENCY",
                "PRIORITY",
                "QUEUE_TIMEOUT",
                "CASCADE_TO",
            ]
            rows = [
                {
                    "POOL_NAME": p.name,
                    "MEMORY_MB": p.memory_mb,
                    "PLANNED_CONCURRENCY": p.planned_concurrency,
                    "MAX_CONCURRENCY": p.max_concurrency,
                    "PRIORITY": p.priority,
                    "QUEUE_TIMEOUT": p.queue_timeout,
                    "CASCADE_TO": p.cascade,
                }
                for _, p in sorted(self.resource_pools.items())
            ]
            return columns, rows
        raise SqlError(f"unknown system table {name!r}")
