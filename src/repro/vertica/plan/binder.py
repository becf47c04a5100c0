"""Binder: resolve a parsed ``Select`` into a logical plan.

The binder consults only the catalog (table/view/system-table
resolution, column lists); it never touches storage and never evaluates
expressions, so queries over empty tables keep the legacy behaviour of
not raising for column references that are never evaluated.

Output-column names are computed here, *before* the optimizer rewrites
any expressions — constant folding must not rename a ``SELECT 1+2``
column from ``(1 + 2)`` to ``3``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.vertica.errors import SqlError
from repro.vertica.expr import Expression
from repro.vertica.plan.logical import (
    Aggregate,
    ConstantRelation,
    Filter,
    Join,
    Limit,
    LogicalNode,
    LogicalPlan,
    Project,
    RelationNode,
    Sort,
    SystemTableScan,
    TableScan,
    ViewScan,
    _item_name,
)
from repro.vertica.sql import ast_nodes as ast


def bind_select(database, statement: ast.Select) -> LogicalPlan:
    """Bind one SELECT against the catalog into a logical tree."""
    source_columns: List[str] = []
    if statement.source is None:
        root: LogicalNode = ConstantRelation()
    else:
        root = _bind_relation(database, statement.source)
        source_columns = relation_columns(database, statement.source.name)
        for join in statement.joins:
            right = _bind_relation(database, join.table)
            right_columns = relation_columns(database, join.table.name)
            root = Join(root, right, join.condition)
            source_columns = source_columns + [
                c for c in right_columns if c not in source_columns
            ]

    if statement.where is not None:
        root = Filter(root, statement.where)

    has_aggregate = any(item.aggregate for item in statement.items)
    if has_aggregate or statement.group_by:
        output_columns = [_item_name(item) for item in statement.items]
        root = Aggregate(
            root, statement.items, statement.group_by, statement.having,
            output_columns,
        )
    else:
        output_columns = []
        for item in statement.items:
            if item.star:
                output_columns.extend(source_columns)
            else:
                output_columns.append(_item_name(item))
        root = Project(root, statement.items, source_columns, output_columns)

    if statement.order_by:
        root = Sort(root, statement.order_by)
    if statement.limit is not None:
        root = Limit(root, statement.limit)
    return LogicalPlan(root, statement, output_columns, source_columns)


def bind_dml_scan(
    database, table_name: str, where: Optional[Expression]
) -> LogicalPlan:
    """Bind the matching scan of an UPDATE/DELETE.

    DML scans read every physical copy (``for_update``), add no
    alias-qualified columns, and are exempt from hash-range tightening
    and projection pruning — the statement needs full rows of every
    replica, and its CostReport must count every copy's rows.
    """
    table = database.catalog.table(table_name)
    scan = TableScan(table.name, table.name, table)
    scan.for_update = True
    scan.qualify = False
    scan.predicate = where
    columns = table.column_names()
    plan = LogicalPlan(scan, None, columns, columns)
    plan.pristine_where = where
    return plan


def _bind_relation(database, ref: ast.TableRef) -> RelationNode:
    key = ref.name.upper()
    alias = (ref.alias or ref.name.split(".")[-1]).upper()
    if database.catalog.is_system_table(key):
        return SystemTableScan(key, alias)
    if database.catalog.has_view(key):
        return ViewScan(key, alias)
    table = database.catalog.table(key)  # raises CatalogError when unknown
    return TableScan(key, alias, table)


def relation_columns(database, name: str) -> List[str]:
    """Column order of a relation (for ``*`` expansion), legacy rules."""
    key = name.upper()
    if database.catalog.is_system_table(key):
        return list(database.catalog.system_table(key)[0])
    if database.catalog.has_view(key):
        view = database.catalog.view(key)
        return select_output_columns(database, view.query)
    return database.catalog.table(key).column_names()


def select_output_columns(database, statement: ast.Select) -> List[str]:
    """Output columns of a nested SELECT (view column resolution)."""
    out: List[str] = []
    for item in statement.items:
        if item.star:
            if statement.source is None:
                raise SqlError("SELECT * requires a FROM clause")
            out.extend(relation_columns(database, statement.source.name))
            for join in statement.joins:
                for column in relation_columns(database, join.table.name):
                    if column not in out:
                        out.append(column)
        else:
            out.append(_item_name(item))
    return out
