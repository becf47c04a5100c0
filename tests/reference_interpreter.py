"""A frozen copy of the pre-plan-pipeline SELECT interpreter.

This is the row-at-a-time interpreter that ``Engine.select`` used before
the ``repro.vertica.plan`` pipeline replaced it — ported verbatim (minus
telemetry and the AHM check, which are entry-point concerns) and kept
here as the **differential oracle**: ``tests/test_plan_differential.py``
asserts the pipeline produces byte-identical results (rows, columns, and
every CostReport field) for randomly generated queries.

The storage scan underneath it is frozen too: ``_scan`` (with
``_storage_for``, ``_live_rows`` and ``_row``) is the row-at-a-time scan
``Engine.scan`` was before it yielded column slices, verbatim (minus the
``for_update`` every-copy branch, which no SELECT takes).  The oracle
therefore never reads storage through the engine: visibility,
self-deletes, hash-range filtering, buddy-failover attribution, WOS
read-your-writes and ``rows_scanned`` are all checked against this
independent copy.

Do not "fix" behaviour here; its quirks are the specification.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.vertica.engine import (
    CostReport,
    HashRange,
    ResultSet,
    extract_hash_range,
)
from repro.vertica.errors import CatalogError, SqlError
from repro.vertica.expr import ColumnRef, Expression, predicate_holds
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.txn import Transaction


def _value_bytes(value: Any) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return 8


def _live_rows(container, snapshot_epoch: int) -> Iterator[int]:
    """Indices of rows visible at ``snapshot_epoch``."""
    if container.commit_epoch > snapshot_epoch:
        return
    for index, delete_epoch in enumerate(container.delete_epochs):
        if delete_epoch == 0 or delete_epoch > snapshot_epoch:
            yield index


def _row(container, index: int) -> Dict[str, Any]:
    return {name: column[index]
            for name, column in zip(container.column_names, container.columns)}


class LegacyInterpreter:
    """The pre-pipeline per-row-dict SELECT evaluator."""

    def __init__(self, database) -> None:
        self.database = database

    def select(
        self,
        statement: ast.Select,
        txn: Transaction,
        initiator: str,
        cost: Optional[CostReport] = None,
    ) -> ResultSet:
        cost = cost if cost is not None else CostReport()
        snapshot = txn.snapshot_epoch(statement.at_epoch)
        rows, source_columns = self._source_rows(
            statement, txn, initiator, snapshot, cost
        )

        if statement.where is not None:
            rows = [r for r in rows if predicate_holds(statement.where, r[1])]

        has_aggregate = any(item.aggregate for item in statement.items)
        if has_aggregate or statement.group_by:
            columns, out_rows = self._aggregate(statement, rows, initiator, cost)
        else:
            columns, out_rows = self._project(statement, rows, source_columns, cost)

        if statement.order_by:
            out_rows = self._order(statement, columns, out_rows)
        if statement.limit is not None:
            out_rows = out_rows[: statement.limit]
        result_rows = [row for __, row in out_rows]
        return ResultSet(columns, result_rows, cost=cost)

    def _source_rows(
        self,
        statement: ast.Select,
        txn: Transaction,
        initiator: str,
        snapshot: int,
        cost: CostReport,
    ) -> Tuple[List[Tuple[str, Dict[str, Any]]], List[str]]:
        if statement.source is None:
            return [(initiator, {})], []
        source = statement.source
        rows = self._relation_rows(
            source, txn, initiator, snapshot, cost, statement.where
        )
        columns = self._relation_columns(source.name)
        for join in statement.joins:
            right_rows = self._relation_rows(
                join.table, txn, initiator, snapshot, cost, None
            )
            right_columns = self._relation_columns(join.table.name)
            joined: List[Tuple[str, Dict[str, Any]]] = []
            for node, left_row in rows:
                for __, right_row in right_rows:
                    merged = dict(right_row)
                    merged.update(left_row)  # left wins on ambiguity
                    merged.update(
                        {k: v for k, v in right_row.items() if "." in k}
                    )
                    if predicate_holds(
                        join.condition, {**right_row, **left_row, **merged}
                    ):
                        joined.append((node, merged))
            rows = joined
            columns = columns + [c for c in right_columns if c not in columns]
        return rows, columns

    def _relation_columns(self, name: str) -> List[str]:
        db = self.database
        key = name.upper()
        if key == "V_MONITOR.STORAGE_CONTAINERS":
            return ["NODE_NAME", "TABLE_NAME", "CONTAINER_COUNT", "LIVE_ROWS"]
        if db.catalog.is_system_table(key):
            return list(db.catalog.system_table(key)[0])
        if db.catalog.has_view(key):
            view = db.catalog.view(key)
            return self._select_output_columns(view.query)
        return db.catalog.table(key).column_names()

    def _relation_rows(
        self,
        ref: ast.TableRef,
        txn: Transaction,
        initiator: str,
        snapshot: int,
        cost: CostReport,
        where: Optional[Expression],
    ) -> List[Tuple[str, Dict[str, Any]]]:
        db = self.database
        key = ref.name.upper()
        alias = (ref.alias or ref.name.split(".")[-1]).upper()
        if key == "V_MONITOR.STORAGE_CONTAINERS":
            from repro.vertica.tuplemover import storage_container_stats

            out = [
                (
                    initiator,
                    {
                        "NODE_NAME": node,
                        "TABLE_NAME": table,
                        "CONTAINER_COUNT": count,
                        "LIVE_ROWS": rows,
                    },
                )
                for node, table, count, rows in storage_container_stats(db)
            ]
        elif db.catalog.is_system_table(key):
            columns, producer = db.catalog.system_table(key)
            out = [(initiator, dict(zip(columns, row))) for row in producer(db)]
        elif db.catalog.has_view(key):
            out = self._view_rows(key, txn, initiator, snapshot, cost)
        else:
            table = db.catalog.table(key)
            hash_range = extract_hash_range(where, table.segmentation_columns)
            out = list(
                self._scan(
                    key, snapshot, txn, initiator, hash_range=hash_range, cost=cost
                )
            )
        qualified = []
        for node, row in out:
            merged = dict(row)
            for column, value in row.items():
                if "." not in column:
                    merged[f"{alias}.{column}"] = value
            qualified.append((node, merged))
        return qualified

    # -- the frozen row-at-a-time storage scan (see the module docstring) --
    def _scan(
        self,
        table_name: str,
        snapshot_epoch: int,
        txn: Optional[Transaction],
        initiator: str,
        hash_range: Optional[HashRange] = None,
        cost: Optional[CostReport] = None,
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        db = self.database
        table = db.catalog.table(table_name)
        hash_range = hash_range or HashRange()
        if table.unsegmented:
            nodes = [initiator]
        else:
            nodes = []
            assert table.ring is not None
            for segment in table.ring.segments:
                if hash_range.intersects(segment.lo, segment.hi):
                    nodes.append(segment.node)
        for node in nodes:
            storage, attributed = self._storage_for(node, table_name)
            for container in storage:
                for row_index in _live_rows(container, snapshot_epoch):
                    if txn is not None and txn.is_deleted_by_self(container, row_index):
                        continue
                    if cost is not None:
                        cost.scanned(attributed)
                    row_hash = container.row_hashes[row_index]
                    if not table.unsegmented and not (
                        hash_range.lo <= row_hash < hash_range.hi
                    ):
                        continue
                    yield attributed, _row(container, row_index)
        # Read-your-writes: rows staged by this transaction.
        if txn is not None:
            pending_nodes = set(nodes)
            for (wos_table, node), buffer in list(txn.wos.items()):
                if wos_table != table.name or node not in pending_nodes:
                    continue
                for index, row in enumerate(zip(*buffer.columns)):
                    if cost is not None:
                        cost.scanned(node)
                    row_hash = buffer.row_hashes[index]
                    if not table.unsegmented and not (
                        hash_range.lo <= row_hash < hash_range.hi
                    ):
                        continue
                    yield node, dict(zip(buffer.column_names, row))

    def _storage_for(self, node: str, table_name: str):
        db = self.database
        key = table_name.upper()
        if db.node_states.get(node, "UP") == "UP":
            return db.storage[node].table_containers(key), node
        if db.k_safety >= 1:
            buddy = db.buddy_of(node)
            if db.node_states.get(buddy, "UP") == "UP":
                return db.storage[buddy].replica_containers(key), buddy
        raise CatalogError(
            f"node {node!r} is down and no replica is available (k-safety "
            f"{db.k_safety})"
        )

    def _view_rows(
        self,
        view_name: str,
        txn: Transaction,
        initiator: str,
        snapshot: int,
        cost: CostReport,
    ) -> List[Tuple[str, Dict[str, Any]]]:
        from repro.vertica.hashring import synthetic_ring, vertica_hash

        db = self.database
        view = db.catalog.view(view_name)
        query = view.query
        if query.at_epoch is None and snapshot is not None:
            query = ast.Select(
                query.items,
                query.source,
                joins=query.joins,
                where=query.where,
                group_by=query.group_by,
                having=query.having,
                order_by=query.order_by,
                limit=query.limit,
                at_epoch=snapshot,
            )
        result = self.select(query, txn, initiator, cost=cost)
        ring = synthetic_ring(db.node_names)
        out = []
        for row in result.rows:
            data = dict(zip(result.columns, row))
            values = [data[k] for k in sorted(data)]
            node = ring.node_for(vertica_hash(*values)) if values else initiator
            out.append((node, data))
        return out

    def _select_output_columns(self, statement: ast.Select) -> List[str]:
        out: List[str] = []
        for item in statement.items:
            if item.star:
                if statement.source is None:
                    raise SqlError("SELECT * requires a FROM clause")
                out.extend(self._relation_columns(statement.source.name))
                for join in statement.joins:
                    for column in self._relation_columns(join.table.name):
                        if column not in out:
                            out.append(column)
            else:
                out.append(self._item_name(item))
        return out

    @staticmethod
    def _item_name(item: ast.SelectItem) -> str:
        if item.alias:
            return item.alias
        if item.aggregate:
            if item.aggregate_arg is None:
                return f"{item.aggregate}(*)"
            return f"{item.aggregate}({item.aggregate_arg.sql()})"
        if item.udf:
            return item.udf
        assert item.expression is not None
        if isinstance(item.expression, ColumnRef):
            return item.expression.name.split(".")[-1]
        return item.expression.sql()

    def _project(
        self,
        statement: ast.Select,
        rows: List[Tuple[str, Dict[str, Any]]],
        source_columns: List[str],
        cost: CostReport,
    ) -> Tuple[List[str], List[Tuple[str, Tuple[Any, ...]]]]:
        db = self.database
        columns: List[str] = []
        extractors = []
        for item in statement.items:
            if item.star:
                for column in source_columns:
                    columns.append(column)
                    extractors.append(lambda row, c=column: row.get(c))
            elif item.udf:
                columns.append(self._item_name(item))
                function = db.udx.lookup(item.udf)
                extractors.append(
                    lambda row, f=function, it=item: f(
                        [a.evaluate(row) for a in it.udf_args], it.parameters
                    )
                )
            else:
                columns.append(self._item_name(item))
                assert item.expression is not None
                extractors.append(lambda row, e=item.expression: e.evaluate(row))
        out: List[Tuple[str, Tuple[Any, ...]]] = []
        for node, row in rows:
            values = tuple(extract(row) for extract in extractors)
            nbytes = sum(_value_bytes(v) for v in values)
            cost.output(node, nbytes)
            out.append((node, values))
        return columns, out

    def _aggregate(
        self,
        statement: ast.Select,
        rows: List[Tuple[str, Dict[str, Any]]],
        initiator: str,
        cost: CostReport,
    ) -> Tuple[List[str], List[Tuple[str, Tuple[Any, ...]]]]:
        for node, __ in rows:
            cost.aggregated(node)
        groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
        if statement.group_by:
            for __, row in rows:
                key = tuple(expr.evaluate(row) for expr in statement.group_by)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = [row for __, row in rows]

        columns = [self._item_name(item) for item in statement.items]
        out: List[Tuple[str, Tuple[Any, ...]]] = []
        for key in groups:
            group_rows = groups[key]
            values: List[Any] = []
            for item in statement.items:
                if item.aggregate:
                    values.append(self._aggregate_value(item, group_rows))
                elif item.expression is not None:
                    if not group_rows:
                        values.append(None)
                    else:
                        values.append(item.expression.evaluate(group_rows[0]))
                else:
                    raise SqlError("SELECT * cannot be combined with aggregates")
            row_tuple = tuple(values)
            if statement.having is not None:
                output_row = dict(zip(columns, row_tuple))
                if not predicate_holds(statement.having, output_row):
                    continue
            cost.output(initiator, sum(_value_bytes(v) for v in row_tuple))
            out.append((initiator, row_tuple))
        if not statement.group_by and not out:
            row_tuple = tuple(
                self._aggregate_value(item, []) if item.aggregate else None
                for item in statement.items
            )
            out.append((initiator, row_tuple))
        return columns, out

    @staticmethod
    def _aggregate_value(
        item: ast.SelectItem, group_rows: List[Dict[str, Any]]
    ) -> Any:
        name = item.aggregate
        if item.aggregate_arg is None:
            if name != "COUNT":
                raise SqlError(f"{name} requires an argument")
            return len(group_rows)
        values = [item.aggregate_arg.evaluate(row) for row in group_rows]
        values = [v for v in values if v is not None]
        if item.distinct:
            values = list(dict.fromkeys(values))
        if name == "COUNT":
            return len(values)
        if not values:
            return None
        if name == "SUM":
            return sum(values)
        if name == "AVG":
            return sum(values) / len(values)
        if name == "MIN":
            return min(values)
        if name == "MAX":
            return max(values)
        raise SqlError(f"unknown aggregate {name!r}")  # pragma: no cover

    def _order(
        self,
        statement: ast.Select,
        columns: List[str],
        out_rows: List[Tuple[str, Tuple[Any, ...]]],
    ) -> List[Tuple[str, Tuple[Any, ...]]]:
        def sort_key(entry: Tuple[str, Tuple[Any, ...]]):
            __, row = entry
            data = dict(zip(columns, row))
            key = []
            for order in statement.order_by:
                try:
                    value = order.expression.evaluate(data)
                except SqlError:
                    value = None
                null_rank = 1 if value is None else 0
                if order.descending:
                    key.append((null_rank, _Reversed(value)))
                else:
                    key.append((null_rank, _Sortable(value)))
            return tuple(key)

        return sorted(out_rows, key=sort_key)


class _Sortable:
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Sortable") -> bool:
        a, b = self.value, other.value
        if a is None or b is None:
            return False
        try:
            return a < b
        except TypeError:
            return str(a) < str(b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Sortable) and self.value == other.value


class _Reversed(_Sortable):
    def __lt__(self, other: "_Sortable") -> bool:  # type: ignore[override]
        a, b = self.value, other.value
        if a is None or b is None:
            return False
        try:
            return b < a
        except TypeError:
            return str(b) < str(a)
