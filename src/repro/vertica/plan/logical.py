"""Typed logical plan nodes.

The binder produces a tree of these from a parsed ``Select``; the
optimizer rewrites the tree in place.  Nodes hold *resolved* catalog
references (``TableDef`` for table scans) but never touch storage —
execution belongs to :mod:`repro.vertica.plan.physical`.

Tree shape (top-down)::

    Limit -> Sort -> (Project | Aggregate) -> [Filter] -> [Join]* -> relation

where a relation is one of ``ConstantRelation`` (no FROM),
``TableScan``, ``SystemTableScan`` or ``ViewScan``.  Joins are left-deep:
each ``Join`` node's right side is a bare relation, mirroring the
FROM-list the parser produces.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set

from repro.vertica.engine import HashRange
from repro.vertica.expr import Expression
from repro.vertica.sql import ast_nodes as ast


class LogicalNode:
    """Base class; ``children`` drive generic tree walks."""

    #: cost-model output-row estimate (None until the estimation pass runs,
    #: or when no estimate is possible — e.g. below a view expansion)
    estimated_rows: Optional[int] = None

    def children(self) -> List["LogicalNode"]:
        return []

    def label(self) -> str:
        raise NotImplementedError


class RelationNode(LogicalNode):
    """A leaf producing rows; carries the FROM-clause alias."""

    alias: str = ""


class ConstantRelation(RelationNode):
    """SELECT without FROM: exactly one empty row on the initiator."""

    def label(self) -> str:
        return "EXPR: constant projection (no FROM)"


class TableScan(RelationNode):
    """A base-table scan, the only node the optimizer pushes into."""

    def __init__(self, key: str, alias: str, table: Any):
        self.key = key
        self.alias = alias
        self.table = table  # catalog TableDef
        #: predicate pushed below batching (applied row-wise during scan)
        self.predicate: Optional[Expression] = None
        #: segment restriction extracted from the WHERE clause
        self.hash_range: Optional[HashRange] = None
        #: pruned column subset; None means all table columns
        self.columns: Optional[List[str]] = None
        #: DML matching scans read every physical copy and skip pruning
        self.for_update: bool = False
        #: expose ``ALIAS.column`` names alongside plain ones (SELECT only)
        self.qualify: bool = True

    def label(self) -> str:
        if self.table.unsegmented:
            return f"SCAN {self.key} [unsegmented]"
        seg = ", ".join(self.table.segmentation_columns)
        return f"SCAN {self.key} [segmented by HASH({seg})]"


class SystemTableScan(RelationNode):
    def __init__(self, key: str, alias: str):
        self.key = key
        self.alias = alias

    def label(self) -> str:
        return f"SCAN SYSTEM TABLE {self.key}"


class ViewScan(RelationNode):
    """A view reference, expanded through the full pipeline at execution."""

    def __init__(self, key: str, alias: str):
        self.key = key
        self.alias = alias

    def label(self) -> str:
        return f"SCAN VIEW {self.key} (expanded at execution)"


class Join(LogicalNode):
    """Inner join; right side is always a bare relation.

    The optimizer's join-strategy rule annotates the physical choice:
    ``strategy`` (``hash`` or ``nested-loop``), the equi-join key pairs it
    extracted from the condition, and whether the two sides are
    identically segmented on those keys (``colocated`` — the paper's
    shuffle-free co-located join).  A hash join's build side is no plan
    decision: the operator builds on the input it holds fewer rows of.
    """

    def __init__(self, left: LogicalNode, right: RelationNode, condition: Expression):
        self.left = left
        self.right = right
        self.condition = condition
        self.strategy: str = "nested-loop"
        #: equi-join key pairs as (left expr name, right expr name)
        self.equi_keys: List[Any] = []
        self.colocated: bool = False
        #: a hash join whose condition is its equi keys alone, over
        #: one type class: a key-equal candidate is a match, unvalidated
        self.keys_decide: bool = False
        #: the names the operators above read; the join emits only those
        #: (None: all, something above reads the whole row)
        self.read_above: Optional[Set[str]] = None
        #: set on every join of a cost-reordered chain; the executor then
        #: tracks row provenance so output order can be restored
        self.reorder_chain: bool = False
        #: on the chain root only: relation aliases in original binder
        #: order — the executor sorts final pairs back into this order so
        #: reordering never changes the emitted byte sequence
        self.restore_order: Optional[List[str]] = None

    def children(self) -> List[LogicalNode]:
        return [self.left, self.right]

    def label(self, build_side: Optional[str] = None) -> str:
        """``build_side``: the input an executed hash join built on."""
        name = getattr(self.right, "key", "?")
        base = f"JOIN {name} ON {self.condition.sql()}"
        notes = [f"{self.strategy} join"]
        if build_side is not None:
            notes.append(f"build: {build_side}")
        if self.keys_decide:
            notes.append("keys decide")
        if self.colocated:
            notes.append("co-located")
        if self.reorder_chain:
            notes.append("reordered")
        return f"{base} [{', '.join(notes)}]"


class Filter(LogicalNode):
    def __init__(self, child: LogicalNode, predicate: Expression):
        self.child = child
        self.predicate = predicate

    def children(self) -> List[LogicalNode]:
        return [self.child]

    def label(self) -> str:
        return f"FILTER: {self.predicate.sql()}"


class Project(LogicalNode):
    """Scalar projection (select list without aggregates)."""

    def __init__(
        self,
        child: LogicalNode,
        items: Sequence[ast.SelectItem],
        source_columns: Sequence[str],
        output_columns: Sequence[str],
    ):
        self.child = child
        self.items = list(items)
        self.source_columns = list(source_columns)
        self.output_columns = list(output_columns)

    def children(self) -> List[LogicalNode]:
        return [self.child]

    def label(self) -> str:
        names = ", ".join(
            "*" if item.star else _item_name(item) for item in self.items
        )
        return f"PROJECT: {names}"


class Aggregate(LogicalNode):
    """GROUP BY / aggregate evaluation (one output row per group)."""

    def __init__(
        self,
        child: LogicalNode,
        items: Sequence[ast.SelectItem],
        group_by: Sequence[Expression],
        having: Optional[Expression],
        output_columns: Sequence[str],
    ):
        self.child = child
        self.items = list(items)
        self.group_by = list(group_by)
        self.having = having
        self.output_columns = list(output_columns)

    def children(self) -> List[LogicalNode]:
        return [self.child]

    def label(self) -> str:
        names = ", ".join(_item_name(item) for item in self.items)
        return f"AGGREGATE: {names}"


class Sort(LogicalNode):
    def __init__(self, child: LogicalNode, order_by: Sequence[ast.OrderItem]):
        self.child = child
        self.order_by = list(order_by)

    def children(self) -> List[LogicalNode]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(
            o.expression.sql() + (" DESC" if o.descending else "")
            for o in self.order_by
        )
        return f"SORT: {keys}"


class Limit(LogicalNode):
    def __init__(self, child: LogicalNode, count: int):
        self.child = child
        self.count = count

    def children(self) -> List[LogicalNode]:
        return [self.child]

    def label(self) -> str:
        return f"LIMIT: {self.count}"


class LogicalPlan:
    """A bound (and later optimized) plan plus its static metadata."""

    def __init__(
        self,
        root: LogicalNode,
        statement: ast.Select,
        output_columns: List[str],
        source_columns: List[str],
    ):
        self.root = root
        self.statement = statement
        self.output_columns = output_columns
        self.source_columns = source_columns
        #: the WHERE clause exactly as parsed — hash-range tightening reads
        #: this (not the folded copy) so pruning matches the legacy
        #: interpreter conjunct-for-conjunct
        self.pristine_where: Optional[Expression] = (
            statement.where if statement is not None else None
        )
        #: names of optimizer rules that rewrote the tree, in firing order
        self.rules_applied: List[str] = []

    def nodes(self) -> List[LogicalNode]:
        out: List[LogicalNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children()))
        return out


def _item_name(item: ast.SelectItem) -> str:
    """Output-column name of one select-list item (legacy rules)."""
    from repro.vertica.expr import ColumnRef

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
