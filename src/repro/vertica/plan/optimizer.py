"""Rule-based optimizer over the logical plan.

Rules run in a fixed order and record their names in
``plan.rules_applied`` when they rewrite the tree:

1. **constant folding** — literal-only subexpressions are evaluated at
   plan time.  A subtree whose evaluation raises (``1/0``) is left
   unfolded so the error still surfaces at execution, exactly when the
   legacy interpreter raised it (i.e. never, for queries that evaluate
   zero rows).
2. **hash-range tightening** — ``extract_hash_range`` over the *pristine*
   WHERE clause (as parsed, not the folded copy — folding could make new
   conjuncts recognisable and change which segments the legacy
   interpreter would have scanned, breaking byte-identical CostReports)
   restricts the FROM table's scan to intersecting segments — and to
   the rows whose stored hash lies in the range, which *is* the answer
   to the conjuncts the range fully absorbed.
3. **predicate pushdown** — with a single-table FROM (no joins), the
   Filter node collapses into the scan, which applies the predicate
   row-wise while batching — minus the conjuncts rule 2 absorbed
   (``_without_absorbed``).  Views and system tables keep their Filter
   above (their rows are computed, not scanned).
4. **projection pruning** — base-table scans materialize only columns
   referenced anywhere in the query.  Disabled whenever ``*`` or
   ``SYNTHETIC_HASH()`` appears (both observe entire rows).

DML matching scans (``for_update``) only ever get constant folding: the
statement must visit and charge every replica row, so tightening/pruning
would change its CostReport.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import telemetry
from repro.vertica.engine import HASH_SPACE, HashRange, extract_hash_range
from repro.vertica.errors import VerticaError
from repro.vertica.expr import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
    reads_whole_row,
    split_and,
)
from repro.vertica.plan import logical
from repro.vertica.plan.logical import LogicalPlan, TableScan
from repro.vertica.sql import ast_nodes as ast

RULE_CONSTANT_FOLDING = "constant folding"
RULE_HASH_RANGE = "hash-range tightening"
RULE_PREDICATE_PUSHDOWN = "predicate pushdown"
RULE_PROJECTION_PRUNING = "projection pruning"
RULE_JOIN_REORDER = "join reordering"
RULE_JOIN_STRATEGY = "join-strategy selection"


def optimize(plan: LogicalPlan, database) -> LogicalPlan:
    """Apply all rules in order, recording the ones that fired.

    ``database`` supplies catalog statistics only; no session setting
    reaches the optimizer.
    """
    if _fold_plan(plan):
        plan.rules_applied.append(RULE_CONSTANT_FOLDING)
    if _tighten_hash_range(plan):
        plan.rules_applied.append(RULE_HASH_RANGE)
    if _push_predicate(plan):
        plan.rules_applied.append(RULE_PREDICATE_PUSHDOWN)
    if _prune_columns(plan):
        plan.rules_applied.append(RULE_PROJECTION_PRUNING)
    _estimate_node(plan.root, database)
    if _reorder_joins(plan, database):
        plan.rules_applied.append(RULE_JOIN_REORDER)
        _estimate_node(plan.root, database)  # re-stamp the new shape
    if _plan_joins(plan):
        plan.rules_applied.append(RULE_JOIN_STRATEGY)
    return plan


# ---------------------------------------------------------------- folding
def fold_expression(expr: Expression) -> Tuple[Expression, bool]:
    """Fold literal-only subtrees; returns (new expression, changed?)."""
    if isinstance(expr, FunctionCall) and expr.name == "SYNTHETIC_HASH":
        return expr, False  # observes the whole row; never foldable
    if not expr.children() and not isinstance(expr, FunctionCall):
        return expr, False  # a leaf (a call of no arguments still folds)
    folded = [fold_expression(child) for child in expr.children()]
    changed = any(c for __, c in folded)
    children = [child for child, __ in folded]
    node = expr.with_children(children) if changed else expr
    return _try_fold(node, children, changed)


def _try_fold(
    node: Expression, children: List[Expression], changed: bool
) -> Tuple[Expression, bool]:
    if all(isinstance(c, Literal) for c in children):
        try:
            return Literal(node.evaluate({})), True
        except VerticaError:
            # Leave unfolded: the *user's* error (if the row count makes
            # it reachable at all) must surface at execution time.  Only
            # the engine's own evaluation errors qualify — anything else
            # (a TypeError from a malformed evaluate, an AttributeError)
            # is a programming bug and must propagate, not silently
            # disable folding.
            pass
    return node, changed


def _fold_optional(expr: Optional[Expression]) -> Tuple[Optional[Expression], bool]:
    if expr is None:
        return None, False
    return fold_expression(expr)


def _fold_item(item: ast.SelectItem) -> Tuple[ast.SelectItem, bool]:
    expression, ec = _fold_optional(item.expression)
    aggregate_arg, ac = _fold_optional(item.aggregate_arg)
    folded_args = [fold_expression(a) for a in item.udf_args]
    uc = any(c for __, c in folded_args)
    if not (ec or ac or uc):
        return item, False
    return (
        dc_replace(
            item,
            expression=expression,
            aggregate_arg=aggregate_arg,
            udf_args=[a for a, __ in folded_args],
        ),
        True,
    )


def _fold_plan(plan: LogicalPlan) -> bool:
    changed = False
    for node in plan.nodes():
        if isinstance(node, TableScan) and node.predicate is not None:
            node.predicate, c = fold_expression(node.predicate)
            changed |= c
        elif isinstance(node, logical.Filter):
            node.predicate, c = fold_expression(node.predicate)
            changed |= c
        elif isinstance(node, logical.Join):
            node.condition, c = fold_expression(node.condition)
            changed |= c
        elif isinstance(node, logical.Project):
            for i, item in enumerate(node.items):
                node.items[i], c = _fold_item(item)
                changed |= c
        elif isinstance(node, logical.Aggregate):
            for i, item in enumerate(node.items):
                node.items[i], c = _fold_item(item)
                changed |= c
            for i, expr in enumerate(node.group_by):
                node.group_by[i], c = fold_expression(expr)
                changed |= c
            node.having, c = _fold_optional(node.having)
            changed |= c
        elif isinstance(node, logical.Sort):
            for i, order in enumerate(node.order_by):
                folded, c = fold_expression(order.expression)
                if c:
                    node.order_by[i] = ast.OrderItem(folded, order.descending)
                    changed = True
    return changed


# ---------------------------------------------------------- hash tightening
def _from_scan(plan: LogicalPlan) -> Optional[TableScan]:
    """The FROM-clause table scan (leftmost leaf), if it is a base table."""
    node = plan.root
    while True:
        if isinstance(node, logical.Join):
            node = node.left
            continue
        children = node.children()
        if not children:
            break
        node = children[0]
    return node if isinstance(node, TableScan) else None


def _tighten_hash_range(plan: LogicalPlan) -> bool:
    scan = _from_scan(plan)
    if scan is None or scan.for_update:
        return False
    hash_range = extract_hash_range(
        plan.pristine_where, scan.table.segmentation_columns
    )
    scan.hash_range = hash_range
    return not hash_range.is_full


def _without_absorbed(
    predicate: Expression, hash_range: HashRange
) -> Optional[Expression]:
    """``predicate`` minus the conjuncts the scan's hash range answered.

    Dropping them changes nothing a statement can observe:

    1. ``Engine.scan`` keeps exactly the rows with ``lo <= row_hashes[i]
       < hi``, and ``row_hashes[i]`` is ``vertica_hash`` of row *i*'s
       segmentation values for every row a writer can stage
       (``Engine.insert_rows`` computes it; mergeout and the k-safety
       replicas copy it).  On the scan's output an absorbed conjunct is
       therefore True — never NULL, a hash is an int — and ``True AND x``
       is ``x`` under the filter's strictly-True rule.
    2. It cannot have raised: the hash was computable at insert over the
       same stored values, its arguments are the table's own columns and
       int-vs-int comparison does not raise.  So the eagerly evaluated
       *other* conjuncts see the same rows and raise the same first error.
    3. A ``CostReport`` charges nothing to the predicate: ``scanned`` is
       counted per slice before the hash filter, output rows and bytes
       are the survivors', and the survivors are the same rows in order.

    Absorbed means the very objects ``extract_hash_range`` read in the
    pristine WHERE.  A conjunct the folder rewrote (``HASH(a) >= 1 + 1``)
    is a new object the range never saw, and stays.
    """
    if not hash_range.absorbed:
        return predicate
    absorbed = {id(conjunct) for conjunct in hash_range.absorbed}
    rest = [c for c in split_and(predicate) if id(c) not in absorbed]
    return _rebuild_and(rest) if rest else None


# ------------------------------------------------------------- pushdown
def _push_predicate(plan: LogicalPlan) -> bool:
    changed = False
    for node in plan.nodes():
        if not isinstance(node, logical.Filter):
            continue
        child = node.child
        if isinstance(child, TableScan) and not child.for_update:
            # no join below the Filter: this is the FROM scan rule 2 ranged
            child.predicate = _without_absorbed(node.predicate, child.hash_range)
            _splice_out(plan, node, child)
            changed = True
        elif isinstance(child, logical.Join):
            changed |= _push_below_join(plan, node, child)
    return changed


def _rebuild_and(parts: List[Expression]) -> Expression:
    out = parts[0]
    for part in parts[1:]:
        out = BinaryOp("AND", out, part)
    return out


def _join_scans(node: logical.LogicalNode) -> Optional[List[TableScan]]:
    """All leaves of a join subtree, or None if any is not a base table."""
    if isinstance(node, logical.Join):
        left = _join_scans(node.left)
        right = _join_scans(node.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, TableScan):
        return [node]
    return None


def _scan_type_classes(scans: List[TableScan]) -> Dict[str, str]:
    """Column name -> 'num'/'str' for every resolvable name in the subtree.

    Plain names resolve left-first, matching the left-wins merge the join
    applies to ambiguous columns; alias-qualified names are unambiguous.
    """
    types: Dict[str, str] = {}
    for scan in scans:
        for column_def in scan.table.columns:
            type_name = column_def.sql_type.name
            klass = "str" if type_name.startswith("VARCHAR") else "num"
            types.setdefault(column_def.name, klass)
            types[f"{scan.alias}.{column_def.name}"] = klass
    return types


def _subtree_names(node: logical.LogicalNode) -> Set[str]:
    if isinstance(node, TableScan):
        names = set(node.table.column_names())
        names.update(f"{node.alias}.{c}" for c in node.table.column_names())
        return names
    if isinstance(node, logical.Join):
        return _subtree_names(node.left) | _subtree_names(node.right)
    return set()


_EQUALITY_OPS = ("=", "<>", "!=")
_RANGE_OPS = ("<", "<=", ">", ">=")


def _operand_class(expr: Expression, types: Dict[str, str]) -> Optional[str]:
    if isinstance(expr, Literal):
        if expr.value is None:
            return "null"
        if isinstance(expr.value, str):
            return "str"
        if isinstance(expr.value, (bool, int, float)):
            return "num"
        return None
    if isinstance(expr, ColumnRef):
        return types.get(expr.name)
    return None


def _is_simple(expr: Expression) -> bool:
    return isinstance(expr, (Literal, ColumnRef))


def _never_raises(expr: Expression, types: Dict[str, str]) -> bool:
    """Conservatively true when evaluating ``expr`` can never raise.

    The legacy interpreter's AND/OR are *eager*: every WHERE conjunct and
    every join condition is evaluated on every joined row.  Pushing a
    conjunct below a join skips those evaluations for the rows it
    excludes, which is only indistinguishable from the legacy order when
    none of the skipped evaluations could have raised.  Operands are
    restricted to bare columns/literals; ranged comparisons additionally
    need both type classes known and equal (mixed-type comparison raises
    ``SqlError``), and ``BETWEEN``/arithmetic are excluded outright.
    """
    if isinstance(expr, (Literal, ColumnRef)):
        return True  # ref presence is guaranteed by the side-name check
    if isinstance(expr, BinaryOp):
        if expr.op in ("AND", "OR"):
            return _never_raises(expr.left, types) and _never_raises(
                expr.right, types
            )
        if expr.op in _EQUALITY_OPS:
            return _is_simple(expr.left) and _is_simple(expr.right)
        if expr.op in _RANGE_OPS:
            if not (_is_simple(expr.left) and _is_simple(expr.right)):
                return False
            left = _operand_class(expr.left, types)
            right = _operand_class(expr.right, types)
            if left == "null" or right == "null":
                return True  # NULL comparison short-circuits to NULL
            return left is not None and left == right
        return False
    if isinstance(expr, UnaryOp):
        return expr.op == "NOT" and _never_raises(expr.operand, types)
    if isinstance(expr, (IsNull, Like)):
        return _is_simple(expr.operand)
    if isinstance(expr, InList):
        return _is_simple(expr.operand) and all(
            isinstance(o, Literal) for o in expr.options
        )
    return False


def _merge_side(
    name: str, left_names: Set[str], right_names: Set[str]
) -> Optional[str]:
    """Which side's value ``name`` resolves to under the join merge.

    The merge is right ∪ left (left wins) with the right side's
    *qualified* names re-applied last — so qualified names resolve right
    first, plain names left first.
    """
    if "." in name:
        if name in right_names:
            return "right"
        if name in left_names:
            return "left"
    else:
        if name in left_names:
            return "left"
        if name in right_names:
            return "right"
    return None


def _push_target(
    join: logical.Join, conjunct: Expression
) -> Optional[TableScan]:
    """The scan a one-sided conjunct can move into, descending the chain."""
    refs = set(conjunct.columns())
    node: logical.LogicalNode = join
    while isinstance(node, logical.Join):
        left_names = _subtree_names(node.left)
        right_names = _subtree_names(node.right)
        sides = {_merge_side(r, left_names, right_names) for r in refs}
        if sides == {"left"}:
            node = node.left
            continue
        if sides == {"right"}:
            node = node.right
            continue
        return None
    if isinstance(node, TableScan) and not node.for_update:
        return node
    return None


def _push_below_join(
    plan: LogicalPlan, filter_node: logical.Filter, join: logical.Join
) -> bool:
    """Split a WHERE above a join and push one-sided conjuncts into scans.

    Fires only when *every* WHERE conjunct and *every* join condition in
    the subtree is provably never-raising: the legacy oracle evaluates all
    of them on all joined rows, so an error anywhere must keep surfacing
    even for rows a pushed conjunct would have excluded.
    """
    scans = _join_scans(join)
    if scans is None:
        return False  # a view/system-table side: schema unknown, keep Filter
    types = _scan_type_classes(scans)
    conditions: List[Expression] = []
    stack: List[logical.LogicalNode] = [join]
    while stack:
        node = stack.pop()
        if isinstance(node, logical.Join):
            conditions.append(node.condition)
            stack.extend(node.children())
    if not all(_never_raises(c, types) for c in conditions):
        return False
    conjuncts = split_and(filter_node.predicate)
    if not all(_never_raises(c, types) for c in conjuncts):
        return False
    residual: List[Expression] = []
    pushed = False
    for conjunct in conjuncts:
        scan = _push_target(join, conjunct)
        if scan is None:
            residual.append(conjunct)
            continue
        if scan.predicate is None:
            scan.predicate = conjunct
        else:
            scan.predicate = BinaryOp("AND", scan.predicate, conjunct)
        pushed = True
    if not pushed:
        return False
    if residual:
        filter_node.predicate = _rebuild_and(residual)
    else:
        _splice_out(plan, filter_node, join)
    return True


def _splice_out(plan: LogicalPlan, node, replacement) -> None:
    if plan.root is node:
        plan.root = replacement
        return
    for candidate in plan.nodes():
        if getattr(candidate, "child", None) is node:
            candidate.child = replacement
            return
        if getattr(candidate, "left", None) is node:
            candidate.left = replacement
            return
        if getattr(candidate, "right", None) is node:
            candidate.right = replacement
            return


# --------------------------------------------------------------- pruning
def _node_expressions(node: logical.LogicalNode) -> List[Expression]:
    """The expressions ``node`` itself evaluates (not its children's)."""
    out: List[Expression] = []
    if isinstance(node, TableScan):
        if node.predicate is not None:
            out.append(node.predicate)
    elif isinstance(node, logical.Filter):
        out.append(node.predicate)
    elif isinstance(node, logical.Join):
        out.append(node.condition)
    elif isinstance(node, (logical.Project, logical.Aggregate)):
        for item in node.items:
            if item.expression is not None:
                out.append(item.expression)
            if item.aggregate_arg is not None:
                out.append(item.aggregate_arg)
            out.extend(item.udf_args)
        if isinstance(node, logical.Aggregate):
            out.extend(node.group_by)
            if node.having is not None:
                out.append(node.having)
    elif isinstance(node, logical.Sort):
        out.extend(o.expression for o in node.order_by)
    return out


def _read_at(
    node: logical.LogicalNode, above: Optional[Set[str]]
) -> Optional[Set[str]]:
    """``above`` plus every name ``node`` itself reads; ``None`` where
    either reads the whole row (``*``, ``SYNTHETIC_HASH()``)."""
    if above is None or (
        isinstance(node, (logical.Project, logical.Aggregate))
        and any(item.star for item in node.items)
    ):
        return None
    names = set(above)
    for expression in _node_expressions(node):
        if reads_whole_row(expression):
            return None
        names.update(expression.columns())
    return names


def _read_above(plan: LogicalPlan) -> Dict[int, Optional[Set[str]]]:
    """Per node (by id), every name an operator above it reads — the only
    readers of its output columns (``None``: the whole row)."""
    out: Dict[int, Optional[Set[str]]] = {}

    def walk(node: logical.LogicalNode, above: Optional[Set[str]]) -> None:
        out[id(node)] = above
        children = node.children()
        if children:
            above = _read_at(node, above)
            for child in children:
                walk(child, above)

    walk(plan.root, set())
    return out


# ---------------------------------------------------------- cost model
def _table_base_rows(database, table) -> int:
    """Cheap physical row count (container metadata, not visibility)."""
    nodes = (
        [database.node_names[0]] if table.unsegmented else database.node_names
    )
    total = 0
    for node in nodes:
        for container in database.storage[node].table_containers(table.name):
            total += container.nrows
    return total


def _stats_for_scan(database, scan: TableScan):
    return database.catalog.statistics.get(scan.table.name)


def _scan_column_stats(database, scan: TableScan, name: str):
    stats = _stats_for_scan(database, scan)
    if stats is None:
        return None
    return stats.column(name.split(".")[-1])


def _subtree_column_stats(database, node: logical.LogicalNode, name: str):
    """Resolve a column ref to its scan's stats, left-first on plain names."""
    if isinstance(node, TableScan):
        if name in _subtree_names(node):
            return _scan_column_stats(database, node, name)
        return None
    if isinstance(node, logical.Join):
        found = _subtree_column_stats(database, node.left, name)
        if found is not None or name in _subtree_names(node.left):
            return found
        return _subtree_column_stats(database, node.right, name)
    if isinstance(node, logical.Filter):
        return _subtree_column_stats(database, node.child, name)
    return None


def _col_and_literal(
    expr: BinaryOp,
) -> Tuple[Optional[str], Optional[Any], str]:
    """(column name, literal value, effective op) for col-vs-literal compares."""
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left.name, expr.right.value, expr.op
    if isinstance(expr.left, Literal) and isinstance(expr.right, ColumnRef):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return (
            expr.right.name,
            expr.left.value,
            flipped.get(expr.op, expr.op),
        )
    return None, None, expr.op


def _selectivity(database, relation, expr: Expression) -> float:
    """Estimated fraction of rows satisfying ``expr`` (textbook formulas)."""

    def column_stats(name: str):
        return _subtree_column_stats(database, relation, name)

    if isinstance(expr, Literal):
        return 1.0 if expr.value is True else 0.0
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            return _selectivity(database, relation, expr.left) * _selectivity(
                database, relation, expr.right
            )
        if expr.op == "OR":
            s1 = _selectivity(database, relation, expr.left)
            s2 = _selectivity(database, relation, expr.right)
            return min(1.0, s1 + s2 - s1 * s2)
        name, value, op = _col_and_literal(expr)
        if expr.op == "=":
            if name is not None:
                cs = column_stats(name)
                if cs is not None:
                    return cs.equality_selectivity()
            return 0.1
        if expr.op in ("<>", "!="):
            if name is not None:
                cs = column_stats(name)
                if cs is not None:
                    return max(0.0, 1.0 - cs.equality_selectivity())
            return 0.9
        if expr.op in _RANGE_OPS:
            if name is not None:
                cs = column_stats(name)
                if cs is not None:
                    return cs.range_selectivity(op, value)
            return 1.0 / 3.0
        return 1.0 / 3.0
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return max(0.0, 1.0 - _selectivity(database, relation, expr.operand))
    if isinstance(expr, IsNull):
        fraction = 0.1
        if isinstance(expr.operand, ColumnRef):
            cs = column_stats(expr.operand.name)
            if cs is not None:
                fraction = cs.null_fraction
        return max(0.0, 1.0 - fraction) if expr.negated else fraction
    if isinstance(expr, Like):
        return 0.25
    if isinstance(expr, InList):
        eq = 0.1
        if isinstance(expr.operand, ColumnRef):
            cs = column_stats(expr.operand.name)
            if cs is not None:
                eq = cs.equality_selectivity()
        fraction = min(1.0, eq * max(1, len(expr.options)))
        return max(0.0, 1.0 - fraction) if expr.negated else fraction
    if isinstance(expr, Between):
        if isinstance(expr.operand, ColumnRef):
            cs = column_stats(expr.operand.name)
            if (
                cs is not None
                and isinstance(expr.low, Literal)
                and isinstance(expr.high, Literal)
            ):
                below_high = cs.range_selectivity("<=", expr.high.value)
                below_low = cs.range_selectivity("<", expr.low.value)
                return max(0.0, below_high - below_low)
        return 1.0 / 3.0
    return 1.0 / 3.0


def _equi_key_pairs(join: logical.Join) -> List[Tuple[str, str]]:
    """(left ref, right ref) pairs from ``a = b`` conjuncts of the condition.

    A ref resolves the way the join merge does: plain names present on the
    left belong to the left side (left wins on ambiguity).
    """
    left_names = _subtree_names(join.left)
    right_names = _subtree_names(join.right)

    def side_of(name: str) -> Optional[str]:
        return _merge_side(name, left_names, right_names)

    pairs: List[Tuple[str, str]] = []
    for conjunct in split_and(join.condition):
        if not (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            continue
        a, b = conjunct.left.name, conjunct.right.name
        if side_of(a) == "left" and side_of(b) == "right":
            pairs.append((a, b))
        elif side_of(a) == "right" and side_of(b) == "left":
            pairs.append((b, a))
    return pairs


def _estimate_node(node: logical.LogicalNode, database) -> Optional[int]:
    """Annotate ``estimated_rows`` bottom-up; None where no estimate exists."""
    for child in node.children():
        _estimate_node(child, database)
    estimate = _estimate_rows(node, database)
    node.estimated_rows = estimate
    return estimate


def _estimate_rows(node: logical.LogicalNode, database) -> Optional[int]:
    if isinstance(node, TableScan):
        stats = _stats_for_scan(database, node)
        base = float(
            stats.row_count
            if stats is not None
            else _table_base_rows(database, node.table)
        )
        if (
            node.hash_range is not None
            and not node.hash_range.is_full
            and not node.table.unsegmented
        ):
            span = max(0, node.hash_range.hi - node.hash_range.lo)
            base *= span / HASH_SPACE
        if node.predicate is not None:
            base *= _selectivity(database, node, node.predicate)
        return max(0, round(base))
    if isinstance(node, logical.ConstantRelation):
        return 1
    if isinstance(node, logical.Join):
        left = node.left.estimated_rows
        right = node.right.estimated_rows
        if left is None or right is None:
            return None
        pairs = _equi_key_pairs(node)
        cross = float(left * right)
        if not pairs:
            return max(0, round(cross / 3.0))
        denominator = 1.0
        for left_ref, right_ref in pairs:
            left_cs = _subtree_column_stats(database, node.left, left_ref)
            right_cs = _subtree_column_stats(database, node.right, right_ref)
            default = max(1, min(left, right))  # FK-ish fallback guess
            left_ndv = (
                left_cs.ndv if left_cs is not None and left_cs.ndv > 0 else default
            )
            right_ndv = (
                right_cs.ndv if right_cs is not None and right_cs.ndv > 0 else default
            )
            denominator *= max(left_ndv, right_ndv, 1)
        return max(0, round(cross / denominator))
    if isinstance(node, logical.Filter):
        child = node.child.estimated_rows
        if child is None:
            return None
        return max(
            0, round(child * _selectivity(database, node.child, node.predicate))
        )
    if isinstance(node, logical.Project):
        return node.child.estimated_rows
    if isinstance(node, logical.Aggregate):
        child = node.child.estimated_rows
        if child is None:
            return None
        if not node.group_by:
            return 1
        groups = 1.0
        for key in node.group_by:
            if isinstance(key, ColumnRef):
                cs = _subtree_column_stats(database, node.child, key.name)
                groups *= cs.ndv if cs is not None and cs.ndv > 0 else 10
            else:
                groups *= 10
        return max(0, min(child, round(groups)))
    if isinstance(node, logical.Sort):
        return node.child.estimated_rows
    if isinstance(node, logical.Limit):
        child = node.child.estimated_rows
        if child is None:
            return node.count
        return min(child, node.count)
    return None  # system tables / views: computed rows, no estimate


# ----------------------------------------------------- join strategies
def _same_ring(left_ring, right_ring) -> bool:
    left_segments = [(s.node, s.lo, s.hi) for s in left_ring.segments]
    right_segments = [(s.node, s.lo, s.hi) for s in right_ring.segments]
    return left_segments == right_segments


def _is_colocated(join: logical.Join, pairs: List[Tuple[str, str]]) -> bool:
    """Both sides base-table scans, same ring, equi keys = segmentation keys."""
    left, right = join.left, join.right
    if not (isinstance(left, TableScan) and isinstance(right, TableScan)):
        return False
    left_table, right_table = left.table, right.table
    if left_table.unsegmented or right_table.unsegmented:
        return False
    if left_table.ring is None or right_table.ring is None:
        return False
    if not _same_ring(left_table.ring, right_table.ring):
        return False
    left_seg = left_table.segmentation_columns
    right_seg = right_table.segmentation_columns
    if len(left_seg) != len(right_seg):
        return False
    pair_map = {
        left_ref.split(".")[-1]: right_ref.split(".")[-1]
        for left_ref, right_ref in pairs
    }
    return all(
        pair_map.get(left_col) == right_col
        for left_col, right_col in zip(left_seg, right_seg)
    )


def _keys_one_class(join: logical.Join, pairs: List[Tuple[str, str]]) -> bool:
    """True when every key pair has one known, shared type class."""
    scans = _join_scans(join)
    if scans is None:
        return False
    types = _scan_type_classes(scans)
    for left_ref, right_ref in pairs:
        left_class = types.get(left_ref)
        if left_class is None or left_class != types.get(right_ref):
            return False
    return True


def _condition_safe(join: logical.Join) -> bool:
    """True when the join condition provably cannot raise mid-evaluation.

    A hash join evaluates the condition only on key-matching candidate
    pairs; the legacy nested loop evaluates it eagerly on *every* pair.
    When a residual conjunct could raise — say a mixed-type range
    comparison — skipping pairs would also skip the error, so the
    planner keeps the nested loop.
    """
    scans = _join_scans(join)
    if scans is None:
        return False
    return _never_raises(join.condition, _scan_type_classes(scans))


def _plan_joins(plan: LogicalPlan) -> bool:
    """Annotate every Join with strategy, keys, co-location,
    and the names read above it (its output needs no other column).

    A hash join whose condition is exactly its equi conjuncts, each pair
    of one known type class, is marked ``keys_decide``: its candidates
    need no validation.  A dict match means ``a is b or a == b``; NULL
    and NaN keys are never candidates; and SQL ``=`` is ``operator.eq``,
    True on equal values and never raising on two non-NULL values of one
    class.
    """
    joins = [node for node in plan.nodes() if isinstance(node, logical.Join)]
    read_above = _read_above(plan) if joins else {}
    for node in joins:
        node.read_above = read_above[id(node)]
        pairs = _equi_key_pairs(node)
        node.equi_keys = pairs
        node.colocated = bool(pairs) and _is_colocated(node, pairs)
        node.strategy = _join_strategy(node, pairs)
        node.keys_decide = (
            node.strategy == "hash"
            and len(split_and(node.condition)) == len(pairs)
            and _keys_one_class(node, pairs)
        )
    return bool(joins)


def _join_strategy(node: logical.Join, pairs: List[Tuple[str, str]]) -> str:
    """A hash join, unless the join has no equi key or its condition
    might raise."""
    if not pairs or not _condition_safe(node):
        return "nested-loop"
    return "hash"


# ----------------------------------------------------- join reordering
def _reorder_joins(plan: LogicalPlan, database) -> bool:
    """Greedily reorder multi-way equi-join chains by estimated rows.

    The binder emits joins in FROM-list order (a left-deep "accident");
    this pass rebuilds each chain cheapest-pair-first: pick the two
    relations whose join has the smallest estimated output (co-located
    pairs win ties so shuffle-free joins stay shuffle-free), then
    repeatedly attach the remaining relation that keeps the running
    estimate smallest.  Every conjunct attaches to the first join where
    all of its relations are available, so each is still evaluated
    exactly once and the output row *set* is unchanged; the executor
    restores the original output *order* via the provenance markers this
    pass leaves behind (``reorder_chain`` / ``restore_order``), keeping
    reordered plans byte-identical to the legacy oracle.
    """
    parent_ids: Set[int] = set()
    joins: List[logical.Join] = []
    for node in plan.nodes():
        if isinstance(node, logical.Join):
            joins.append(node)
            for child in node.children():
                parent_ids.add(id(child))
    changed = False
    for root in joins:
        if id(root) not in parent_ids:
            changed |= _reorder_chain(plan, root, database)
    return changed


def _reorder_chain(plan: LogicalPlan, root: logical.Join, database) -> bool:
    """Rebuild one left-deep chain in greedy cost order; False if unsafe."""
    leaves = _join_scans(root)
    if leaves is None or len(leaves) < 3:
        return False
    if any(leaf.for_update for leaf in leaves):
        return False
    aliases = [leaf.alias for leaf in leaves]
    alias_set = set(aliases)
    if len(alias_set) != len(aliases):
        return False
    # Plain column names must be unique across the chain: the join merge
    # resolves ambiguous plain names left-first, so reordering could
    # change which table's value survives.
    owner: Dict[str, str] = {}
    for leaf in leaves:
        for column in leaf.table.column_names():
            if column in owner:
                return False
            owner[column] = leaf.alias
    types = _scan_type_classes(leaves)
    conjuncts: List[Expression] = []
    node: logical.LogicalNode = root
    while isinstance(node, logical.Join):
        conjuncts[:0] = split_and(node.condition)
        node = node.left
    # Re-placing a conjunct means it filters pairs *earlier* than the
    # legacy eager evaluation would have reached; only provably
    # never-raising conditions keep the error behaviour identical.
    if not all(_never_raises(c, types) for c in conjuncts):
        return False
    conjunct_refs: List[Set[str]] = []
    for conjunct in conjuncts:
        refs: Set[str] = set()
        for name in conjunct.columns():
            if "." in name:
                alias = name.split(".", 1)[0]
                if alias not in alias_set:
                    return False
                refs.add(alias)
            else:
                if name not in owner:
                    return False
                refs.add(owner[name])
        conjunct_refs.append(refs)

    scans = {leaf.alias: leaf for leaf in leaves}
    binder_index = {alias: i for i, alias in enumerate(aliases)}
    unplaced = list(range(len(conjuncts)))

    def candidate(left_node, right_alias, available):
        """(join, conjunct indices) joining ``right_alias`` in, or None."""
        used = [i for i in unplaced if conjunct_refs[i] <= available]
        if not used:
            return None
        join = logical.Join(
            left_node, scans[right_alias],
            _rebuild_and([conjuncts[i] for i in used]),
        )
        pairs = _equi_key_pairs(join)
        if not pairs:
            return None  # no equi key: would degrade to a nested loop
        colocated = _is_colocated(join, pairs)
        return join, used, colocated

    best = None
    for j in range(1, len(aliases)):
        for i in range(j):
            available = {aliases[i], aliases[j]}
            built = candidate(scans[aliases[i]], aliases[j], available)
            if built is None:
                continue
            join, used, colocated = built
            estimate = _estimate_rows(join, database)
            key = (estimate, 0 if colocated else 1, i, j)
            if best is None or key < best[0]:
                best = (key, join, used, aliases[i], aliases[j])
    if best is None:
        return False
    key, current, used, left_alias, right_alias = best
    current.estimated_rows = key[0]
    for index in used:
        unplaced.remove(index)
    order = [left_alias, right_alias]
    placed = {left_alias, right_alias}
    remaining = [alias for alias in aliases if alias not in placed]
    while remaining:
        best_ext = None
        for alias in remaining:
            built = candidate(current, alias, placed | {alias})
            if built is None:
                continue
            join, used, colocated = built
            estimate = _estimate_rows(join, database)
            key = (estimate, 0 if colocated else 1, binder_index[alias])
            if best_ext is None or key < best_ext[0]:
                best_ext = (key, join, used, alias)
        if best_ext is None:
            return False  # chain not fully connected by equi conjuncts
        key, current, used, alias = best_ext
        current.estimated_rows = key[0]
        for index in used:
            unplaced.remove(index)
        placed.add(alias)
        order.append(alias)
        remaining.remove(alias)
    if order == aliases:
        return False  # greedy agreed with the binder: keep the original tree
    node = current
    while isinstance(node, logical.Join):
        node.reorder_chain = True
        node = node.left
    current.restore_order = list(aliases)
    _splice_out(plan, root, current)
    telemetry.counter("vertica.plan.reorder.applied").inc()
    return True


def _prune_columns(plan: LogicalPlan) -> bool:
    """Narrow every scan to the columns its predicate and the operators
    above it read."""
    read_above = _read_above(plan)
    pruned = False
    for node in plan.nodes():
        if not isinstance(node, TableScan) or node.for_update:
            continue
        needed = _read_at(node, read_above[id(node)])
        if needed is None:
            continue
        keep = [
            c
            for c in node.table.column_names()
            if c in needed or f"{node.alias}.{c}" in needed
        ]
        if len(keep) < len(node.table.column_names()):
            node.columns = keep
            pruned = True
    return pruned
