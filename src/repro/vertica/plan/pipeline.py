"""Glue for the layered pipeline: build, execute, EXPLAIN, PROFILE.

``execute_select`` is the one SELECT execution path: bind → optimize →
build physical operators → drain batches into a :class:`ResultSet`.
Everything the engine used to interpret row-by-row now flows through
here — views, V2S scans, aggregate-pushdown partials, the JDBC bridge
and WLM cost stamping all see the same operators and the same
:class:`~repro.vertica.engine.CostReport` the legacy interpreter
produced, byte for byte.

``explain_lines`` renders the *optimized* logical tree without executing
anything (binding touches only the catalog).  ``PlanProfile`` couples
that tree with per-operator execution stats for ``PROFILE <query>``.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.vertica.batch import ColumnBatch
from repro.vertica.engine import COST_COUNTERS, CostReport, HashRange, ResultSet
from repro.vertica.expr import Expression
from repro.vertica.plan import logical, physical
from repro.vertica.plan.binder import bind_dml_scan, bind_select
from repro.vertica.plan.logical import LogicalPlan
from repro.vertica.plan.optimizer import optimize
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.txn import Transaction


def build_operator(
    engine,
    node: logical.LogicalNode,
    txn: Transaction,
    initiator: str,
    snapshot: int,
) -> physical.PhysicalOperator:
    """Translate one logical node (and its subtree) into operators."""

    def build(child: logical.LogicalNode) -> physical.PhysicalOperator:
        return build_operator(engine, child, txn, initiator, snapshot)

    if isinstance(node, logical.ConstantRelation):
        return physical.ConstantOp(node, initiator)
    if isinstance(node, logical.TableScan):
        return physical.TableScanOp(engine, node, txn, initiator, snapshot)
    if isinstance(node, logical.SystemTableScan):
        return physical.SystemScanOp(engine, node, initiator)
    if isinstance(node, logical.ViewScan):
        return physical.ViewScanOp(engine, node, txn, initiator, snapshot)
    if isinstance(node, logical.Join):
        join_op = physical.HashJoinOp if node.strategy == "hash" else physical.JoinOp
        return join_op(node, build(node.left), build(node.right))
    if isinstance(node, logical.Filter):
        return physical.FilterOp(node, build(node.child))
    if isinstance(node, logical.Project):
        return physical.ProjectOp(node, build(node.child), engine.database)
    if isinstance(node, logical.Aggregate):
        return physical.AggregateOp(node, build(node.child), initiator)
    if isinstance(node, logical.Sort):
        return physical.SortOp(node, build(node.child))
    if isinstance(node, logical.Limit):
        return physical.LimitOp(node, build(node.child))
    raise AssertionError(f"no physical operator for {type(node).__name__}")


class PipelineExecution:
    """A finished (or failed) run: the plan plus its operator tree."""

    def __init__(self, plan: LogicalPlan, root: physical.PhysicalOperator):
        self.plan = plan
        self.root = root

    def operators(self) -> List[Tuple[int, physical.PhysicalOperator]]:
        """(depth, operator) pairs, root first."""
        out: List[Tuple[int, physical.PhysicalOperator]] = []
        stack: List[Tuple[int, physical.PhysicalOperator]] = [(0, self.root)]
        while stack:
            depth, op = stack.pop()
            out.append((depth, op))
            for child in reversed(op.children):
                stack.append((depth + 1, child))
        return out

    def post_order(self) -> List[physical.PhysicalOperator]:
        """Children before parents, left before right: the order the pull
        pipeline first charges each operator's report."""
        out: List[physical.PhysicalOperator] = []
        stack = [self.root]
        while stack:  # root, then children right to left: reversed, post-order
            out.append(stack.pop())
            stack.extend(out[-1].children)
        return out[::-1]


def optimized_plan(engine, statement: ast.Select) -> LogicalPlan:
    """Bind + optimize through the plan cache.

    Cached plans are keyed by (canonical statement, catalog version).
    Estimation reads catalog statistics, which only ANALYZE writes (and
    it bumps the version), and no session setting reaches the
    optimizer, so a cached plan is what a fresh optimize at the same key
    builds — except that an unanalyzed table's estimate reads container
    row counts, which loads move without bumping the version
    (docs/CACHING.md).  Statements without a stamped ``cache_key``
    (built programmatically, not through a session parse) take the cold
    path every time.
    """
    db = engine.database
    version = db.catalog.version
    plan = db.plan_cache.lookup_plan(statement, version)
    if plan is None:
        plan = optimize(bind_select(db, statement), db)
        db.plan_cache.store_plan(statement, version, plan)
    return plan


def execute_select(
    engine,
    statement: ast.Select,
    txn: Transaction,
    initiator: str,
    snapshot: int,
    cost: CostReport,
) -> Tuple[ResultSet, PipelineExecution]:
    """Bind, optimize and run one SELECT through physical operators; add
    each operator's report into ``cost``."""
    plan = optimized_plan(engine, statement)
    root = build_operator(engine, plan.root, txn, initiator, snapshot)
    rows: List[Tuple[Any, ...]] = []
    for batch in root.batches():
        rows.extend(batch.rows())
    execution = PipelineExecution(plan, root)
    for op in execution.post_order():
        cost.add(op.cost)
        if op.stats.rows_out:
            telemetry.counter(f"vertica.plan.{op.kind}.rows_out").inc(
                op.stats.rows_out
            )
        # a join's own shuffle: a view's report holds its query's joins too
        if isinstance(op, physical.JoinOp) and op.cost.rows_shuffled:
            telemetry.counter("vertica.plan.join.rows_shuffled").inc(
                op.cost.rows_shuffled
            )
    return ResultSet(plan.output_columns, rows, cost=cost), execution


# ---------------------------------------------------------------------- DML
def dml_matching_rows(
    engine,
    table_name: str,
    where: Optional[Expression],
    txn: Transaction,
    initiator: str,
    snapshot: int,
    cost: CostReport,
) -> Iterator[ColumnBatch]:
    """Matching rows of an UPDATE/DELETE, through the same pipeline.

    Yields one single-node :class:`~repro.vertica.batch.ColumnBatch` per
    storage slice with matches; ROS slices name their ``container`` and
    ``row_ids`` (the caller stages delete vectors against them).  The
    scan visits every replica copy; the optimizer only constant-folds
    the predicate — pruning would change the statement's CostReport.
    The scan's report is added into ``cost`` once it is drained.
    """
    plan = optimize(
        bind_dml_scan(engine.database, table_name, where), engine.database
    )
    assert isinstance(plan.root, logical.TableScan)
    op = physical.DmlScanOp(engine, plan.root, txn, initiator, snapshot)
    yield from op.batches()
    cost.add(op.cost)


# -------------------------------------------------------------------- EXPLAIN
def explain_lines(engine, query: ast.Select, initiator: str) -> List[str]:
    """Render the optimized plan tree; binds but never executes."""
    db = engine.database
    plan = optimized_plan(engine, query)
    snapshot = query.at_epoch if query.at_epoch is not None else db.epochs.current
    lines: List[str] = []

    def emit(node: logical.LogicalNode, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, logical.TableScan):
            lines.extend(pad + line for line in _scan_lines(
                engine, node, initiator, snapshot
            ))
        else:
            label = node.label()
            if node.estimated_rows is not None:
                label += f" (estimated rows: {node.estimated_rows})"
            lines.append(pad + label)
            if isinstance(node, logical.Aggregate) and node.group_by:
                keys = ", ".join(e.sql() for e in node.group_by)
                lines.append(pad + f"  group by: {keys}")
        for child in node.children():
            emit(child, depth + 1)

    emit(plan.root, 0)
    lines.extend(_join_order_lines(plan))
    if query.at_epoch is not None:
        lines.append(f"snapshot: AT EPOCH {query.at_epoch}")
    if plan.rules_applied:
        lines.append("OPTIMIZER: " + ", ".join(plan.rules_applied))
    return lines


def _join_order_lines(plan: LogicalPlan) -> List[str]:
    """The chosen join order with per-step estimates, per reordered chain."""
    lines: List[str] = []
    for node in plan.nodes():
        if not isinstance(node, logical.Join) or node.restore_order is None:
            continue
        chain: List[logical.Join] = []
        walk: logical.LogicalNode = node
        while isinstance(walk, logical.Join):
            chain.append(walk)
            walk = walk.left
        chain.reverse()  # bottom-up: first join first
        order = [getattr(walk, "alias", "?")]
        order += [getattr(join.right, "alias", "?") for join in chain]
        lines.append(
            "JOIN ORDER: " + " x ".join(order)
            + " (reordered from " + ", ".join(node.restore_order) + ")"
        )
        for step, join in enumerate(chain, start=1):
            described = (
                f"{order[0]} x {order[1]}" if step == 1 else f"+ {order[step]}"
            )
            lines.append(
                f"  step {step}: {described} "
                f"(estimated rows: {join.estimated_rows})"
            )
    return lines


def _scan_lines(
    engine, node: logical.TableScan, initiator: str, snapshot: int
) -> List[str]:
    lines: List[str] = []
    table = node.table
    if table.unsegmented:
        lines.append(f"SCAN {node.key} [unsegmented, local copy on {initiator}]")
    else:
        hash_range = node.hash_range or HashRange()
        assert table.ring is not None
        scanned = [
            s.node
            for s in table.ring.segments
            if hash_range.intersects(s.lo, s.hi)
        ]
        pruned = [n for n in table.ring.nodes if n not in scanned]
        lines.append(node.label())
        if hash_range.is_full:
            lines.append(f"  segments: all ({len(scanned)} nodes)")
        else:
            lines.append(f"  hash range: [{hash_range.lo}, {hash_range.hi})")
            lines.append(f"  segments scanned: {scanned}")
            if pruned:
                lines.append(f"  segments pruned: {pruned}")
    # The estimate is what the scan would visit: committed rows visible on
    # the unpruned nodes, counted by the scan itself with no column read.
    visited = CostReport()
    for __ in engine.scan(
        node.key, snapshot, None, initiator,
        hash_range=node.hash_range, cost=visited, columns=(),
    ):
        pass
    estimate = visited.rows_scanned
    lines.append(f"  estimated rows: {estimate}")
    if node.predicate is not None:
        lines.append(f"  FILTER: {node.predicate.sql()} [pushed into scan]")
    if node.columns is not None:
        lines.append("  columns: " + ", ".join(node.columns) + " [pruned]")
    return lines


# -------------------------------------------------------------------- PROFILE
class PlanProfile:
    """Per-operator execution stats of one profiled query."""

    def __init__(self, execution: PipelineExecution, result: ResultSet):
        self.execution = execution
        self.result = result

    def operators(self) -> List[Tuple[int, physical.PhysicalOperator]]:
        return self.execution.operators()

    def operator_rows(self) -> List[Tuple[str, int, int]]:
        """(kind, rows_in, rows_out) per operator, root first."""
        return [
            (op.kind, op.stats.rows_in, op.stats.rows_out)
            for __, op in self.operators()
        ]

    def lines(self) -> List[str]:
        out: List[str] = []
        for depth, op in self.operators():
            stats = op.stats
            parts = [f"rows out: {stats.rows_out}"]
            if stats.rows_in:
                parts.insert(0, f"rows in: {stats.rows_in}")
            estimated = getattr(
                getattr(op, "logical", None), "estimated_rows", None
            )
            if estimated is not None:
                parts.append(f"est rows: {estimated}")
            parts += _counters(op.cost, zeros=False)
            if isinstance(op, physical.JoinOp):
                parts.append(f"candidate pairs: {stats.candidate_pairs}")
            parts.append(f"batches: {stats.batches}")
            parts.append(f"time: {stats.elapsed_s * 1000.0:.3f} ms")
            out.append("  " * depth + f"{op.label()}  ({', '.join(parts)})")
        plan = self.execution.plan
        out.extend(_join_order_lines(plan))
        if plan.rules_applied:
            out.append("OPTIMIZER: " + ", ".join(plan.rules_applied))
        out.append(cost_line(self.result.cost))
        return out


def _counters(cost: CostReport, zeros: bool) -> List[str]:
    """A ``rows scanned: 40`` part per ``COST_COUNTERS`` total (not zero)."""
    return [
        f"{total.replace('_', ' ')}: {int(getattr(cost, total))}"
        for total, __ in COST_COUNTERS
        if zeros or getattr(cost, total)
    ]


def cost_line(cost: CostReport) -> str:
    """PROFILE's statement-total ``COST:`` line, executed or cache-served."""
    return "COST: " + ", ".join(_counters(cost, zeros=True))
