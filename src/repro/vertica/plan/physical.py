"""Physical operators executing over columnar batches.

A :class:`ColumnBatch` is a chunk of up to :data:`BATCH_ROWS` rows stored
column-wise (``names[i]`` names the parallel value list ``columns[i]``),
plus a per-row producing-node list that keeps the legacy CostReport's
node attribution exact.  Alias-qualified column names (``P.ID``) share
the *same* list objects as their plain twins — the per-row dict copy the
legacy interpreter paid for qualification is gone entirely.

:class:`RowView` adapts one batch row back into the ``Mapping`` the
expression evaluator consumes, so ``Expression.evaluate`` (including
``SYNTHETIC_HASH``'s whole-row hash over sorted column names) works
unchanged over batches.

Fidelity notes (the differential suite enforces these):

- ``LimitOp`` drains its child fully before slicing — the legacy
  interpreter projected (and cost-charged) every row, then applied
  LIMIT, and ``CostReport`` must stay byte-identical.
- ``ProjectOp``/``AggregateOp`` materialize their input before
  evaluating, so evaluation errors and UDx resolution surface in the
  legacy order (scan errors first, then projection errors row-major).
- Aggregate output rows are attributed to the initiator, and the
  HAVING-bypassing "aggregate over empty input still returns one row"
  fallback is preserved bug-for-bug.

Every operator records :class:`OperatorStats` (rows in/out, bytes out,
inclusive wall time); the pipeline feeds them to ``PROFILE``,
``CostReport`` reconciliation, and ``telemetry``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ordering import null_last_key
from repro.vertica.engine import CostReport, _value_bytes
from repro.vertica.errors import SqlError
from repro.vertica.expr import ColumnRef, predicate_holds
from repro.vertica.plan import logical
from repro.vertica.plan.adaptive import AdaptiveContext
from repro.vertica.settings import PlanContext
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.txn import Transaction

BATCH_ROWS = 1024


class ColumnBatch:
    """Column-name → list-of-values chunk with per-row node attribution."""

    __slots__ = ("names", "columns", "nodes", "index")

    def __init__(
        self,
        names: List[str],
        columns: List[List[Any]],
        nodes: List[str],
    ):
        self.names = names
        self.columns = columns
        self.nodes = nodes
        self.index: Dict[str, int] = {}
        for i, name in enumerate(names):
            self.index[name] = i  # last occurrence wins, like dict(zip(...))

    @property
    def num_rows(self) -> int:
        return len(self.nodes)

    def rows(self) -> List[Tuple[Any, ...]]:
        """Materialize row tuples (used at pipeline edges only)."""
        if not self.columns:
            return [()] * len(self.nodes)
        return list(zip(*self.columns))


class RowView(Mapping):
    """One batch row as the Mapping the expression evaluator expects."""

    __slots__ = ("batch", "row")

    def __init__(self, batch: ColumnBatch, row: int):
        self.batch = batch
        self.row = row

    def __getitem__(self, key: str) -> Any:
        return self.batch.columns[self.batch.index[key]][self.row]

    def __iter__(self) -> Iterator[str]:
        return iter(self.batch.names)

    def __len__(self) -> int:
        return len(self.batch.names)


class OperatorStats:
    """Per-operator execution counters, feeding PROFILE and telemetry."""

    __slots__ = ("rows_in", "rows_out", "rows_scanned", "batches", "bytes_out",
                 "elapsed_s", "rows_shuffled")

    def __init__(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        #: rows visited by the storage scan (pre hash-range filtering);
        #: mirrors what the scan charged into ``CostReport.rows_scanned``
        self.rows_scanned = 0
        self.batches = 0
        self.bytes_out = 0.0
        #: inclusive wall time (this operator plus everything below it)
        self.elapsed_s = 0.0
        #: build-side rows a distributed join would copy across nodes
        #: (0 for co-located joins — both sides identically segmented)
        self.rows_shuffled = 0


class PhysicalOperator:
    """Base operator: ``batches()`` wraps ``_run`` with stats timing."""

    kind = "op"
    #: the logical node this operator executes (set by every subclass)
    logical: Any

    def __init__(self) -> None:
        self.stats = OperatorStats()
        self.children: List["PhysicalOperator"] = []

    def label(self) -> str:
        raise NotImplementedError

    def batches(self) -> Iterator[ColumnBatch]:
        run = self._run()
        while True:
            started = time.perf_counter()
            try:
                batch = next(run)
            except StopIteration:
                self.stats.elapsed_s += time.perf_counter() - started
                return
            self.stats.elapsed_s += time.perf_counter() - started
            self.stats.batches += 1
            self.stats.rows_out += batch.num_rows
            yield batch

    def _run(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError


def _compact(batch: ColumnBatch, keep: List[int]) -> ColumnBatch:
    """Select rows by index, preserving shared column-list identity."""
    cache: Dict[int, List[Any]] = {}
    columns: List[List[Any]] = []
    for column in batch.columns:
        key = id(column)
        compacted = cache.get(key)
        if compacted is None:
            compacted = [column[i] for i in keep]
            cache[key] = compacted
        columns.append(compacted)
    nodes = [batch.nodes[i] for i in keep]
    return ColumnBatch(batch.names, columns, nodes)


def _apply_predicate(batch: ColumnBatch, predicate) -> ColumnBatch:
    keep = [
        i
        for i in range(batch.num_rows)
        if predicate.evaluate(RowView(batch, i)) is True
    ]
    if len(keep) == batch.num_rows:
        return batch
    return _compact(batch, keep)


class ConstantOp(PhysicalOperator):
    """SELECT without FROM: one empty row on the initiator."""

    kind = "constant"

    def __init__(self, node: logical.ConstantRelation, initiator: str):
        super().__init__()
        self.logical = node
        self.initiator = initiator

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        yield ColumnBatch([], [], [self.initiator])


class TableScanOp(PhysicalOperator):
    """Segment-pruned storage scan producing qualified columnar batches.

    The engine's ``scan`` generator (visibility, hash-range row filter,
    buddy failover, WOS read-your-writes) stays the single source of
    storage truth; this operator only batches its rows column-wise and
    applies any pushed-down predicate.
    """

    kind = "scan"

    def __init__(
        self,
        engine,
        node: logical.TableScan,
        txn: Optional[Transaction],
        initiator: str,
        snapshot: int,
        cost: CostReport,
    ):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.txn = txn
        self.initiator = initiator
        self.snapshot = snapshot
        self.cost = cost

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        node = self.logical
        plain = (
            node.columns
            if node.columns is not None
            else node.table.column_names()
        )
        names = list(plain)
        if node.qualify:
            names += [f"{node.alias}.{c}" for c in plain]
        predicate = node.predicate
        columns: List[List[Any]] = [[] for __ in plain]
        nodes: List[str] = []
        scanned_before = self.cost.rows_scanned
        for scan_row in self.engine.scan(
            node.key,
            self.snapshot,
            self.txn,
            self.initiator,
            hash_range=node.hash_range,
            cost=self.cost,
            for_update=node.for_update,
        ):
            data = scan_row.data
            for i, name in enumerate(plain):
                columns[i].append(data[name])
            nodes.append(scan_row.node)
            if len(nodes) >= BATCH_ROWS:
                self.stats.rows_scanned += self.cost.rows_scanned - scanned_before
                yield self._finish_batch(names, columns, nodes, predicate)
                columns = [[] for __ in plain]
                nodes = []
                scanned_before = self.cost.rows_scanned
        self.stats.rows_scanned += self.cost.rows_scanned - scanned_before
        if nodes:
            yield self._finish_batch(names, columns, nodes, predicate)

    def _finish_batch(
        self,
        names: List[str],
        columns: List[List[Any]],
        nodes: List[str],
        predicate,
    ) -> ColumnBatch:
        # Qualified names reference the same list objects: zero copies.
        batch = ColumnBatch(names, columns + columns if len(names) > len(columns)
                            else columns, nodes)
        self.stats.rows_in += batch.num_rows
        if predicate is not None:
            batch = _apply_predicate(batch, predicate)
        return batch


class SystemScanOp(PhysicalOperator):
    """System-table rows, computed on (and attributed to) the initiator."""

    kind = "scan-system"

    def __init__(self, engine, node, initiator: str):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.initiator = initiator

    def label(self) -> str:
        return self.logical.label()

    def _rows(self) -> Tuple[List[str], List[Dict[str, Any]]]:
        db = self.engine.database
        if isinstance(self.logical, logical.StorageContainersScan):
            from repro.vertica.tuplemover import storage_container_stats

            names = ["NODE_NAME", "TABLE_NAME", "CONTAINER_COUNT", "LIVE_ROWS"]
            rows = [
                dict(zip(names, stat)) for stat in storage_container_stats(db)
            ]
            return names, rows
        names, sys_rows = db.catalog.system_table_rows(
            self.logical.key, db.epochs.current, db.node_states
        )
        return names, [dict(row) for row in sys_rows]

    def _run(self) -> Iterator[ColumnBatch]:
        plain, rows = self._rows()
        alias = self.logical.alias
        names = list(plain) + [f"{alias}.{c}" for c in plain if "." not in c]
        for start in range(0, len(rows), BATCH_ROWS):
            chunk = rows[start:start + BATCH_ROWS]
            columns = [[row[c] for row in chunk] for c in plain]
            qualified = [
                columns[plain.index(c)] for c in plain if "." not in c
            ]
            self.stats.rows_in += len(chunk)
            yield ColumnBatch(
                names, columns + qualified, [self.initiator] * len(chunk)
            )


class ViewScanOp(PhysicalOperator):
    """Expand a view through the full pipeline, synthetic-ring attributed.

    The inner SELECT runs through ``engine.select`` recursively — same
    CostReport, same epoch-read telemetry — exactly as the legacy
    ``_view_rows`` did; each output row is then attributed to the node
    owning its ``SYNTHETIC_HASH`` range.
    """

    kind = "scan-view"

    def __init__(
        self,
        engine,
        node: logical.ViewScan,
        txn: Transaction,
        initiator: str,
        snapshot: int,
        cost: CostReport,
        context: PlanContext,
    ):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.txn = txn
        self.initiator = initiator
        self.snapshot = snapshot
        self.cost = cost
        self.context = context

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        from repro.vertica.hashring import synthetic_ring, vertica_hash

        db = self.engine.database
        view = db.catalog.view(self.logical.key)
        query = view.query
        if query.at_epoch is None and self.snapshot is not None:
            query = ast.Select(
                query.items,
                query.source,
                joins=query.joins,
                where=query.where,
                group_by=query.group_by,
                having=query.having,
                order_by=query.order_by,
                limit=query.limit,
                at_epoch=self.snapshot,
            )
        result = self.engine.select(
            query, self.txn, self.initiator, self.context, cost=self.cost
        )
        ring = synthetic_ring(db.node_names)
        plain = list(dict.fromkeys(result.columns))
        alias = self.logical.alias
        names = list(plain) + [f"{alias}.{c}" for c in plain if "." not in c]
        for start in range(0, len(result.rows), BATCH_ROWS):
            chunk = result.rows[start:start + BATCH_ROWS]
            columns: List[List[Any]] = [[] for __ in plain]
            nodes: List[str] = []
            for row in chunk:
                data = dict(zip(result.columns, row))
                for i, name in enumerate(plain):
                    columns[i].append(data[name])
                values = [data[k] for k in sorted(data)]
                nodes.append(
                    ring.node_for(vertica_hash(*values)) if values
                    else self.initiator
                )
            qualified = [
                columns[plain.index(c)] for c in plain if "." not in c
            ]
            self.stats.rows_in += len(chunk)
            yield ColumnBatch(names, columns + qualified, nodes)


class JoinOp(PhysicalOperator):
    """Nested-loop inner join with the legacy dict-merge semantics.

    The right side is materialized once; for each left row the merged
    row is right ∪ left with left winning on plain-name collisions and
    right winning qualified ones — bit-for-bit the legacy merge.  Output
    rows inherit the *left* row's producing node.
    """

    kind = "join"

    def __init__(
        self,
        node: logical.Join,
        left: PhysicalOperator,
        right: PhysicalOperator,
    ):
        super().__init__()
        self.logical = node
        self.left = left
        self.right = right
        self.children = [left, right]

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        condition = self.logical.condition
        right_rows: List[Dict[str, Any]] = []
        right_names: List[str] = []
        right_nodes: List[str] = []
        for batch in self.right.batches():
            right_names = batch.names
            self.stats.rows_in += batch.num_rows
            for i in range(batch.num_rows):
                right_rows.append(dict(RowView(batch, i)))
                right_nodes.append(batch.nodes[i])
        names: Optional[List[str]] = None
        left_node_set: set = set()
        pending: List[Tuple[str, Dict[str, Any]]] = []
        for batch in self.left.batches():
            if names is None:
                names = list(right_names) + [
                    n for n in batch.names if n not in right_names
                ]
            self.stats.rows_in += batch.num_rows
            for i in range(batch.num_rows):
                left_row = dict(RowView(batch, i))
                node = batch.nodes[i]
                left_node_set.add(node)
                for right_row in right_rows:
                    merged = dict(right_row)
                    merged.update(left_row)  # left wins on ambiguity
                    merged.update(
                        {k: v for k, v in right_row.items() if "." in k}
                    )
                    if predicate_holds(condition, merged):
                        pending.append((node, merged))
                        if len(pending) >= BATCH_ROWS:
                            yield _rows_batch(names, pending)
                            pending = []
        if pending and names is not None:
            yield _rows_batch(names, pending)
        # The nested loop broadcasts the (materialized) right side to every
        # node holding probe rows; co-located joins move nothing.
        if not self.logical.colocated:
            for node in right_nodes:
                self.stats.rows_shuffled += len(left_node_set - {node})


def _rows_batch(
    names: List[str], rows: List[Tuple[str, Dict[str, Any]]]
) -> ColumnBatch:
    """Transpose (producing node, merged row) pairs into one batch."""
    columns = [[row[name] for __, row in rows] for name in names]
    return ColumnBatch(names, columns, [node for node, __ in rows])


#: relation alias -> that relation's materialization index, one per row
Provenance = Dict[str, Sequence[int]]
#: relation alias -> (0 = left input / 1 = right input, its index column)
Sources = Dict[str, Tuple[int, Sequence[int]]]


class _EquiJoinOp(PhysicalOperator):
    """Shared machinery for hash and merge equi-joins.

    Both materialize the two inputs, find matching ``(left, right)`` index
    pairs on the equi keys (NULL keys never match), validate the *full*
    original condition on the merged row — the key match is only a
    prefilter, so semantics stay bit-for-bit with the nested loop — and
    emit in left-major order (left stream order, right materialization
    order), exactly the order the legacy nested loop produced.

    Two layers ride on top of that core:

    - **Adaptive checkpoint** — after both inputs are materialized but
      before the join algorithm starts (its "unstarted subtree"), the
      operator consults the query's
      :class:`~repro.vertica.plan.adaptive.AdaptiveContext`, which may
      swap the build side or switch the algorithm based on *observed*
      row counts.  Output order is pair-sorted, so the decision cannot
      change the emitted bytes — only how much work finding them takes.
    - **Provenance tracking** — joins inside a cost-reordered chain
      (``logical.reorder_chain``) record each base relation's
      materialization index for every output row, column-major like
      every other column: one index list per relation alias.  The chain
      root uses them to sort its pairs back into the binder's
      lexicographic order and to re-attribute every output row to the
      binder-leftmost relation's producing node, keeping rows *and*
      per-node cost attribution byte-identical to the unreordered plan.
    """

    def __init__(
        self,
        node: logical.Join,
        left: PhysicalOperator,
        right: PhysicalOperator,
        adaptive: AdaptiveContext,
    ):
        super().__init__()
        self.logical = node
        self.left = left
        self.right = right
        self.children = [left, right]
        self.adaptive = adaptive
        #: alias -> that relation's materialization index per output row;
        #: filled by a chain join below the root for the join above it
        self.output_provenance: Provenance = {}
        #: alias -> that leaf scan's materialized node list (chains only)
        self.leaf_nodes: Dict[str, List[str]] = {}

    def label(self) -> str:
        return self.logical.label()

    def _materialize(
        self, operator: PhysicalOperator, slot: int, sources: Sources
    ) -> Tuple[List[str], List[Dict[str, Any]], List[str]]:
        names: List[str] = []
        rows: List[Dict[str, Any]] = []
        nodes: List[str] = []
        for batch in operator.batches():
            names = batch.names
            self.stats.rows_in += batch.num_rows
            for i in range(batch.num_rows):
                rows.append(dict(RowView(batch, i)))
                nodes.append(batch.nodes[i])
        if self.logical.reorder_chain:
            if isinstance(operator, _EquiJoinOp):
                # a chain join below us: adopt its provenance wholesale
                provenance = operator.output_provenance
                self.leaf_nodes.update(operator.leaf_nodes)
            else:  # a leaf scan: row i of the input is row i of the leaf
                provenance = {operator.logical.alias: range(len(rows))}
                self.leaf_nodes[operator.logical.alias] = nodes
            for alias, column in provenance.items():
                sources[alias] = (slot, column)
        return names, rows, nodes

    @staticmethod
    def _key_of(
        row: Dict[str, Any], refs: List[str]
    ) -> Optional[Tuple[Any, ...]]:
        key = tuple(row[ref] for ref in refs)
        if any(value is None for value in key):
            return None  # NULL never equi-matches
        return key

    def _charge_shuffle(
        self, build_nodes: List[str], probe_nodes: List[str]
    ) -> None:
        """Broadcast-build cost: each build row is copied to every other
        node holding probe rows; a co-located join moves nothing."""
        if self.logical.colocated:
            return
        probe_set = set(probe_nodes)
        for node in build_nodes:
            self.stats.rows_shuffled += len(probe_set - {node})

    def _run(self) -> Iterator[ColumnBatch]:
        keys = self.logical.equi_keys
        sources: Sources = {}
        left_names, left_rows, left_nodes = self._materialize(
            self.left, 0, sources
        )
        right_names, right_rows, right_nodes = self._materialize(
            self.right, 1, sources
        )
        names = list(right_names) + [
            n for n in left_names if n not in right_names
        ]
        build_side, strategy = self.adaptive.checkpoint(
            self.logical, len(left_rows), len(right_rows)
        )
        if build_side == "left":
            self._charge_shuffle(left_nodes, right_nodes)
        else:
            self._charge_shuffle(right_nodes, left_nodes)
        left_refs = [left_ref for left_ref, __ in keys]
        right_refs = [right_ref for __, right_ref in keys]
        if strategy == "merge":
            pairs = self._merge_pairs(
                left_rows, right_rows, left_refs, right_refs
            )
        else:
            pairs = self._hash_pairs(
                left_rows, right_rows, left_refs, right_refs, build_side
            )
        self._order_pairs(pairs, sources)
        yield from self._emit(
            pairs, names, left_rows, right_rows, left_nodes, sources
        )

    def _hash_pairs(
        self,
        left_rows: List[Dict[str, Any]],
        right_rows: List[Dict[str, Any]],
        left_refs: List[str],
        right_refs: List[str],
        build_side: str,
    ) -> List[Tuple[int, int]]:
        build_right = build_side != "left"
        if build_right:
            build_rows, build_refs = right_rows, right_refs
            probe_rows, probe_refs = left_rows, left_refs
        else:
            build_rows, build_refs = left_rows, left_refs
            probe_rows, probe_refs = right_rows, right_refs
        table: Dict[Tuple[Any, ...], List[int]] = {}
        for index, row in enumerate(build_rows):
            key = self._key_of(row, build_refs)
            if key is None:
                continue
            table.setdefault(key, []).append(index)
        pairs: List[Tuple[int, int]] = []
        for probe_index, row in enumerate(probe_rows):
            key = self._key_of(row, probe_refs)
            if key is None:
                continue
            for build_index in table.get(key, ()):
                pairs.append(
                    (probe_index, build_index)
                    if build_right
                    else (build_index, probe_index)
                )
        return pairs

    def _merge_pairs(
        self,
        left_rows: List[Dict[str, Any]],
        right_rows: List[Dict[str, Any]],
        left_refs: List[str],
        right_refs: List[str],
    ) -> List[Tuple[int, int]]:
        left_keyed = self._sorted_keys(left_rows, left_refs)
        right_keyed = self._sorted_keys(right_rows, right_refs)
        pairs: List[Tuple[int, int]] = []
        i = j = 0
        while i < len(left_keyed) and j < len(right_keyed):
            left_key = left_keyed[i][0]
            right_key = right_keyed[j][0]
            if left_key < right_key:
                i += 1
            elif right_key < left_key:
                j += 1
            else:
                group_end = j
                while (
                    group_end < len(right_keyed)
                    and right_keyed[group_end][0] == left_key
                ):
                    group_end += 1
                while i < len(left_keyed) and left_keyed[i][0] == left_key:
                    left_index = left_keyed[i][1]
                    for jj in range(j, group_end):
                        pairs.append((left_index, right_keyed[jj][1]))
                    i += 1
                j = group_end
        return pairs

    def _sorted_keys(
        self, rows: List[Dict[str, Any]], refs: List[str]
    ) -> List[Tuple[Tuple[Any, ...], int]]:
        keyed = []
        for index, row in enumerate(rows):
            key = self._key_of(row, refs)
            if key is not None:
                keyed.append((key, index))
        keyed.sort(key=lambda item: item[0])
        return keyed

    def _order_pairs(
        self, pairs: List[Tuple[int, int]], sources: Sources
    ) -> None:
        restore = self.logical.restore_order
        if restore is None:
            pairs.sort()  # the nested loop's left-major output order
            return
        # Chain root: sort back into the binder's lexicographic order —
        # exactly the (a, b, c, ...) enumeration the legacy nested loops
        # over the original FROM order would have produced.
        columns = [sources[alias] for alias in restore]
        pairs.sort(
            key=lambda pair: tuple(col[pair[slot]] for slot, col in columns)
        )

    def _emit(
        self,
        pairs: List[Tuple[int, int]],
        names: List[str],
        left_rows: List[Dict[str, Any]],
        right_rows: List[Dict[str, Any]],
        left_nodes: List[str],
        sources: Sources,
    ) -> Iterator[ColumnBatch]:
        condition = self.logical.condition
        restore = self.logical.restore_order
        if restore is not None:
            # legacy attribution: the binder-leftmost relation's row
            # produced the joined row
            anchor_slot, anchor = sources[restore[0]]
            anchor_nodes = self.leaf_nodes[restore[0]]
        # a chain join below the root hands its kept pairs' provenance up
        tracking = self.logical.reorder_chain and restore is None
        kept: List[Tuple[int, int]] = []
        pending: List[Tuple[str, Dict[str, Any]]] = []
        for pair in pairs:
            left_index, right_index = pair
            right_row = right_rows[right_index]
            merged = dict(right_row)
            merged.update(left_rows[left_index])  # left wins on ambiguity
            merged.update({k: v for k, v in right_row.items() if "." in k})
            if predicate_holds(condition, merged):
                if restore is not None:
                    node = anchor_nodes[anchor[pair[anchor_slot]]]
                else:
                    node = left_nodes[left_index]
                if tracking:
                    kept.append(pair)
                pending.append((node, merged))
                if len(pending) >= BATCH_ROWS:
                    yield _rows_batch(names, pending)
                    pending = []
        if pending:
            yield _rows_batch(names, pending)
        if tracking:
            self.output_provenance = {
                alias: [column[pair[slot]] for pair in kept]
                for alias, (slot, column) in sources.items()
            }


class HashJoinOp(_EquiJoinOp):
    """Equi-join via a hash table on the (estimated) smaller build side."""

    kind = "join-hash"


class MergeJoinOp(_EquiJoinOp):
    """Equi-join by sorting both key arrays and merging equal-key groups.

    Chosen when the build side would overflow the hash-table memory
    budget; the planner guarantees both key columns share one type class,
    so the sorts cannot hit Python's mixed-type ordering ``TypeError``.
    """

    kind = "join-merge"


class FilterOp(PhysicalOperator):
    """Row filter over batches (joins, views, system tables, no-FROM)."""

    kind = "filter"

    def __init__(self, node: logical.Filter, child: PhysicalOperator):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        predicate = self.logical.predicate
        for batch in self.child.batches():
            self.stats.rows_in += batch.num_rows
            filtered = _apply_predicate(batch, predicate)
            if filtered.num_rows:
                yield filtered


class ProjectOp(PhysicalOperator):
    """Select-list evaluation; charges per-row output bytes to nodes.

    Plain column references and ``*`` expansion copy column lists by
    reference (the columnar fast path); remaining expressions evaluate
    row-major across items, preserving the legacy error order.
    """

    kind = "project"

    def __init__(
        self,
        node: logical.Project,
        child: PhysicalOperator,
        db,
        cost: CostReport,
    ):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]
        self.db = db
        self.cost = cost

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        node = self.logical
        # Materialize first: scan/storage errors must surface before UDx
        # resolution and projection errors, as in the legacy interpreter.
        batches = list(self.child.batches())
        self.stats.rows_in = sum(b.num_rows for b in batches)
        plan: List[Tuple[str, Any]] = []  # (kind, payload)
        for item in node.items:
            if item.star:
                for column in node.source_columns:
                    plan.append(("column", column))
            elif item.udf:
                function = self.db.udx.lookup(item.udf)
                plan.append(("udf", (function, item)))
            elif (
                isinstance(item.expression, ColumnRef)
            ):
                plan.append(("ref", item.expression))
            else:
                plan.append(("expr", item.expression))
        for batch in batches:
            yield self._project_batch(batch, plan)

    def _project_batch(
        self, batch: ColumnBatch, plan: List[Tuple[str, Any]]
    ) -> ColumnBatch:
        n = batch.num_rows
        out_columns: List[List[Any]] = []
        row_major: List[Tuple[int, str, Any]] = []
        for kind, payload in plan:
            if kind == "column":
                # Star expansion uses row.get(): absent columns yield NULL.
                idx = batch.index.get(payload)
                out_columns.append(
                    batch.columns[idx] if idx is not None else [None] * n
                )
            elif kind == "ref" and payload.name in batch.index:
                out_columns.append(batch.columns[batch.index[payload.name]])
            else:
                slot: List[Any] = []
                out_columns.append(slot)
                row_major.append((len(out_columns) - 1, kind, payload))
        if row_major:
            for i in range(n):
                view = RowView(batch, i)
                for slot_index, kind, payload in row_major:
                    if kind == "udf":
                        function, item = payload
                        value = function(
                            [a.evaluate(view) for a in item.udf_args],
                            item.parameters,
                        )
                    else:  # "ref" (missing column raises) or "expr"
                        value = payload.evaluate(view)
                    out_columns[slot_index].append(value)
        self._charge_output(out_columns, batch.nodes, n)
        return ColumnBatch(list(self.logical.output_columns), out_columns,
                           batch.nodes)

    def _charge_output(
        self, out_columns: List[List[Any]], nodes: List[str], n: int
    ) -> None:
        # Runs of same-node rows collapse into one CostReport call; all
        # increments are integer-valued, so totals stay byte-identical.
        run_node: Optional[str] = None
        run_bytes = 0
        run_rows = 0
        for i in range(n):
            nbytes = 0
            for column in out_columns:
                nbytes += _value_bytes(column[i])
            node = nodes[i]
            if node != run_node:
                if run_rows:
                    self.cost.output(run_node, run_bytes, run_rows)
                run_node, run_bytes, run_rows = node, 0, 0
            run_bytes += nbytes
            run_rows += 1
            self.stats.bytes_out += nbytes
        if run_rows:
            self.cost.output(run_node, run_bytes, run_rows)


class AggregateOp(PhysicalOperator):
    """GROUP BY / aggregates with the legacy grouped-list algorithm.

    Group keys keep insertion order; DISTINCT dedups via
    ``dict.fromkeys``; HAVING evaluates against the output row (aliases);
    output rows are attributed (and their bytes charged) to the
    initiator.  The empty-input, no-GROUP-BY fallback row bypasses both
    HAVING and output cost — a legacy quirk the differential tests pin.
    """

    kind = "aggregate"

    def __init__(
        self,
        node: logical.Aggregate,
        child: PhysicalOperator,
        initiator: str,
        cost: CostReport,
    ):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]
        self.initiator = initiator
        self.cost = cost

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        node = self.logical
        rows: List[Tuple[str, RowView]] = []
        for batch in self.child.batches():
            for i in range(batch.num_rows):
                rows.append((batch.nodes[i], RowView(batch, i)))
        self.stats.rows_in = len(rows)
        # Input-side charge: what the wire would have carried without
        # pushdown, per producing node (run-length batched, same totals).
        run_node: Optional[str] = None
        run_rows = 0
        for producing_node, __ in rows:
            if producing_node != run_node:
                if run_rows:
                    self.cost.aggregated(run_node, run_rows)
                run_node, run_rows = producing_node, 0
            run_rows += 1
        if run_rows:
            self.cost.aggregated(run_node, run_rows)

        groups: Dict[Tuple[Any, ...], List[RowView]] = {}
        if node.group_by:
            for __, row in rows:
                key = tuple(expr.evaluate(row) for expr in node.group_by)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = [row for __, row in rows]

        columns = node.output_columns
        out: List[Tuple[Any, ...]] = []
        for key in groups:
            group_rows = groups[key]
            values: List[Any] = []
            for item in node.items:
                if item.aggregate:
                    values.append(_aggregate_value(item, group_rows))
                elif item.expression is not None:
                    if not group_rows:
                        values.append(None)
                    else:
                        values.append(item.expression.evaluate(group_rows[0]))
                else:
                    raise SqlError("SELECT * cannot be combined with aggregates")
            row_tuple = tuple(values)
            if node.having is not None:
                output_row = dict(zip(columns, row_tuple))
                if not predicate_holds(node.having, output_row):
                    continue
            nbytes = sum(_value_bytes(v) for v in row_tuple)
            self.cost.output(self.initiator, nbytes)
            self.stats.bytes_out += nbytes
            out.append(row_tuple)
        if not node.group_by and not out:
            # Aggregates over an empty input still return one row.
            out.append(tuple(
                _aggregate_value(item, []) if item.aggregate else None
                for item in node.items
            ))
        if out:
            out_columns = [list(col) for col in zip(*out)] if columns else []
            yield ColumnBatch(
                list(columns), out_columns, [self.initiator] * len(out)
            )


def _aggregate_value(item: ast.SelectItem, group_rows: List[Any]) -> Any:
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


class SortOp(PhysicalOperator):
    """Stable sort by ORDER BY keys with shared NULLS-LAST semantics.

    Keys evaluate against the *output* row (select-list aliases); an
    unknown column yields NULL rather than an error, and NULLs sort last
    in both directions via :func:`repro.ordering.null_last_key`.
    """

    kind = "sort"

    def __init__(self, node: logical.Sort, child: PhysicalOperator):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        order_by = self.logical.order_by
        names: List[str] = []
        entries: List[Tuple[str, Tuple[Any, ...]]] = []
        for batch in self.child.batches():
            names = batch.names
            entries.extend(zip(batch.nodes, batch.rows()))
        self.stats.rows_in = len(entries)
        if not entries:
            return

        def sort_key(entry: Tuple[str, Tuple[Any, ...]]):
            __, row = entry
            data = dict(zip(names, row))
            key = []
            for order in order_by:
                try:
                    value = order.expression.evaluate(data)
                except SqlError:
                    value = None
                key.append(null_last_key(value, order.descending))
            return tuple(key)

        entries = sorted(entries, key=sort_key)
        columns = (
            [list(col) for col in zip(*(row for __, row in entries))]
            if names else []
        )
        yield ColumnBatch(list(names), columns, [node for node, __ in entries])


class LimitOp(PhysicalOperator):
    """LIMIT n.

    Drains the child fully before slicing: the legacy interpreter
    projected and cost-charged every row first, so an early-out would
    change the CostReport.
    """

    kind = "limit"

    def __init__(self, node: logical.Limit, child: PhysicalOperator):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        remaining = self.logical.count
        for batch in self.child.batches():
            self.stats.rows_in += batch.num_rows
            if remaining <= 0:
                continue  # keep draining for cost fidelity
            if batch.num_rows <= remaining:
                remaining -= batch.num_rows
                yield batch
            else:
                sliced = _compact(batch, list(range(remaining)))
                remaining = 0
                yield sliced


class DmlScanOp(PhysicalOperator):
    """Matching scan for UPDATE/DELETE: rows with physical locations.

    Yields post-predicate :class:`~repro.vertica.engine.ScanRow`s (the
    DML executor needs container/row-index to stage delete vectors), so
    it exposes ``scan_rows()`` instead of columnar batches.  The scan
    still visits — and cost-charges — every replica copy, exactly like
    the legacy DML path.
    """

    kind = "scan-dml"

    def __init__(
        self,
        engine,
        node: logical.TableScan,
        txn: Transaction,
        initiator: str,
        snapshot: int,
        cost: CostReport,
    ):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.txn = txn
        self.initiator = initiator
        self.snapshot = snapshot
        self.cost = cost

    def label(self) -> str:
        suffix = (
            f" | FILTER: {self.logical.predicate.sql()}"
            if self.logical.predicate is not None
            else ""
        )
        return f"DML {self.logical.label()}{suffix}"

    def scan_rows(self):
        node = self.logical
        predicate = node.predicate
        started = time.perf_counter()
        scanned_before = self.cost.rows_scanned
        for scan_row in self.engine.scan(
            node.key,
            self.snapshot,
            self.txn,
            self.initiator,
            cost=self.cost,
            for_update=True,
        ):
            self.stats.rows_in += 1
            if predicate is not None and not predicate_holds(
                predicate, scan_row.data
            ):
                continue
            self.stats.rows_out += 1
            yield scan_row
        self.stats.rows_scanned += self.cost.rows_scanned - scanned_before
        self.stats.elapsed_s += time.perf_counter() - started

    def _run(self) -> Iterator[ColumnBatch]:  # pragma: no cover - unused
        raise NotImplementedError("DML scans stream ScanRows, not batches")
