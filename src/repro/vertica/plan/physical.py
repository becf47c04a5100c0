"""Physical operators executing over columnar batches.

Operators exchange :class:`~repro.vertica.batch.ColumnBatch`es of up to
:data:`~repro.vertica.batch.BATCH_ROWS` rows, and that is the only row
representation here: ``TableScanOp`` fills batches from the column
slices ``Engine.scan`` yields, joins and sorts concatenate their inputs
column-wise and *gather by index* (``(left, right)`` pair lists, an
argsort), and filters compact by a keep-vector.  No operator builds a
per-row dict or tuple, and none walks an expression per row: predicates,
join conditions, select items, group keys, aggregate arguments and sort
keys are each one :mod:`~repro.vertica.kernels` call per batch.

Fidelity notes (the differential suite enforces these):

- ``LimitOp`` drains its child fully before slicing — the legacy
  interpreter projected (and cost-charged) every row, then applied
  LIMIT, and ``CostReport`` must stay byte-identical.
- ``ProjectOp``/``AggregateOp`` materialize their input before
  evaluating, so evaluation errors and UDx resolution surface in the
  legacy order (scan errors first, then projection errors row-major,
  aggregate errors group-major — the kernels' whole-batch fallback).
- Aggregate output rows are attributed to the initiator, and the
  HAVING-bypassing "aggregate over empty input still returns one row"
  fallback is preserved bug-for-bug.
- A join's output row is right ∪ left with left winning plain-name
  collisions and right winning its qualified names — the legacy dict
  merge, decided once per output *column* in ``JoinOp._emit``.

Every operator records :class:`OperatorStats` (rows in/out, bytes out,
inclusive wall time); the pipeline feeds them to ``PROFILE``,
``CostReport`` reconciliation, and ``telemetry``.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.ordering import null_last_key
from repro.vertica.batch import BATCH_ROWS, ColumnBatch, gather
from repro.vertica.engine import CostReport, _value_widths
from repro.vertica.errors import SqlError
from repro.vertica.expr import Expression, UdxCall, predicate_holds
from repro.vertica.kernels import column_reader, evaluate_columns
from repro.vertica.plan import logical
from repro.vertica.plan.adaptive import AdaptiveContext
from repro.vertica.settings import PlanContext
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.txn import Transaction


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
        return self.logical.label()

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


def _compact(batch: ColumnBatch, keep: Sequence[int]) -> ColumnBatch:
    """Select rows by index, preserving shared column-list identity."""
    cache: Dict[int, List[Any]] = {}
    columns: List[List[Any]] = []
    for column in batch.columns:
        compacted = cache.get(id(column))
        if compacted is None:
            compacted = cache[id(column)] = gather(column, keep)
        columns.append(compacted)
    row_ids = batch.row_ids
    if row_ids is not None:
        row_ids = [row_ids[i] for i in keep]
    return ColumnBatch(
        batch.names, columns, gather(batch.nodes, keep), batch.container, row_ids
    )


def _concat(batches: List[ColumnBatch]) -> ColumnBatch:
    """One operator's whole output as a single batch.

    Every batch of one operator names the same columns with the same
    lists shared between aliases, so the first batch's sharing decides.
    """
    if not batches:
        return ColumnBatch([], [], [])
    cache: Dict[int, List[Any]] = {}
    columns: List[List[Any]] = []
    for position, column in enumerate(batches[0].columns):
        joined = cache.get(id(column))
        if joined is None:
            joined = cache[id(column)] = list(itertools.chain.from_iterable(
                batch.columns[position] for batch in batches
            ))
        columns.append(joined)
    nodes = list(itertools.chain.from_iterable(b.nodes for b in batches))
    return ColumnBatch(batches[0].names, columns, nodes)


def _matching(batch: ColumnBatch, predicate: Expression) -> List[int]:
    """Indices of the rows whose ``predicate`` is strictly True, in order."""
    (values,) = evaluate_columns([predicate], batch)
    return [i for i, value in enumerate(values) if value is True]


def _apply_predicate(
    batch: ColumnBatch, predicate: Expression
) -> Optional[ColumnBatch]:
    """The rows of ``batch`` that satisfy ``predicate``; None if none does."""
    keep = _matching(batch, predicate)
    if not keep:
        return None
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

    def _run(self) -> Iterator[ColumnBatch]:
        yield ColumnBatch([], [], [self.initiator])


class TableScanOp(PhysicalOperator):
    """Segment-pruned storage scan producing qualified columnar batches.

    The engine's ``scan`` generator (visibility, hash-range row filter,
    buddy failover, WOS read-your-writes) stays the single source of
    storage truth; this operator only copies the requested columns of
    its slices into full batches — storage lists are never handed
    downstream — and applies any pushed-down predicate.
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

    def _slices(self, columns: Optional[Sequence[str]]) -> Iterator[ColumnBatch]:
        """The engine's scan of this table, accounted into ``stats``."""
        node = self.logical
        scanned_before = self.cost.rows_scanned
        for chunk in self.engine.scan(
            node.key,
            self.snapshot,
            self.txn,
            self.initiator,
            hash_range=node.hash_range,
            cost=self.cost,
            for_update=node.for_update,
            columns=columns,
        ):
            self.stats.rows_scanned += self.cost.rows_scanned - scanned_before
            self.stats.rows_in += chunk.num_rows
            yield chunk
            scanned_before = self.cost.rows_scanned
        self.stats.rows_scanned += self.cost.rows_scanned - scanned_before

    def _run(self) -> Iterator[ColumnBatch]:
        predicate = self.logical.predicate
        for batch in self._unfiltered():
            matched = (
                batch if predicate is None else _apply_predicate(batch, predicate)
            )
            if matched is not None:
                yield matched

    def _unfiltered(self) -> Iterator[ColumnBatch]:
        """The scan's slices refilled into qualified ``BATCH_ROWS`` batches."""
        node = self.logical
        plain = list(
            node.columns
            if node.columns is not None
            else node.table.column_names()
        )
        names = list(plain)
        copies = 1
        if node.qualify:  # qualified names alias the same lists: zero copies
            names += [f"{node.alias}.{c}" for c in plain]
            copies = 2
        columns: List[List[Any]] = [[] for __ in plain]
        nodes: List[str] = []
        for chunk in self._slices(plain):
            start, size = 0, chunk.num_rows
            while start < size:
                stop = start + BATCH_ROWS - len(nodes)
                whole = start == 0 and stop >= size
                for column, source in zip(columns, chunk.columns):
                    column.extend(source if whole else source[start:stop])
                nodes.extend(chunk.nodes if whole else chunk.nodes[start:stop])
                start = stop
                if len(nodes) >= BATCH_ROWS:
                    yield ColumnBatch(names, columns * copies, nodes)
                    columns = [[] for __ in plain]
                    nodes = []
        if nodes:
            yield ColumnBatch(names, columns * copies, nodes)


class SystemScanOp(PhysicalOperator):
    """System-table rows, computed on (and attributed to) the initiator."""

    kind = "scan-system"

    def __init__(self, engine, node, initiator: str):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.initiator = initiator

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
        # A repeated result column keeps its last occurrence, like a dict.
        position = {name: i for i, name in enumerate(result.columns)}
        plain = list(position)
        hashed = [position[name] for name in sorted(position)]
        alias = self.logical.alias
        names = plain + [f"{alias}.{c}" for c in plain if "." not in c]
        for start in range(0, len(result.rows), BATCH_ROWS):
            by_position = list(zip(*result.rows[start:start + BATCH_ROWS]))
            columns = [list(by_position[position[name]]) for name in plain]
            nodes = [
                ring.node_for(vertica_hash(*values))
                for values in zip(*(by_position[i] for i in hashed))
            ]
            qualified = [
                column for name, column in zip(plain, columns) if "." not in name
            ]
            self.stats.rows_in += len(nodes)
            yield ColumnBatch(names, columns + qualified, nodes)


#: a candidate match: (row of the left input, row of the right input)
Pair = Tuple[int, int]
#: one input's equi-key tuple per row; ``None`` where NULL makes it unmatchable
Keys = List[Optional[Tuple[Any, ...]]]
#: relation alias -> that relation's materialization index, one per row
Provenance = Dict[str, Sequence[int]]
#: relation alias -> (0 = left input / 1 = right input, its index column)
Sources = Dict[str, Tuple[int, Sequence[int]]]


class JoinOp(PhysicalOperator):
    """Inner join; this class is the nested loop, subclasses narrow it.

    Both inputs are concatenated column-wise, a *pair source*
    (:meth:`_pairs`) proposes candidate ``(left, right)`` row-index pairs
    in emission order, and one shared :meth:`_emit` gathers them into
    batches, validates the *full* join condition on every candidate and
    compacts the survivors.  The nested loop proposes the lazy left-major
    product; hash and merge joins prefilter on the equi keys (see
    :class:`HashJoinOp`) — the key match never replaces the condition, so
    semantics stay bit-for-bit with the nested loop, and all three emit
    in its left-major order with the *left* row's producing node.

    Joins inside a cost-reordered chain (``logical.reorder_chain``) also
    track **provenance**: each base relation's materialization index for
    every output row, column-major like every other column — one index
    list per relation alias.  The chain root uses them to sort its pairs
    back into the binder's lexicographic order and to re-attribute every
    output row to the binder-leftmost relation's producing node, keeping
    rows *and* per-node cost attribution byte-identical to the
    unreordered plan.
    """

    kind = "join"

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

    def _materialize(
        self, operator: PhysicalOperator, slot: int, sources: Sources
    ) -> ColumnBatch:
        batch = _concat(list(operator.batches()))
        self.stats.rows_in += batch.num_rows
        if self.logical.reorder_chain:
            if isinstance(operator, JoinOp):
                # a chain join below us: adopt its provenance wholesale
                provenance = operator.output_provenance
                self.leaf_nodes.update(operator.leaf_nodes)
            else:  # a leaf scan: row i of the input is row i of the leaf
                provenance = {operator.logical.alias: range(batch.num_rows)}
                self.leaf_nodes[operator.logical.alias] = batch.nodes
            for alias, column in provenance.items():
                sources[alias] = (slot, column)
        return batch

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

    def _pairs(
        self, left: ColumnBatch, right: ColumnBatch, sources: Sources
    ) -> Iterable[Pair]:
        """Candidate pairs in emission order: here, every pair, lazily."""
        # The nested loop broadcasts the right side to every probe node.
        self._charge_shuffle(right.nodes, left.nodes)
        return itertools.product(range(left.num_rows), range(right.num_rows))

    def _run(self) -> Iterator[ColumnBatch]:
        sources: Sources = {}
        left = self._materialize(self.left, 0, sources)
        right = self._materialize(self.right, 1, sources)
        yield from self._emit(
            iter(self._pairs(left, right, sources)), left, right, sources
        )

    def _emit(
        self,
        pairs: Iterator[Pair],
        left: ColumnBatch,
        right: ColumnBatch,
        sources: Sources,
    ) -> Iterator[ColumnBatch]:
        """Gather, validate and compact the candidates, a batch at a time."""
        restore = self.logical.restore_order
        # a chain join below the root hands its kept pairs' provenance up
        tracking = self.logical.reorder_chain and restore is None
        kept: Tuple[List[int], List[int]] = ([], [])
        # The merge rule, once per output column: right's names first; a
        # name both sides have reads left unless it is alias-qualified.
        names = right.names + [n for n in left.names if n not in right.index]
        origin = [
            int(n in right.index and ("." in n or n not in left.index))
            for n in names
        ]
        while True:
            chunk = list(itertools.islice(pairs, BATCH_ROWS))
            if not chunk:
                break
            picks = tuple(zip(*chunk))  # (left indices, right indices)
            sides = (_compact(left, picks[0]), _compact(right, picks[1]))
            columns = [
                sides[slot].columns[sides[slot].index[name]]
                for name, slot in zip(names, origin)
            ]
            nodes = sides[0].nodes
            if restore is not None:
                # legacy attribution: the binder-leftmost relation's row
                # produced the joined row
                anchor_slot, anchor = sources[restore[0]]
                anchor_nodes = self.leaf_nodes[restore[0]]
                nodes = [anchor_nodes[anchor[i]] for i in picks[anchor_slot]]
            batch = ColumnBatch(names, columns, nodes)
            keep = _matching(batch, self.logical.condition)
            if tracking:
                for slot in (0, 1):
                    kept[slot].extend(picks[slot][i] for i in keep)
            if len(keep) < len(chunk):
                batch = _compact(batch, keep)
            if keep:
                yield batch
        if tracking:
            self.output_provenance = {
                alias: [column[i] for i in kept[slot]]
                for alias, (slot, column) in sources.items()
            }


def _join_keys(batch: ColumnBatch, refs: List[str]) -> Keys:
    columns = [batch.columns[batch.index[ref]] for ref in refs]
    return [None if None in key else key for key in zip(*columns)]


def _hash_pairs(left_keys: Keys, right_keys: Keys, build_left: bool) -> List[Pair]:
    build_keys, probe_keys = (
        (left_keys, right_keys) if build_left else (right_keys, left_keys)
    )
    table: Dict[Tuple[Any, ...], List[int]] = {}
    for index, key in enumerate(build_keys):
        if key is not None:
            table.setdefault(key, []).append(index)
    pairs: List[Pair] = []
    for probe_index, key in enumerate(probe_keys):
        if key is None:
            continue
        for build_index in table.get(key, ()):
            pairs.append(
                (build_index, probe_index)
                if build_left
                else (probe_index, build_index)
            )
    return pairs


def _merge_pairs(left_keys: Keys, right_keys: Keys) -> List[Pair]:
    left_keyed = _sorted_keys(left_keys)
    right_keyed = _sorted_keys(right_keys)
    pairs: List[Pair] = []
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


def _sorted_keys(keys: Keys) -> List[Tuple[Tuple[Any, ...], int]]:
    keyed = [(key, index) for index, key in enumerate(keys) if key is not None]
    keyed.sort(key=lambda item: item[0])
    return keyed


class HashJoinOp(JoinOp):
    """Equi-join: pairs from a hash table on the (estimated) smaller side.

    Only rows whose equi keys match (NULL keys never do) become
    candidates.  After both inputs are materialized but before pairing
    starts, the operator **checkpoints** against the query's
    :class:`~repro.vertica.plan.adaptive.AdaptiveContext`, which may swap
    the build side or switch between hashing and sort-merge based on
    *observed* row counts; pairs are sorted into emission order, so the
    decision cannot change the emitted bytes — only the work to find them.
    """

    kind = "join-hash"

    def _pairs(
        self, left: ColumnBatch, right: ColumnBatch, sources: Sources
    ) -> Iterable[Pair]:
        build_side, strategy = self.adaptive.checkpoint(
            self.logical, left.num_rows, right.num_rows
        )
        if build_side == "left":
            self._charge_shuffle(left.nodes, right.nodes)
        else:
            self._charge_shuffle(right.nodes, left.nodes)
        if not (left.num_rows and right.num_rows):
            return []  # an input that yielded no batch has no key columns
        keys = self.logical.equi_keys
        left_keys = _join_keys(left, [left_ref for left_ref, __ in keys])
        right_keys = _join_keys(right, [right_ref for __, right_ref in keys])
        if strategy == "merge":
            pairs = _merge_pairs(left_keys, right_keys)
        else:
            pairs = _hash_pairs(left_keys, right_keys, build_side == "left")
        restore = self.logical.restore_order
        if restore is None:
            pairs.sort()  # the nested loop's left-major output order
        elif pairs:
            # Chain root: sort back into the binder's lexicographic order —
            # exactly the (a, b, c, ...) enumeration the legacy nested loops
            # over the original FROM order would have produced.  One gather
            # per relation, then an argsort over the zipped index columns.
            picks = tuple(zip(*pairs))  # (left indices, right indices)
            keys = list(zip(*(
                [column[i] for i in picks[slot]]
                for slot, column in (sources[alias] for alias in restore)
            )))
            order = sorted(range(len(pairs)), key=keys.__getitem__)
            pairs = [pairs[i] for i in order]
        return pairs


class MergeJoinOp(HashJoinOp):
    """Equi-join planned as a sort-merge of both key arrays.

    Chosen when the build side would overflow the hash-table memory
    budget; the planner guarantees both key columns share one type class,
    so the sorts cannot hit Python's mixed-type ordering ``TypeError``.
    Differs from :class:`HashJoinOp` only in the plan it checkpoints
    (``logical.strategy``), which decides the pair algorithm at run time.
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

    def _run(self) -> Iterator[ColumnBatch]:
        predicate = self.logical.predicate
        for batch in self.child.batches():
            self.stats.rows_in += batch.num_rows
            filtered = _apply_predicate(batch, predicate)
            if filtered is not None:
                yield filtered


class ProjectOp(PhysicalOperator):
    """Select-list evaluation; charges per-row output bytes to nodes.

    ``*`` expansion and plain column references hand the input's column
    lists on by reference; every other item (a resolved UDx included) is
    one kernel call per batch.
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

    def _run(self) -> Iterator[ColumnBatch]:
        node = self.logical
        # Materialize first: scan/storage errors must surface before UDx
        # resolution and projection errors, as in the legacy interpreter.
        batches = list(self.child.batches())
        self.stats.rows_in = sum(b.num_rows for b in batches)
        #: per output column: a ``*``-expanded column name, or an expression
        plan: List[Union[str, Expression]] = []
        for item in node.items:
            if item.star:
                plan.extend(node.source_columns)
            elif item.udf:
                plan.append(UdxCall(
                    self.db.udx.lookup(item.udf), item.udf_args, item.parameters
                ))
            elif item.expression is not None:
                plan.append(item.expression)
        expressions = [entry for entry in plan if isinstance(entry, Expression)]
        names = list(node.output_columns)
        for batch in batches:
            computed = dict(zip(expressions, evaluate_columns(expressions, batch)))
            # Star expansion uses row.get(): absent columns yield NULL.
            absent = [None] * batch.num_rows
            out_columns = [
                computed[entry] if isinstance(entry, Expression)
                else batch.columns[batch.index[entry]] if entry in batch.index
                else absent
                for entry in plan
            ]
            self._charge_output(out_columns, batch.nodes)
            yield ColumnBatch(names, out_columns, batch.nodes)

    def _charge_output(
        self, out_columns: List[List[Any]], nodes: List[str]
    ) -> None:
        # One width per column (or per value where they differ), one
        # CostReport call per run of same-node rows; all increments are
        # integer-valued, so totals stay byte-identical.
        fixed = 0
        varying: List[List[int]] = []
        for column in out_columns:
            widths = _value_widths(column)
            if isinstance(widths, int):
                fixed += widths
            else:
                varying.append(widths)
        start = 0
        for node, run in itertools.groupby(nodes):
            stop = start + len(list(run))
            nbytes = fixed * (stop - start) + sum(
                sum(widths[start:stop]) for widths in varying
            )
            self.cost.output(node, nbytes, stop - start)
            self.stats.bytes_out += nbytes
            start = stop


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

    def _run(self) -> Iterator[ColumnBatch]:
        node = self.logical
        batch = _concat(list(self.child.batches()))
        self.stats.rows_in = batch.num_rows
        # Input-side charge: what the wire would have carried without
        # pushdown, per producing node (run-length batched, same totals).
        for producing_node, run in itertools.groupby(batch.nodes):
            self.cost.aggregated(producing_node, len(list(run)))

        #: each group's row indices in ``batch``, groups in first-seen order
        groups: Iterable[Sequence[int]] = [range(batch.num_rows)]
        if node.group_by:
            members: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
            keys = zip(*evaluate_columns(node.group_by, batch))
            for i, key in enumerate(keys):
                members[key].append(i)
            groups = members.values()
        # Read group by group, item by item: the legacy evaluation order.
        wanted = (
            item.aggregate_arg if item.aggregate else item.expression
            for item in node.items
        )
        read = column_reader([e for e in wanted if e is not None], batch)

        columns = node.output_columns
        out: List[Tuple[Any, ...]] = []
        for group in groups:
            values: List[Any] = []
            for item in node.items:
                if item.aggregate:
                    values.append(_aggregate_value(item, group, read))
                elif item.expression is not None:
                    first = read(item.expression, group[:1])
                    values.append(first[0] if first else None)
                else:
                    raise SqlError("SELECT * cannot be combined with aggregates")
            row_tuple = tuple(values)
            if node.having is not None:
                output_row = dict(zip(columns, row_tuple))
                if not predicate_holds(node.having, output_row):
                    continue
            widths = _value_widths(row_tuple)
            nbytes = (
                widths * len(row_tuple) if isinstance(widths, int) else sum(widths)
            )
            self.cost.output(self.initiator, nbytes)
            self.stats.bytes_out += nbytes
            out.append(row_tuple)
        if not node.group_by and not out:
            # Aggregates over an empty input still return one row.
            out.append(tuple(
                _aggregate_value(item, (), read) if item.aggregate else None
                for item in node.items
            ))
        if out:
            out_columns = [list(col) for col in zip(*out)] if columns else []
            yield ColumnBatch(
                list(columns), out_columns, [self.initiator] * len(out)
            )


def _aggregate_value(
    item: ast.SelectItem,
    group: Sequence[int],
    read: Callable[[Expression, Sequence[int]], List[Any]],
) -> Any:
    name = item.aggregate
    if item.aggregate_arg is None:
        if name != "COUNT":
            raise SqlError(f"{name} requires an argument")
        return len(group)
    values = [v for v in read(item.aggregate_arg, group) if v is not None]
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

    def _run(self) -> Iterator[ColumnBatch]:
        order_by = self.logical.order_by
        batch = _concat(list(self.child.batches()))
        self.stats.rows_in = batch.num_rows
        if not batch.num_rows:
            return
        columns = evaluate_columns(
            [order.expression for order in order_by], batch, swallow=(SqlError,)
        )
        keys = list(zip(*(
            [null_last_key(value, order.descending) for value in column]
            for column, order in zip(columns, order_by)
        )))
        yield _compact(
            batch, sorted(range(batch.num_rows), key=keys.__getitem__)
        )


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
                yield _compact(batch, range(remaining))
                remaining = 0


class DmlScanOp(TableScanOp):
    """Matching scan for UPDATE/DELETE: rows with physical locations.

    Yields each storage slice's post-predicate rows as its own batch, so
    every batch still names its ``container`` and ``row_ids`` (the DML
    executor stages delete vectors against them) and comes from a single
    node.  The scan visits — and cost-charges — every replica copy,
    exactly like the legacy DML path.
    """

    kind = "scan-dml"

    def _unfiltered(self) -> Iterator[ColumnBatch]:
        return self._slices(None)
