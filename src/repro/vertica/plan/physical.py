"""Physical operators executing over columnar batches.

Operators exchange :class:`~repro.vertica.batch.ColumnBatch`es of up to
:data:`~repro.vertica.batch.BATCH_ROWS` rows, and that is the only row
representation here: ``TableScanOp`` fills batches from the column
slices ``Engine.scan`` yields, joins and sorts concatenate their inputs
column-wise and *gather by index* (a join's two parallel row-index
lists, an argsort), and filters compact by a keep-vector.  No operator
builds a per-row dict or tuple — nor one per candidate pair of a join —
and none walks an expression per row: predicates, join conditions,
select items, group keys, aggregate arguments and sort keys are each one
:mod:`~repro.vertica.kernels` call per batch (a ``column <op> literal``
filter: one selector call, straight to its selection vector — pushed
into a scan, on the stored column before the batch is gathered).

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

Every operator charges what it scans, aggregates, outputs and shuffles
to a :class:`~repro.vertica.engine.CostReport` of its own, and records
:class:`OperatorStats` (rows in/out, batches, inclusive wall time,
candidate pairs); the pipeline sums the reports into the statement's and
feeds both to ``PROFILE`` and ``telemetry``.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import time
from collections import Counter, defaultdict
from typing import (
    Any,
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
from repro.vertica.batch import BATCH_ROWS, ColumnBatch, Kinds, agreed_kinds, gather
from repro.vertica.engine import CostReport, RowSelector, _value_widths
from repro.vertica.errors import SqlError
from repro.vertica.expr import (
    Expression,
    UdxCall,
    predicate_holds,
    reads_whole_row,
)
from repro.vertica.kernels import (
    KERNEL_ERRORS,
    Reader,
    column_reader,
    column_selector_of,
    evaluate_columns,
    selector_of,
)
from repro.vertica.plan import logical
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.txn import Transaction


class OperatorStats:
    """Per-operator execution counters, feeding PROFILE and telemetry."""

    __slots__ = ("rows_in", "rows_out", "batches", "elapsed_s", "candidate_pairs")

    def __init__(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        self.batches = 0
        #: inclusive wall time (this operator plus everything below it)
        self.elapsed_s = 0.0
        #: pairs a join's pair source proposed, validated or key-decided
        self.candidate_pairs = 0


class PhysicalOperator:
    """Base operator: ``batches()`` wraps ``_run`` with stats timing."""

    kind = "op"
    #: the logical node this operator executes (set by every subclass)
    logical: Any

    def __init__(self) -> None:
        self.stats = OperatorStats()
        #: what this operator itself charged (a view: its whole query)
        self.cost = CostReport()
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
        batch.names, columns, gather(batch.nodes, keep), batch.container, row_ids,
        batch.kinds,
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
    kinds = batches[0].kinds
    for batch in batches[1:]:
        kinds = agreed_kinds(kinds, batch.kinds)
    return ColumnBatch(batches[0].names, columns, nodes, kinds=kinds)


def _matching(batch: ColumnBatch, predicate: Expression) -> List[int]:
    """Indices of the rows whose ``predicate`` is strictly True, in order:
    its selector's if it has one that does not raise, else the kernel's."""
    select = selector_of(predicate)
    if select is not None:
        try:
            return select(batch)
        except KERNEL_ERRORS:
            pass  # the kernel, then the row evaluator, pick the error
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

    A pushed ``column <op> literal`` on one of the scanned columns is
    answered by the engine instead, on the stored column before anything
    is gathered (:meth:`_selection`).  If that selector raises, the slice
    comes through unfiltered and the predicate is applied to every batch
    from then on, so the kernel and the row evaluator pick the error.
    ``rows in`` counts the rows before the predicate either way.
    """

    kind = "scan"

    def __init__(
        self,
        engine,
        node: logical.TableScan,
        txn: Optional[Transaction],
        initiator: str,
        snapshot: int,
    ):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.txn = txn
        self.initiator = initiator
        self.snapshot = snapshot
        #: the engine still answers the pushed predicate (:meth:`_selection`)
        self.selecting = False

    def _selection(self, columns: Sequence[str]) -> Optional[RowSelector]:
        """The pushed predicate as the engine's selector on one of the
        stored ``columns`` this scan reads (plain, or qualified by its own
        alias); None unless it is a :func:`kernels.column_selector_of`."""
        node = self.logical
        found = None if node.predicate is None else column_selector_of(
            node.predicate
        )
        if found is None:
            return None
        name, pick = found
        if node.qualify and name.startswith(f"{node.alias}."):
            name = name[len(node.alias) + 1:]
        if name not in columns:
            return None

        def select(values: List[Any]) -> Optional[List[int]]:
            self.stats.rows_in += len(values)
            if self.selecting:
                try:
                    return pick(values)
                except KERNEL_ERRORS:
                    self.selecting = False  # the row evaluator picks the error
            return None

        self.selecting = True
        return name, select

    def _slices(self, columns: Optional[Sequence[str]]) -> Iterator[ColumnBatch]:
        """The engine's scan of this table, charged to this operator."""
        node = self.logical
        select = self._selection(
            columns if columns is not None else node.table.column_names()
        )
        for chunk in self.engine.scan(
            node.key,
            self.snapshot,
            self.txn,
            self.initiator,
            hash_range=node.hash_range,
            cost=self.cost,
            for_update=node.for_update,
            columns=columns,
            select=select,
        ):
            if select is None:
                self.stats.rows_in += chunk.num_rows
            yield chunk

    def _run(self) -> Iterator[ColumnBatch]:
        predicate = self.logical.predicate
        for batch in self._unfiltered():
            matched = (
                batch if predicate is None or self.selecting
                else _apply_predicate(batch, predicate)
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
        kinds: Kinds = None
        for chunk in self._slices(plain):
            start, size = 0, chunk.num_rows
            while start < size:
                stop = start + BATCH_ROWS - len(nodes)
                whole = start == 0 and stop >= size
                for column, source in zip(columns, chunk.columns):
                    column.extend(source if whole else source[start:stop])
                kinds = agreed_kinds(kinds, chunk.kinds) if nodes else chunk.kinds
                nodes.extend(chunk.nodes if whole else chunk.nodes[start:stop])
                start = stop
                if len(nodes) >= BATCH_ROWS:
                    yield ColumnBatch(
                        names, columns * copies, nodes, kinds=kinds and kinds * copies
                    )
                    columns = [[] for __ in plain]
                    nodes = []
        if nodes:
            yield ColumnBatch(
                names, columns * copies, nodes, kinds=kinds and kinds * copies
            )


class SystemScanOp(PhysicalOperator):
    """System-table rows, computed on (and attributed to) the initiator."""

    kind = "scan-system"

    def __init__(self, engine, node, initiator: str):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.initiator = initiator

    def _run(self) -> Iterator[ColumnBatch]:
        db = self.engine.database
        plain, producer = db.catalog.system_table(self.logical.key)
        rows = producer(db)
        names = list(plain) + [f"{self.logical.alias}.{c}" for c in plain]
        for start in range(0, len(rows), BATCH_ROWS):
            chunk = rows[start:start + BATCH_ROWS]
            columns = [list(column) for column in zip(*chunk)]
            self.stats.rows_in += len(chunk)
            # qualified names alias the same lists: zero copies
            yield ColumnBatch(
                names, columns * 2, [self.initiator] * len(chunk)
            )


class ViewScanOp(PhysicalOperator):
    """Expand a view through the full pipeline, synthetic-ring attributed.

    The inner SELECT runs through ``engine.select`` recursively — charged
    to this operator's CostReport, same epoch-read telemetry — exactly as
    the legacy ``_view_rows`` did; each output row is then attributed to
    the node owning its ``SYNTHETIC_HASH`` range.
    """

    kind = "scan-view"

    def __init__(
        self,
        engine,
        node: logical.ViewScan,
        txn: Transaction,
        initiator: str,
        snapshot: int,
    ):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.txn = txn
        self.initiator = initiator
        self.snapshot = snapshot

    def _run(self) -> Iterator[ColumnBatch]:
        from repro.vertica.hashring import synthetic_ring, vertica_hash

        db = self.engine.database
        view = db.catalog.view(self.logical.key)
        query = view.query
        if query.at_epoch is None and self.snapshot is not None:
            query = dataclasses.replace(query, at_epoch=self.snapshot)
        result = self.engine.select(query, self.txn, self.initiator, cost=self.cost)
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


#: one input's equi key per row — the key column's own value, or a tuple
#: of them for a multi-column key; ``None`` where the row can match nothing
Keys = List[Any]
#: row indices; a unit ``range`` where they are consecutive, so that a
#: :func:`~repro.vertica.batch.gather` through them is a slice
Rows = Union[range, List[int]]
#: candidate pairs as two parallel row-index sequences — rows of the left
#: input, rows of the right input — in the nested loop's left-major order
PairRows = Tuple[Rows, Rows]
#: relation (its alias in a reordered chain, else its input slot) -> (its
#: materialization index per row, its batch); the first one produced the rows
Provenance = Dict[Any, Tuple[Rows, ColumnBatch]]
#: a join's input relations: key -> (0 = left / 1 = right, index, batch)
Sources = Dict[Any, Tuple[int, Rows, ColumnBatch]]
#: where a joined column's values live: (its relation's key, that list)
SideColumn = Tuple[Any, List[Any]]


def _side_columns(
    sources: Sources, slot: int
) -> Tuple[List[str], Dict[str, SideColumn]]:
    """One input's names, right relation first as the joins below listed
    them, and each name's :data:`SideColumn` (a repeated name: its last)."""
    names: List[str] = []
    where: Dict[str, SideColumn] = {}
    for key, (side, __, batch) in reversed(sources.items()):
        if side == slot:
            names += batch.names
            where.update(zip(batch.names, zip(itertools.repeat(key), batch.columns)))
    return names, where


def _gather_sides(
    wanted: Sequence[SideColumn],
    rows: Dict[Any, Rows],
    gathered: Dict[int, List[Any]],
) -> List[List[Any]]:
    """Each wanted column at its relation's ``rows``.

    A list that several names share (``K`` and ``P.K``) is gathered once
    and stays shared; ``gathered`` carries what one set of picks already
    fetched from the condition's columns over to the output columns.
    """
    out: List[List[Any]] = []
    for key, column in wanted:
        values = gathered.get(id(column))
        if values is None:
            values = gathered[id(column)] = gather(column, rows[key])
        out.append(values)
    return out


class JoinOp(PhysicalOperator):
    """Inner join; this class is the nested loop, subclasses narrow it.

    Both inputs are concatenated column-wise and a *pair source*
    (:meth:`_pairs`) proposes the candidate matches as two parallel
    row-index sequences, already in emission order; no candidate is ever
    an object of its own.  One shared :meth:`_emit` takes them
    ``BATCH_ROWS`` at a time, gathers only the columns the join condition
    reads, validates the *full* condition on every candidate, and gathers
    the output columns once, for the survivors — only those an operator
    above reads (``logical.read_above``).  The nested loop proposes
    the lazy left-major product; the hash join proposes the key-equal
    pairs (see :class:`HashJoinOp`) and validates them too, so semantics
    stay bit-for-bit with the nested loop — unless the planner marked the
    join ``keys_decide`` (its condition is its equi keys over one type
    class, ``optimizer._plan_joins`` holds the proof), where every
    candidate is a match.  Both emit in the nested loop's left-major
    order with the *left* row's producing node.

    Joins inside a cost-reordered chain (``logical.reorder_chain``) read
    every column through **provenance**, each base relation's
    materialization index per row.  A join below the chain root gathers
    only the columns its keys (and condition) read and hands up its kept
    pairs' provenance, not columns.  The root gathers each output column
    once, from its relation, puts its pairs in the binder's order (unless
    they already are) and attributes each output row to the
    binder-leftmost relation's node: rows *and* per-node costs stay those
    of the unreordered plan.
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
        #: filled by a chain join below the root for the join above it
        self.output_provenance: Provenance = {}

    def _materialize(
        self, operator: PhysicalOperator, slot: int, sources: Sources
    ) -> List[str]:
        """Run one input into ``sources``; its producing node per row."""
        batches = list(operator.batches())
        if self.logical.reorder_chain and isinstance(operator, JoinOp):
            handoff = operator.output_provenance  # it yielded no batch
        else:
            batch = _concat(batches)
            key = operator.logical.alias if self.logical.reorder_chain else slot
            handoff = {key: (range(batch.num_rows), batch)}
        for key, (rows, batch) in handoff.items():
            sources[key] = (slot, rows, batch)
        rows, batch = next(iter(handoff.values()))
        self.stats.rows_in += len(rows)
        return _at(batch.nodes, rows)

    def _charge_shuffle(
        self, build_nodes: List[str], probe_nodes: List[str]
    ) -> None:
        """Broadcast-build cost: each build row is copied to every other
        node holding probe rows, charged on its own node; a co-located
        join moves nothing."""
        if self.logical.colocated:
            return
        probe_set = set(probe_nodes)
        for node, rows in Counter(build_nodes).items():
            moved = rows * len(probe_set - {node})
            if moved:
                self.cost.shuffled(node, moved)

    def _pairs(
        self, left: List[str], right: List[str], sources: Sources
    ) -> Iterator[PairRows]:
        """Candidate pairs in emission order, at most ``BATCH_ROWS`` at a
        time, given each input's node per row: here, every pair, lazily."""
        # The nested loop broadcasts the right side to every probe node.
        self._charge_shuffle(right, left)
        height, width = len(left), len(right)
        left_rows = itertools.chain.from_iterable(
            map(itertools.repeat, range(height), itertools.repeat(width))
        )
        right_rows = itertools.chain.from_iterable(
            itertools.repeat(range(width), height)
        )
        while True:
            picks = (
                list(itertools.islice(left_rows, BATCH_ROWS)),
                list(itertools.islice(right_rows, BATCH_ROWS)),
            )
            if not picks[0]:
                return
            yield picks

    def _run(self) -> Iterator[ColumnBatch]:
        sources: Sources = {}
        left = self._materialize(self.left, 0, sources)
        right = self._materialize(self.right, 1, sources)
        yield from self._emit(self._pairs(left, right, sources), sources)

    def _emit(
        self, pairs: Iterable[PairRows], sources: Sources
    ) -> Iterator[ColumnBatch]:
        """Validate the candidates, then gather the survivors, per batch."""
        join = self.logical
        condition, restore = join.condition, join.restore_order
        # a chain join below the root hands its kept pairs' provenance up
        tracking = join.reorder_chain and restore is None
        kept: Tuple[List[int], List[int]] = ([], [])
        left_names, left = _side_columns(sources, 0)
        right_names, right = _side_columns(sources, 1)
        # The merge rule, once per output column: right's names first; a
        # name both sides have reads left unless it is alias-qualified.
        names = right_names + [n for n in left_names if n not in right]
        where = {
            n: right[n] if n in right and ("." in n or n not in left) else left[n]
            for n in names
        }
        # What validation needs: the columns the condition names — every
        # column when it calls SYNTHETIC_HASH, which hashes the whole row.
        read = None if reads_whole_row(condition) else set(condition.columns())
        narrow_names = [n for n in names if read is None or n in read]
        narrow_columns = [where[n] for n in narrow_names]
        # what the output needs: the columns the operators above read
        if join.read_above is not None:
            names = [n for n in names if n in join.read_above]
        output = [where[n] for n in names]
        # the joined row's producing node: the left row's or, at a chain
        # root, the binder-leftmost relation's row's (legacy attribution)
        anchor = next(iter(sources)) if restore is None else restore[0]

        def rows_at(picks: PairRows) -> Dict[Any, Rows]:
            return {k: _through(i, picks[s]) for k, (s, i, __) in sources.items()}

        for picks in pairs:
            candidates = len(picks[0])
            self.stats.candidate_pairs += candidates
            gathered: Dict[int, List[Any]] = {}
            if not join.keys_decide:
                # the condition reads no producing node: blanks stand in
                columns = _gather_sides(narrow_columns, rows_at(picks), gathered)
                checked = ColumnBatch(narrow_names, columns, [""] * candidates)
                keep = _matching(checked, condition)
                if not keep:
                    continue
                if len(keep) < candidates:
                    lefts, rights = picks
                    picks = [lefts[i] for i in keep], [rights[i] for i in keep]
                    gathered = {}
            if tracking:
                kept[0].extend(picks[0])
                kept[1].extend(picks[1])
                self.stats.rows_out += len(picks[0])
                self.stats.batches += 1
                continue
            rows = rows_at(picks)
            nodes = gather(sources[anchor][2].nodes, rows[anchor])
            yield ColumnBatch(names, _gather_sides(output, rows, gathered), nodes)
        if tracking:
            self.output_provenance = {
                key: (_through(index, kept[slot]), batch)
                for key, (slot, index, batch) in sources.items()
            }


def _through(column: Rows, rows: Rows) -> Rows:
    """A provenance column read at ``rows``; a leaf scan's is the identity."""
    return rows if isinstance(column, range) else gather(column, rows)


def _at(values: List[Any], column: Rows) -> List[Any]:
    """A relation's ``values`` at a provenance column (the identity: as is)."""
    return values if isinstance(column, range) else gather(values, column)


def _batched(picks: PairRows) -> Iterator[PairRows]:
    """The pair rows ``BATCH_ROWS`` at a time; a slice of a ``range`` stays
    one, so whatever is gathered through it is sliced too."""
    for start in range(0, len(picks[0]), BATCH_ROWS):
        stop = start + BATCH_ROWS
        yield picks[0][start:stop], picks[1][start:stop]


def _nan_as_null(column: List[Any]) -> List[Any]:
    """``column`` with every NaN — the one value unequal to itself — NULL."""
    if any(map(operator.ne, column, column)):
        return [None if value != value else value for value in column]
    return column


#: stored kinds that hold no NaN, so a key column of one is taken as it is
_NAN_FREE = (int, str, bool)


def _join_keys(sources: Sources, slot: int, refs: List[str]) -> Keys:
    """Input ``slot``'s equi key per row; ``None`` where it can match nothing.

    A NULL key equals nothing and neither does a NaN — though a dict,
    which matches ``a is b`` before ``a == b``, would pair one NaN object
    with itself.  A single-column key is the column itself: no tuple per
    row.
    """
    where = _side_columns(sources, slot)[1]
    columns = []
    for ref in refs:
        key, column = where[ref]
        __, rows, batch = sources[key]
        values = _at(column, rows)
        kinds = batch.kinds
        if kinds is None or kinds[batch.index[ref]] not in _NAN_FREE:
            values = _nan_as_null(values)
        columns.append(values)
    if len(columns) == 1:
        return columns[0]
    return [None if None in key else key for key in zip(*columns)]


def _left_major(buckets: List[Sequence[int]]) -> PairRows:
    """Each left row's matching right rows, flattened into pair rows."""
    repeats = map(itertools.repeat, range(len(buckets)), map(len, buckets))
    return (
        list(itertools.chain.from_iterable(repeats)),
        list(itertools.chain.from_iterable(buckets)),
    )


def _hash_pairs(left_keys: Keys, right_keys: Keys, build_left: bool) -> PairRows:
    """Key-equal pairs through a hash table, left-major without a sort.

    The table holds the build side's distinct keys; the right rows are
    bucketed under theirs and every left row, in row order, reads its
    bucket — the nested loop's order whichever side built.  A right-side
    build whose keys are observed to be unique gives a left row at most
    one match, and the probe is one ``map`` over the left keys.
    """
    if not build_left:
        match = dict(zip(right_keys, range(len(right_keys))))
        match.pop(None, None)
        if len(match) == len(right_keys) - right_keys.count(None):
            try:  # every left row finds its one match (a foreign key's join)
                return (
                    range(len(left_keys)),
                    list(map(match.__getitem__, left_keys)),
                )
            except KeyError:  # some do not: keep the rows that do
                found = list(map(match.get, left_keys))
            return (
                [row for row, hit in enumerate(found) if hit is not None],
                [hit for hit in found if hit is not None],
            )
    table: Dict[Any, List[int]] = {
        key: [] for key in (left_keys if build_left else right_keys)
    }
    table.pop(None, None)
    for row, bucket in enumerate(map(table.get, right_keys)):
        if bucket is not None:
            bucket.append(row)
    return _left_major(list(map(table.get, left_keys, itertools.repeat(()))))


class HashJoinOp(JoinOp):
    """Equi-join: pairs from a hash table on the smaller input.

    Only rows whose equi keys match (NULL and NaN keys never do) become
    candidates.  Both inputs are materialized before the table is built,
    so the build side is the one that *holds* fewer rows (ties build
    right), never an estimate; either build lists its pairs in the nested
    loop's left-major order, so the choice cannot change the emitted
    bytes — only the work to find them.  PROFILE shows it (``build:``).
    """

    kind = "join-hash"
    #: the input the table was built on, once the inputs are held
    build_side: Optional[str] = None

    def label(self) -> str:
        return self.logical.label(self.build_side)

    def _pairs(
        self, left: List[str], right: List[str], sources: Sources
    ) -> Iterator[PairRows]:
        build_left = len(left) < len(right)
        self.build_side = "left" if build_left else "right"
        if build_left:
            self._charge_shuffle(left, right)
        else:
            self._charge_shuffle(right, left)
        if not (left and right):
            return iter(())  # an input that yielded no batch has no key columns
        keys = self.logical.equi_keys
        left_keys = _join_keys(sources, 0, [left_ref for left_ref, __ in keys])
        right_keys = _join_keys(sources, 1, [right_ref for __, right_ref in keys])
        picks = _hash_pairs(left_keys, right_keys, build_left)
        restore = self.logical.restore_order
        if restore is not None and picks[0]:
            # Chain root: the binder's lexicographic order, the (a, b, c,
            # ...) enumeration of the legacy nested loops over the FROM
            # order.  Picks whose binder-leftmost relation's indices
            # strictly ascend are in it whatever the others hold, and so
            # are picks whose zipped index tuples ascend: both are kept as
            # they are; others are argsorted by the tuples.
            def indices(alias: str) -> Rows:
                slot, column, __ = sources[alias]
                return _through(column, picks[slot])

            lead = indices(restore[0])
            if not all(map(operator.lt, lead, itertools.islice(lead, 1, None))):
                order_keys = list(zip(lead, *map(indices, restore[1:])))
                if any(map(operator.gt, order_keys, order_keys[1:])):
                    order = sorted(
                        range(len(order_keys)), key=order_keys.__getitem__
                    )
                    lefts, rights = picks
                    picks = [lefts[i] for i in order], [rights[i] for i in order]
        return _batched(picks)


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

    def __init__(self, node: logical.Project, child: PhysicalOperator, db):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]
        self.db = db

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
                    item.udf, self.db.udx.lookup(item.udf), item.udf_args,
                    item.parameters,
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
            # a column reference's kernel hands on the batch's own list
            kind_of = dict(zip(map(id, batch.columns), batch.kinds or ()))
            kinds = [kind_of.get(id(column)) for column in out_columns]
            self._charge_output(out_columns, kinds, batch.nodes)
            yield ColumnBatch(names, out_columns, batch.nodes)

    def _charge_output(
        self,
        out_columns: List[List[Any]],
        kinds: List[Optional[type]],
        nodes: List[str],
    ) -> None:
        # One width per column, or one byte count per run of same-node rows
        # (a ``str`` column's: its run's strings joined), or one per value;
        # one CostReport call per run.  All are integers, so totals stay
        # byte-identical, and every column is sized before any is charged.
        runs: List[str] = []
        spans: List[Tuple[int, int]] = []
        start = 0
        for node, run in itertools.groupby(nodes):
            stop = start + len(list(run))
            runs.append(node)
            spans.append((start, stop))
            start = stop
        fixed = 0
        per_run = [0] * len(runs)
        for column, kind in zip(out_columns, kinds):
            width = _KIND_WIDTHS.get(kind)
            if width is not None:
                fixed += width
                continue
            sizes = _str_run_bytes(column, spans) if kind is str else None
            if sizes is None:
                widths = _value_widths(column)
                if isinstance(widths, int):
                    fixed += widths
                    continue
                sizes = [sum(widths[start:stop]) for start, stop in spans]
            per_run = list(map(operator.add, per_run, sizes))
        for node, (start, stop), nbytes in zip(runs, spans, per_run):
            self.cost.output(node, fixed * (stop - start) + nbytes, stop - start)


#: the one width every value of a stored kind has (``_value_bytes``)
_KIND_WIDTHS: Dict[Optional[type], int] = {int: 8, float: 8, bool: 1}


def _str_run_bytes(
    column: List[str], spans: List[Tuple[int, int]]
) -> Optional[List[int]]:
    """The UTF-8 bytes of each span's strings; None if one cannot encode
    (``_value_widths`` then raises what sizing them one by one raises)."""
    sizes = []
    for start, stop in spans:
        joined = "".join(column[start:stop])
        if joined.isascii():
            sizes.append(len(joined))
            continue
        try:
            sizes.append(len(joined.encode("utf-8")))
        except UnicodeEncodeError:
            return None
    return sizes


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
    ):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]
        self.initiator = initiator

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
            # a one-column key groups on its values: a dict matches them
            # exactly as it matches the 1-tuples (``is``, then ``==``)
            members: Dict[Any, List[int]] = defaultdict(list)
            keys = evaluate_columns(node.group_by, batch)
            for i, key in enumerate(keys[0] if len(keys) == 1 else zip(*keys)):
                members[key].append(i)
            groups = members.values()
        # Read group by group, item by item: the legacy evaluation order.
        wanted = (
            item.aggregate_arg if item.aggregate else item.expression
            for item in node.items
        )
        read, evaluated = column_reader([e for e in wanted if e is not None], batch)

        columns = node.output_columns
        out: List[Tuple[Any, ...]] = []
        for group in groups:
            values: List[Any] = []
            #: this group's non-NULL inputs, by their evaluated column's id
            shared: Dict[int, List[Any]] = {}
            for item in node.items:
                if item.aggregate:
                    values.append(
                        _aggregate_value(item, group, read, evaluated, shared)
                    )
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
            out.append(row_tuple)
        if not node.group_by and not out:
            # Aggregates over an empty input still return one row.
            out.append(tuple(
                _aggregate_value(item, (), read, evaluated, {})
                if item.aggregate else None
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
    read: Reader,
    evaluated: Optional[Dict[Expression, List[Any]]],
    shared: Dict[int, List[Any]],
) -> Any:
    name = item.aggregate
    arg = item.aggregate_arg
    if arg is None:
        if name != "COUNT":
            raise SqlError(f"{name} requires an argument")
        return len(group)
    # An evaluated column is gathered and NULL-filtered once per group for
    # every aggregate reading it; the row evaluator (``evaluated`` None)
    # reads afresh, item by item, so its errors surface in that order.
    column = None if evaluated is None else id(evaluated[arg])
    values = shared.get(column)
    if values is None:
        values = [v for v in read(arg, group) if v is not None]
        if column is not None:
            shared[column] = values
    if item.distinct:
        values = list(dict.fromkeys(values))
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    try:
        if name == "SUM":
            return sum(values)
        if name == "AVG":
            return sum(values) / len(values)
        if name == "MIN":
            return min(values)
        if name == "MAX":
            return max(values)
    except TypeError:  # VARCHAR summed, or values that do not order
        kinds = " and ".join(dict.fromkeys(type(v).__name__ for v in values))
        raise SqlError(f"cannot apply {name} to {kinds}") from None
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
