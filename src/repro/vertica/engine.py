"""Statement execution: scans, DML, queries, and cost accounting.

Every executed statement returns a :class:`ResultSet` whose
:class:`CostReport` records how many rows were scanned on which node and
how many output bytes each node produced.  The simulation bridge uses that
locality information to decide which bytes cross the Vertica-internal
network (shuffle) versus flow straight out to the client — the effect at
the heart of the paper's locality-aware V2S design.

``Engine.scan`` is the one reader of storage: it yields a table's visible
rows as :class:`~repro.vertica.batch.ColumnBatch` column slices — one per
(node, ROS container), one per matching WOS buffer — built from the
container's visibility selection vector, so no per-row object exists
between the ROS column lists and the operators.

Notable behaviours:

- **Segment pruning** — a WHERE clause containing ``HASH(seg_cols) >= lo
  AND HASH(seg_cols) < hi`` conjuncts is recognised and nodes whose
  segment does not intersect ``[lo, hi)`` are skipped entirely, so a
  hash-range query touches exactly one node's storage.
- **Epoch snapshots** — ``AT EPOCH n SELECT ...`` reads the table as of
  epoch ``n``; otherwise a transaction's first read pins its snapshot.
- **Unsegmented tables** are replicated on every node; queries read the
  initiator node's copy (zero shuffle), DML touches every copy.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import telemetry
from repro.vertica.batch import ColumnBatch, gather, gather_columns, transpose
from repro.vertica.errors import CatalogError, SqlError, TypeMismatchError
from repro.vertica.expr import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    split_and,
)
from repro.vertica.hashring import HASH_SPACE, vertica_hash
from repro.vertica.kernels import evaluate_columns
from repro.vertica.settings import PlanContext
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.storage import RosContainer, WosBuffer
from repro.vertica.txn import Transaction


#: every additive counter a statement charges, as ``(total, per-node
#: map)`` attribute names: the one list :meth:`CostReport.add`, PROFILE's
#: labels and the differential suites' field lists are built from.  A
#: counter added to ``CostReport.__init__`` but not here fails
#: ``test_cost_report_fields_are_declared``.
COST_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("rows_scanned", "node_rows_scanned"),
    ("rows_aggregated", "node_rows_aggregated"),
    ("rows_output", "node_rows_output"),
    ("bytes_output", "node_output_bytes"),
    ("rows_written", "node_rows_written"),
    ("rows_shuffled", "node_rows_shuffled"),
)


class CostReport:
    """Rows/bytes touched by a statement, attributed to storage nodes."""

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.rows_output = 0
        self.bytes_output = 0.0
        self.node_rows_scanned: Dict[str, int] = {}
        self.node_output_bytes: Dict[str, float] = {}
        self.node_rows_output: Dict[str, int] = {}
        self.rows_written = 0
        self.node_rows_written: Dict[str, int] = {}
        self.rows_aggregated = 0
        self.node_rows_aggregated: Dict[str, int] = {}
        self.rows_shuffled = 0
        self.node_rows_shuffled: Dict[str, int] = {}
        #: seconds spent queued in WLM admission before execution began
        self.queue_wait_seconds = 0.0
        #: name of the resource pool the statement executed in (None when
        #: the cluster runs without WLM admission)
        self.resource_pool: Optional[str] = None
        #: True when the result cache served this statement.  The other
        #: fields are added from the memoised execution's report, so a
        #: hit's report is byte-identical to its cold run modulo this flag
        #: — the JDBC bridge uses it to skip scan/aggregate CPU charges.
        self.cache_hit = False

    def scanned(self, node: str, rows: int = 1) -> None:
        self.rows_scanned += rows
        self.node_rows_scanned[node] = self.node_rows_scanned.get(node, 0) + rows

    def aggregated(self, node: str, rows: int = 1) -> None:
        """Rows consumed by a GROUP BY/aggregate, on their producing node."""
        self.rows_aggregated += rows
        self.node_rows_aggregated[node] = (
            self.node_rows_aggregated.get(node, 0) + rows
        )

    def output(self, node: str, nbytes: float, rows: int = 1) -> None:
        self.rows_output += rows
        self.bytes_output += nbytes
        self.node_output_bytes[node] = self.node_output_bytes.get(node, 0.0) + nbytes
        self.node_rows_output[node] = self.node_rows_output.get(node, 0) + rows

    def wrote(self, node: str, rows: int = 1) -> None:
        self.rows_written += rows
        self.node_rows_written[node] = self.node_rows_written.get(node, 0) + rows

    def shuffled(self, node: str, rows: int = 1) -> None:
        """Build-row copies a join sends from ``node`` to the other nodes
        holding probe rows (a co-located join sends none)."""
        self.rows_shuffled += rows
        self.node_rows_shuffled[node] = self.node_rows_shuffled.get(node, 0) + rows

    def add(self, other: "CostReport") -> "CostReport":
        """Add every counter of ``other`` into this report, and return it;
        each per-node map gains ``other``'s new nodes in its key order."""
        for total, per_node in COST_COUNTERS:
            counts = getattr(other, per_node)
            if not counts:  # never charged: every charge names its node
                continue
            setattr(self, total, getattr(self, total) + getattr(other, total))
            target = getattr(self, per_node)
            for node, amount in counts.items():
                target[node] = target.get(node, 0) + amount
        return self


class ResultSet:
    """Columns + rows + affected-row count + cost of one statement."""

    #: set by ``PROFILE <query>``: the PlanProfile with per-operator stats
    profile = None
    #: set by ``PROFILE <query>``: the profiled query's own ResultSet
    query_result = None
    #: set by SELECT execution: the snapshot epoch the rows were read at
    #: (what the chaos stale-read checker replays against)
    snapshot_epoch = None

    def __init__(
        self,
        columns: Optional[List[str]] = None,
        rows: Optional[List[Tuple[Any, ...]]] = None,
        rowcount: int = 0,
        cost: Optional[CostReport] = None,
    ):
        self.columns = columns or []
        self.rows = rows or []
        self.rowcount = rowcount if rowcount else len(self.rows)
        self.cost = cost or CostReport()

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result.

        Raises :class:`~repro.vertica.errors.SqlError` (a
        :class:`~repro.vertica.errors.VerticaError`) when the result is
        empty or not exactly one row by one column — never a bare
        ``IndexError``.
        """
        if not self.rows:
            raise SqlError(
                "scalar() on an empty result "
                "(expected exactly one row with one column)"
            )
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise SqlError(
                f"scalar() on a {len(self.rows)}x{len(self.rows[0])} result "
                "(expected exactly one row with one column)"
            )
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"ResultSet({self.columns}, {len(self.rows)} rows)"


class HashRange:
    """An extracted ``[lo, hi)`` restriction on the segmentation hash."""

    def __init__(self, lo: int = 0, hi: int = HASH_SPACE):
        self.lo = lo
        self.hi = hi
        #: the conjunct objects ``[lo, hi)`` answers exactly: on a row the
        #: range admits each is True, so nobody need evaluate it again
        self.absorbed: List[Expression] = []

    def intersects(self, lo: int, hi: int) -> bool:
        return self.lo < hi and lo < self.hi

    @property
    def is_full(self) -> bool:
        return self.lo <= 0 and self.hi >= HASH_SPACE


#: a pushed filter on one stored column, for ``Engine.scan``: the column's
#: name and ``fn(values) -> indices of the values kept``, or None to keep
#: them all; it reads ``values`` (perhaps the stored list) and never writes
RowSelector = Tuple[str, Callable[[List[Any]], Optional[List[int]]]]


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


def _value_widths(values: Sequence[Any]) -> Union[int, List[int]]:
    """:func:`_value_bytes` of every value: one int when they all share it."""
    types = set(map(type, values))
    if types <= {int, float}:
        return 8
    if types <= {bool, type(None)}:
        return 1
    if types == {str}:
        return [
            len(value) if value.isascii() else len(value.encode("utf-8"))
            for value in values
        ]
    return [_value_bytes(value) for value in values]


def extract_hash_range(
    where: Optional[Expression], segmentation_columns: Sequence[str]
) -> HashRange:
    """Find hash-range bounds over the segmentation columns in ``where``.

    Only top-level AND conjuncts are considered (a disjunction cannot be
    pruned safely).  Recognises ``HASH(cols) <op> literal`` in either
    orientation and ``HASH(cols) BETWEEN a AND b``.
    """
    hash_range = HashRange()
    if where is None or not segmentation_columns:
        return hash_range
    seg_cols = list(segmentation_columns)
    for conjunct in split_and(where):
        if _tighten(conjunct, seg_cols, hash_range):
            hash_range.absorbed.append(conjunct)
    return hash_range


def _is_seg_hash(expression: Expression, seg_cols: List[str]) -> bool:
    return (
        isinstance(expression, FunctionCall)
        and expression.name == "HASH"
        and all(isinstance(a, ColumnRef) for a in expression.args)
        and [a.name for a in expression.args] == seg_cols
    )


def _tighten(conjunct: Expression, seg_cols: List[str], hash_range: HashRange) -> bool:
    """Narrow ``hash_range`` by one conjunct; True when the narrowed range
    says all the conjunct does (a half-literal BETWEEN narrows one side
    and still has the other to check)."""
    if isinstance(conjunct, Between) and _is_seg_hash(conjunct.operand, seg_cols):
        low = isinstance(conjunct.low, Literal) and isinstance(conjunct.low.value, int)
        high = (
            isinstance(conjunct.high, Literal)
            and isinstance(conjunct.high.value, int)
        )
        if low:
            hash_range.lo = max(hash_range.lo, conjunct.low.value)
        if high:
            hash_range.hi = min(hash_range.hi, conjunct.high.value + 1)
        return low and high
    if not isinstance(conjunct, BinaryOp):
        return False
    op = conjunct.op
    left, right = conjunct.left, conjunct.right
    if _is_seg_hash(left, seg_cols) and isinstance(right, Literal):
        bound = right.value
    elif _is_seg_hash(right, seg_cols) and isinstance(left, Literal):
        bound = left.value
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    else:
        return False
    if not isinstance(bound, int):
        return False
    if op == ">=":
        hash_range.lo = max(hash_range.lo, bound)
    elif op == ">":
        hash_range.lo = max(hash_range.lo, bound + 1)
    elif op == "<":
        hash_range.hi = min(hash_range.hi, bound)
    elif op == "<=":
        hash_range.hi = min(hash_range.hi, bound + 1)
    elif op == "=":
        hash_range.lo = max(hash_range.lo, bound)
        hash_range.hi = min(hash_range.hi, bound + 1)
    else:
        return False
    return True


class Engine:
    """Executes parsed statements against a database's storage."""

    def __init__(self,
                 database: "repro.vertica.database.VerticaDatabase"):  # noqa: F821
        self.database = database

    # ---------------------------------------------------------------- dispatch
    def execute(
        self,
        statement,
        txn: Transaction,
        initiator: str,
        context: PlanContext,
        copy_data=None,
    ) -> Tuple[ResultSet, Optional[Any]]:
        """Run one parsed DML/query statement; returns (result, copy_result).

        The single entry point the session layer dispatches through, so
        every statement's :class:`CostReport` is stamped with the resource
        pool it ran in (``copy_result`` is non-None only for COPY).
        ``context`` is the issuing session's settings, read here and
        nowhere below.  Only top-level SELECT/EXPLAIN/PROFILE honour its
        RESULT_CACHE (never the inner query of INSERT ... SELECT, which
        must see staged writes).
        """
        copy_result = None
        if isinstance(statement, ast.Select):
            result = self._run_select(
                statement, txn, initiator, use_cache=context.result_cache
            )[0]
        elif isinstance(statement, ast.Explain):
            result = self.explain(statement, txn, initiator, context.result_cache)
        elif isinstance(statement, ast.Profile):
            result = self.profile(statement, txn, initiator, context.result_cache)
        elif isinstance(statement, ast.InsertValues):
            result = self.insert_values(statement, txn, initiator)
        elif isinstance(statement, ast.InsertSelect):
            result = self.insert_select(statement, txn, initiator)
        elif isinstance(statement, ast.Update):
            result = self.update(statement, txn, initiator)
        elif isinstance(statement, ast.Delete):
            result = self.delete(statement, txn, initiator)
        elif isinstance(statement, ast.Analyze):
            result = self.analyze(statement)
        elif isinstance(statement, ast.CopyStatement):
            from repro.vertica.copyload import run_copy

            result, copy_result = run_copy(self, statement, txn, copy_data)
        else:
            raise SqlError(f"unhandled statement {type(statement).__name__}")
        result.cost.resource_pool = context.resource_pool
        return result, copy_result

    # ------------------------------------------------------------------ scans
    def scan(
        self,
        table_name: str,
        snapshot_epoch: int,
        txn: Optional[Transaction],
        initiator: str,
        hash_range: Optional[HashRange] = None,
        cost: Optional[CostReport] = None,
        for_update: bool = False,
        columns: Optional[Sequence[str]] = None,
        select: Optional[RowSelector] = None,
    ) -> Iterator[ColumnBatch]:
        """Yield the visible rows of a table at a snapshot, as column slices.

        One :class:`ColumnBatch` per (node, ROS container) holding rows and
        one per matching WOS buffer of the reading transaction, each with
        the requested ``columns`` (default: all) gathered by a selection
        vector: the container's visible rows, minus the transaction's own
        staged deletes, narrowed to the hash range, then to the rows
        ``select`` keeps.  ``cost`` is charged once per slice for the rows
        visible *before* the hash-range filter.  ROS slices also name their
        ``container`` and carry each column's stored kind.

        ``for_update`` scans every physical copy (so DML can touch each
        replica of an unsegmented table); plain reads scan the initiator's
        copy of unsegmented tables and all (pruned) segments of segmented
        tables.
        """
        db = self.database
        table = db.catalog.table(table_name)
        hash_range = hash_range or HashRange()
        if table.unsegmented:
            nodes = db.node_names if for_update else [initiator]
        else:
            nodes = []
            assert table.ring is not None
            for segment in table.ring.segments:
                if hash_range.intersects(segment.lo, segment.hi):
                    nodes.append(segment.node)
        # Every container of a table stores the table's columns, in order.
        stored = table.column_names()
        names = list(columns) if columns is not None else stored
        slots = [stored.index(name) for name in names]
        # Every row hash lies inside the ring, so a full range filters nothing.
        filtered = not table.unsegmented and not hash_range.is_full
        lo, hi = hash_range.lo, hash_range.hi
        if select is not None:
            selected, pick = stored.index(select[0]), select[1]

        def slice_of(
            node: str,
            source: Union[RosContainer, WosBuffer],
            rows: Sequence[int],
            container: Optional[RosContainer],
        ) -> Optional[ColumnBatch]:
            if cost is not None and rows:
                cost.scanned(node, len(rows))
            if filtered:
                if container is not None and len(rows) == container.nrows:
                    rows = container.rows_in_hash_range(lo, hi)
                else:  # a WOS buffer, or a container with hidden rows
                    hashes = source.row_hashes
                    rows = [i for i in rows if lo <= hashes[i] < hi]
            if rows and select is not None:
                # ascending distinct row ids: all of them are the stored list
                values = source.columns[selected]
                whole = len(rows) == len(values)
                hits = pick(values if whole else gather(values, rows))
                if hits is not None:
                    rows = hits if whole else [rows[i] for i in hits]
            if not rows:
                return None
            return ColumnBatch(
                names,
                gather_columns([source.columns[slot] for slot in slots], rows),
                [node] * len(rows),
                container,
                rows,
                None if container is None else [container.kind(s) for s in slots],
            )

        self_deleted = (
            txn.is_deleted_by_self if txn is not None and txn.deletes else None
        )
        for node in nodes:
            storage, attributed = self._storage_for(node, table_name)
            for container in storage:
                rows = container.visible(snapshot_epoch)
                if self_deleted is not None:
                    rows = [i for i in rows if not self_deleted(container, i)]
                batch = slice_of(attributed, container, rows, container)
                if batch is not None:
                    yield batch
        # Read-your-writes: rows staged by this transaction, sliced from
        # the column-major WOS buffer like a container (but located
        # nowhere yet).
        if txn is not None:
            for (wos_table, node), buffer in list(txn.wos.items()):
                if wos_table == table.name and node in nodes:
                    batch = slice_of(node, buffer, range(buffer.nrows), None)
                    if batch is not None:
                        yield batch

    def _storage_for(self, node: str, table_name: str):
        """Containers for ``table_name`` on ``node``, with failover.

        When the node is down and k-safety >= 1, the buddy node serves its
        replica containers; scanned rows are attributed to the buddy.
        """
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

    # ------------------------------------------------------------------- SELECT
    def select(
        self,
        statement: ast.Select,
        txn: Transaction,
        initiator: str,
        cost: Optional[CostReport] = None,
    ) -> ResultSet:
        """Run one nested SELECT (a view body, INSERT ... SELECT's query)
        through bind → optimize → execute; never consults the result cache."""
        return self._run_select(statement, txn, initiator, cost)[0]

    def _cache_bypass_reason(
        self, txn: Transaction, statement: ast.Select
    ) -> Optional[str]:
        """Why this SELECT must not touch the result cache (None = cacheable).

        Read-your-writes makes staged transaction state part of the
        query's input but not of its epoch; system tables change without
        epochs (node states, pool occupancy); UDx calls are opaque.  Both
        are asked of the parsed statement's relations and functions, and
        of every view body beneath them.
        """
        if txn.wos or txn.replica_wos or txn.deletes:
            return "txn_writes"
        catalog = self.database.catalog
        selects, seen = [statement], set()
        for select in selects:  # grows while walked: view bodies, any depth
            for name in select.relations:
                if catalog.is_system_table(name):
                    return "system_table"
                if catalog.has_view(name) and name.upper() not in seen:
                    seen.add(name.upper())
                    selects.append(catalog.view(name).query)
        udx = self.database.udx
        if any(udx.is_registered(f) for s in selects for f in s.functions):
            return "udx"
        return None

    def _result_cache_key(
        self, statement: ast.Select, txn: Transaction, snapshot: int
    ) -> Tuple[Optional[Tuple[str, int, int]], Optional[str]]:
        """(key, bypass reason) of a top-level SELECT read at ``snapshot``:
        the one cache decision a SELECT and its EXPLAIN both take.

        The key is (canonical statement, snapshot epoch, catalog version);
        it is None for a statement without canonical text (reason None)
        or one that must bypass the cache (the reason names why).
        """
        canonical = statement.cache_key
        if canonical is None:
            return None, None
        reason = self._cache_bypass_reason(txn, statement)
        if reason is not None:
            return None, reason
        return (canonical, snapshot, self.database.catalog.version), None

    def _run_select(
        self,
        statement: ast.Select,
        txn: Transaction,
        initiator: str,
        cost: Optional[CostReport] = None,
        use_cache: bool = False,
    ):
        """Shared SELECT entry: returns (ResultSet, PipelineExecution).

        With ``use_cache`` the result cache is consulted under
        (canonical statement, snapshot epoch, catalog version); a hit
        serves the memoised rows and adds the memoised cost report without
        running any operator (the returned execution is ``None``).
        """
        cost = cost if cost is not None else CostReport()
        telemetry.counter("vertica.queries.select").inc()
        if statement.at_epoch is not None:
            telemetry.counter("vertica.epoch_reads").inc()
        if (
            statement.at_epoch is not None
            and statement.at_epoch < self.database.tuple_mover.ahm_epoch
        ):
            from repro.vertica.errors import TransactionError

            raise TransactionError(
                f"epoch {statement.at_epoch} is below the Ancient History "
                f"Mark ({self.database.tuple_mover.ahm_epoch}); its history "
                "has been merged out"
            )
        snapshot = txn.snapshot_epoch(statement.at_epoch)

        cache = self.database.result_cache
        key = None
        if use_cache:
            key, reason = self._result_cache_key(statement, txn, snapshot)
            if reason is not None:
                cache.bypass(reason)
        if key is not None:
            entry = cache.lookup(*key)
            if entry is not None:
                cost.add(entry.cost)
                cost.cache_hit = True
                result = ResultSet(
                    list(entry.columns), list(entry.rows), cost=cost
                )
                result.snapshot_epoch = snapshot
                return result, None

        # Imported lazily: plan modules import this module at their top
        # (the batch types both sides share live in repro.vertica.batch).
        from repro.vertica.plan import execute_select

        result, execution = execute_select(
            self, statement, txn, initiator, snapshot, cost
        )
        result.snapshot_epoch = snapshot
        if key is not None:
            cache.store(*key, result.columns, result.rows, CostReport().add(cost))
        return result, execution

    def explain(
        self,
        statement: ast.Explain,
        txn: Transaction,
        initiator: str,
        result_cache: bool,
    ) -> ResultSet:
        """Render the optimized plan: access path, pruning, pushdowns.

        Binds and optimizes through the real pipeline but executes
        nothing (row estimates count visible rows, reading no column).  With
        ``result_cache`` (the session's RESULT_CACHE) a trailing line
        reports what the SELECT would do in this transaction: a hit or a
        miss at its snapshot, or the bypass and why.  The probe neither
        stores, touches LRU order, nor pins the transaction's snapshot.
        """
        from repro.vertica.plan import explain_lines

        query = statement.query
        lines = explain_lines(self, query, initiator)
        if result_cache:
            from repro.cache.keys import statement_digest

            snapshot = (
                query.at_epoch if query.at_epoch is not None else txn.read_epoch
            )
            key, reason = self._result_cache_key(query, txn, snapshot)
            if reason is not None:
                lines.append(f"RESULT CACHE: bypass ({reason})")
            elif key is not None:
                held = key in self.database.result_cache
                lines.append(
                    f"RESULT CACHE: {'hit' if held else 'miss'} "
                    f"(digest {statement_digest(key[0])}, epoch {snapshot})"
                )
        return ResultSet(["QUERY_PLAN"], [(line,) for line in lines])

    def profile(
        self,
        statement: ast.Profile,
        txn: Transaction,
        initiator: str,
        result_cache: bool,
    ) -> ResultSet:
        """Execute the query and report per-operator execution stats.

        The report rows are the rendered profile; the profiled query's
        own result hangs off ``query_result`` and the structured stats
        off ``profile``.  The report carries the real query's
        CostReport, so WLM accounting charges PROFILE like the query it
        ran.  A result-cache hit has no operator tree: the report then
        shows the hit and the memoised cost summary (``profile`` stays
        ``None``).
        """
        from repro.vertica.plan.pipeline import PlanProfile, cost_line

        telemetry.counter("vertica.queries.profile").inc()
        result, execution = self._run_select(
            statement.query, txn, initiator, use_cache=result_cache
        )
        if execution is None:
            cost = result.cost
            lines = [
                f"RESULT CACHE: hit (epoch {result.snapshot_epoch})",
                cost_line(cost),
            ]
            report = ResultSet(["PROFILE"], [(line,) for line in lines], cost=cost)
            report.query_result = result
            return report
        prof = PlanProfile(execution, result)
        report = ResultSet(
            ["PROFILE"], [(line,) for line in prof.lines()], cost=result.cost
        )
        report.profile = prof
        report.query_result = result
        return report

    def analyze(self, statement: ast.Analyze) -> ResultSet:
        """Collect optimizer statistics for one table (``ANALYZE <table>``).

        Scans the committed data at the current epoch, rebuilds row/NDV/
        min-max/histogram statistics, and persists them in the catalog
        (visible through ``V_CATALOG.COLUMN_STATISTICS``).
        """
        from repro.vertica.stats import DEFAULT_BUCKETS, collect_table_stats

        db = self.database
        table = db.catalog.table(statement.table)
        buckets = (statement.buckets if statement.buckets is not None
                   else DEFAULT_BUCKETS)
        if buckets <= 0:
            raise SqlError(f"ANALYZE bucket count must be positive, got {buckets}")
        stats = collect_table_stats(db, table.name, buckets)
        db.catalog.statistics[table.name] = stats
        # New statistics change plan choice without advancing an epoch:
        # bump the catalog version so plan/result caches re-key.
        db.catalog.bump_version()
        telemetry.counter("vertica.queries.analyze").inc()
        return ResultSet(
            ["TABLE_NAME", "ROW_COUNT", "COLUMNS_ANALYZED"],
            [(table.name, stats.row_count, len(stats.columns))],
        )

    # ------------------------------------------------------------------- DML
    def insert_rows(
        self,
        table_name: str,
        columns: Sequence[Sequence[Any]],
        txn: Transaction,
        cost: Optional[CostReport] = None,
    ) -> int:
        """Coerce table-ordered columns, then stage them into the WOS.

        The one staging entry point (INSERT, UPDATE, COPY and direct
        loads all hand it columns).  Every column is coerced before any
        row is staged, so a value that does not fit its type fails the
        statement with nothing staged; the error is the one a row-by-row
        load would hit first (first failing row, its first failing
        column).  Rows are then routed by the segmentation hash column:
        one gather, one buffer extend and one ``cost.wrote`` per node
        (and the node's k-safety buddy), nodes in order of first
        appearance.
        """
        db = self.database
        table = db.catalog.table(table_name)
        txn.lock(table.name, mode="I")
        cost = cost if cost is not None else CostReport()
        if len(columns) != len(table.columns):
            raise SqlError(
                f"table {table.name!r} has {len(table.columns)} columns, "
                f"got {len(columns)}"
            )
        rejects: Dict[int, str] = {}
        columns = [
            column_def.sql_type.coerce_column(values, rejects)
            for column_def, values in zip(table.columns, columns)
        ]
        if rejects:
            raise TypeMismatchError(rejects[min(rejects)])
        count = len(columns[0]) if columns else 0
        if not count:
            return 0
        names = table.column_names()
        if table.unsegmented:
            hashes = [0] * count
            for node in db.node_names:
                txn.wos_for(table.name, node, names).extend(columns, hashes)
            cost.wrote(db.node_names[0], count)
            return count
        assert table.ring is not None
        keys = list(
            zip(*(columns[names.index(c)] for c in table.segmentation_columns))
        )
        # Each distinct key is hashed once.  Equal keys hash equal because
        # the columns are already coerced: one Python type per column.
        hash_of = {key: vertica_hash(*key) for key in set(keys)}
        hashes = [hash_of[key] for key in keys]
        node_for = table.ring.node_for
        rows_of: Dict[str, List[int]] = {}
        for row, row_hash in enumerate(hashes):
            rows_of.setdefault(node_for(row_hash), []).append(row)
        for node, rows in rows_of.items():
            node_columns: Sequence[Sequence[Any]] = columns
            node_hashes = hashes
            if len(rows) < count:
                node_columns = gather_columns(columns, rows)
                node_hashes = [hashes[i] for i in rows]
            txn.wos_for(table.name, node, names).extend(node_columns, node_hashes)
            cost.wrote(node, len(rows))
            if db.k_safety >= 1:
                txn.replica_wos_for(table.name, db.buddy_of(node), names).extend(
                    node_columns, node_hashes
                )
        return count

    @staticmethod
    def _table_ordered(
        table: Any, names: Sequence[str], rows: Sequence[Sequence[Any]]
    ) -> List[Sequence[Any]]:
        """``rows`` (of values named ``names``) as one column per table column.

        Like the per-row ``dict(zip(names, values))`` it replaces: a
        repeated name keeps its last column, a name the table lacks is
        dropped, a table column not named is all NULL.
        """
        given = dict(zip(names, transpose(rows, len(names))))
        absent = [None] * len(rows)
        return [given.get(column.name, absent) for column in table.columns]

    def insert_values(
        self, statement: ast.InsertValues, txn: Transaction, initiator: str
    ) -> ResultSet:
        table = self.database.catalog.table(statement.table)
        target_columns = (
            [c.upper() for c in statement.columns]
            if statement.columns
            else table.column_names()
        )
        telemetry.counter("vertica.queries.insert").inc()
        rows = []
        for value_exprs in statement.rows:
            if len(value_exprs) != len(target_columns):
                raise SqlError(
                    f"INSERT has {len(value_exprs)} values for "
                    f"{len(target_columns)} columns"
                )
            rows.append([e.evaluate({}) for e in value_exprs])
        cost = CostReport()
        count = self.insert_rows(
            table.name,
            self._table_ordered(table, target_columns, rows),
            txn, cost,
        )
        return ResultSet(rowcount=count, cost=cost)

    def insert_select(
        self,
        statement: ast.InsertSelect,
        txn: Transaction,
        initiator: str,
    ) -> ResultSet:
        table = self.database.catalog.table(statement.table)
        telemetry.counter("vertica.queries.insert").inc()
        cost = CostReport()
        result = self.select(statement.query, txn, initiator, cost=cost)
        target_columns = (
            [c.upper() for c in statement.columns]
            if statement.columns
            else table.column_names()
        )
        if result.columns and len(result.columns) != len(target_columns):
            raise SqlError(
                f"INSERT SELECT arity mismatch: query yields "
                f"{len(result.columns)} columns for {len(target_columns)}"
            )
        count = self.insert_rows(
            table.name,
            self._table_ordered(table, target_columns, result.rows),
            txn, cost,
        )
        return ResultSet(rowcount=count, cost=cost)

    def update(
        self,
        statement: ast.Update,
        txn: Transaction,
        initiator: str,
    ) -> ResultSet:
        db = self.database
        table = db.catalog.table(statement.table)
        txn.lock(table.name)
        telemetry.counter("vertica.queries.update").inc()
        cost = CostReport()
        assignments = [(c.upper(), e) for c, e in statement.assignments]
        for column, __ in assignments:
            if not table.has_column(column):
                raise SqlError(f"table {table.name!r} has no column {column!r}")
        batches, deletes = self._matched_once(
            table, statement.where, txn, initiator, cost
        )
        updated: List[List[Any]] = [[] for __ in table.columns]
        count = 0
        for batch in batches:
            # One column per assignment; should one raise, the batch is
            # redone row by row, assignments in order, so the first error
            # is the one the row-at-a-time UPDATE raised.
            assigned = evaluate_columns(
                [expression for __, expression in assignments], batch
            )
            new_columns = dict(zip(batch.names, batch.columns))
            new_columns.update(
                (column, values) for (column, __), values in zip(assignments, assigned)
            )
            for held, column_def in zip(updated, table.columns):
                held.extend(new_columns[column_def.name])
            count += batch.num_rows
        # The new versions are coerced and staged first: if one does not
        # fit its column the statement fails with the old rows untouched.
        if count:
            self.insert_rows(table.name, updated, txn, cost)
        for container, row_id in deletes:
            txn.stage_delete(container, row_id)
        return ResultSet(rowcount=count, cost=cost)

    def delete(
        self,
        statement: ast.Delete,
        txn: Transaction,
        initiator: str,
    ) -> ResultSet:
        db = self.database
        table = db.catalog.table(statement.table)
        txn.lock(table.name)
        telemetry.counter("vertica.queries.delete").inc()
        cost = CostReport()
        batches, deletes = self._matched_once(
            table, statement.where, txn, initiator, cost
        )
        for container, row_id in deletes:
            txn.stage_delete(container, row_id)
        return ResultSet(rowcount=sum(b.num_rows for b in batches), cost=cost)

    def _matched_once(
        self,
        table: Any,
        where: Optional[Expression],
        txn: Transaction,
        initiator: str,
        cost: CostReport,
    ) -> Tuple[List[ColumnBatch], List[Tuple[RosContainer, int]]]:
        """What an UPDATE/DELETE matches: (rows, delete-vector entries).

        The ``for_update`` scan reads every physical copy and each copy's
        matching ROS rows are returned for the caller to stage deletes
        against, but an unsegmented table's rows are returned on the
        first node read only — once per *copy*, not per value: two equal
        rows are two rows.
        """
        from repro.vertica.plan import dml_matching_rows

        batches: List[ColumnBatch] = []
        deletes: List[Tuple[RosContainer, int]] = []
        counted_node: Optional[str] = None
        for batch in dml_matching_rows(
            self, table.name, where, txn, initiator,
            self.database.epochs.current, cost,
        ):
            if batch.container is not None:
                deletes.extend(
                    (batch.container, row_id) for row_id in batch.row_ids or ()
                )
            if counted_node is None:
                counted_node = batch.nodes[0]
            if table.unsegmented and batch.nodes[0] != counted_node:
                continue
            batches.append(batch)
        return batches, deletes
