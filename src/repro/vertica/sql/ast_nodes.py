"""SQL statement AST nodes.

Plain dataclasses; expressions inside statements are
:class:`repro.vertica.expr.Expression` trees.  A :class:`Statement`
also carries what its one parse learned about it, so no later layer
re-reads the statement's text to find out what it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.vertica.expr import Expression
from repro.vertica.types import SqlType

AGGREGATE_NAMES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass
class ColumnDef:
    name: str
    sql_type: SqlType


def _stamp(default: Any) -> Any:
    """A field the parse sets: not a constructor argument, and no part of
    ``==`` or ``repr`` — two spellings of a statement are the same AST."""
    return field(default=default, init=False, compare=False, repr=False)


@dataclass
class Statement:
    """Base of every top-level statement node."""

    #: canonical text of the statement's tokens (``lexer.lex``): the key
    #: the parse, plan and result caches share.  None on a node built in
    #: code rather than parsed, which no tier caches.
    cache_key: Optional[str] = _stamp(None)
    #: the statement's leading keyword token (``SELECT``, ``AT``, ``COPY``…)
    keyword: str = _stamp("")


@dataclass
class CreateTable(Statement):
    table: str
    columns: List[ColumnDef]
    segmented_by: Optional[List[str]] = None  # None => default (all columns)
    unsegmented: bool = False
    if_not_exists: bool = False


@dataclass
class CreateView(Statement):
    view: str
    query: "Select"
    or_replace: bool = False


@dataclass
class DropTable(Statement):
    table: str
    if_exists: bool = False


@dataclass
class DropView(Statement):
    view: str
    if_exists: bool = False


@dataclass
class TruncateTable(Statement):
    table: str


@dataclass
class RenameTable(Statement):
    table: str
    new_name: str


@dataclass
class InsertValues(Statement):
    table: str
    columns: Optional[List[str]]
    rows: List[List[Expression]]


@dataclass
class InsertSelect(Statement):
    table: str
    columns: Optional[List[str]]
    query: "Select"


@dataclass
class Update(Statement):
    table: str
    assignments: List[Tuple[str, Expression]]
    where: Optional[Expression] = None


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass
class SelectItem:
    """One select-list entry.

    ``aggregate`` is set (COUNT/SUM/...) when the item is an aggregate
    call; ``udf`` is set when the item is a non-builtin function resolved
    against the UDx registry, with ``udf_args``/``parameters`` carrying the
    call.  Otherwise ``expression`` holds a scalar expression.
    """

    expression: Optional[Expression] = None
    alias: str = ""
    star: bool = False
    aggregate: str = ""
    aggregate_arg: Optional[Expression] = None  # None for COUNT(*)
    distinct: bool = False
    udf: str = ""
    udf_args: List[Expression] = field(default_factory=list)
    parameters: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TableRef:
    name: str
    alias: str = ""


@dataclass
class Join:
    table: TableRef
    condition: Expression


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass
class Select(Statement):
    items: List[SelectItem]
    source: Optional[TableRef]  # None for SELECT without FROM
    joins: List[Join] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    #: evaluated against the aggregate output row (use select-list aliases)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    at_epoch: Optional[int] = None  # None => latest committed; int => snapshot
    #: names of the relations FROM and JOIN read, as written
    relations: Tuple[str, ...] = _stamp(())
    #: names of the select list's non-builtin calls (``SelectItem.udf``),
    #: resolved against the UDx registry at execution
    functions: Tuple[str, ...] = _stamp(())

    def __post_init__(self) -> None:
        tables = [self.source] if self.source is not None else []
        tables += [join.table for join in self.joins]
        self.relations = tuple(table.name for table in tables)
        self.functions = tuple(item.udf for item in self.items if item.udf)


@dataclass
class CopyStatement(Statement):
    table: str
    source: str = "STDIN"
    file_format: str = "CSV"  # CSV | AVRO | COLUMNAR
    delimiter: str = ","
    reject_max: Optional[int] = None
    direct: bool = False  # load straight to ROS (bulk path)


@dataclass
class Explain(Statement):
    query: "Select"


@dataclass
class Profile(Statement):
    """``PROFILE <select>``: run the query, report per-operator stats."""

    query: "Select"


@dataclass
class Analyze(Statement):
    """``ANALYZE <table> [WITH <n> BUCKETS]``: collect optimizer statistics."""

    table: str
    buckets: Optional[int] = None


@dataclass
class BeginTransaction(Statement):
    pass


@dataclass
class CommitTransaction(Statement):
    pass


@dataclass
class RollbackTransaction(Statement):
    pass


@dataclass
class SetOption(Statement):
    """``SET <name> = <value>`` — session options (e.g. RESOURCE_POOL)."""

    name: str
    value: Any
