"""Expression kernels: a bound expression evaluated a column batch at a time.

``kernel_of(expression)`` is ``fn(batch) -> list`` — one value per row of
a :class:`~repro.vertica.batch.ColumnBatch` — composed once per
expression *object* from closures over the batch's column lists and kept
on the node, so a cached plan carries its compiled kernels and a
plan-cache hit compiles nothing.  Building one costs a few closure
allocations per node; no source is generated.

**Contract.**  A kernel either returns exactly ``[expression.evaluate(row)
for row in rows]`` or raises one of :data:`KERNEL_ERRORS`, and it *does*
raise whenever some row's ``evaluate`` would.  That holds node by node:
every kernel computes all of its children's columns first (``evaluate``
is just as eager — Kleene AND/OR look at both sides, arithmetic at both
operands), then applies to each row the very Python operation ``apply``
applies, minus the translation of a ``TypeError`` into the ``SqlError``
that names the operand types.  Nodes without a dedicated closure run
``expression.apply`` itself in a row loop.  A kernel may raise where no
row would (``IN`` evaluates its options lazily per row, a kernel cannot)
— harmless, because of the second half:

**Errors.**  Nothing here decides which error a statement reports.  When
a kernel raises, :func:`evaluate_columns` / :func:`column_reader` throw
its work away and re-evaluate the batch through ``Expression.evaluate``
over ``dict(zip(names, row))`` in the order the row-at-a-time interpreter
used (row-major across the expressions, or on demand for a consumer that
reads group by group), so the first error raised — its class, its
message, the row and the item it belongs to — is the evaluator's by
construction.  The row dicts exist only on that path.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.vertica.batch import ColumnBatch, gather
from repro.vertica.errors import SqlError
from repro.vertica.expr import (
    BUILTINS,
    OPERATORS,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UdxCall,
    UnaryOp,
)
from repro.vertica.hashring import vertica_hash

Kernel = Callable[[ColumnBatch], List[Any]]
#: ``read(expression, rows)``: an expression's values at those rows
Reader = Callable[[Expression, Sequence[int]], List[Any]]

#: what sends a batch to the row evaluator: the evaluator's own errors
#: (``SqlError``; the ``OverflowError`` / ``math`` ``ValueError`` that
#: arithmetic on huge or infinite values lets through) and the
#: ``TypeError`` of a closure whose raw operator met a type mix
KERNEL_ERRORS = (SqlError, TypeError, ValueError, ArithmeticError)


def kernel_of(expression: Expression) -> Kernel:
    """The expression's kernel, compiled on first use and kept on the node."""
    kernel = expression.kernel
    if kernel is None:
        kernel = expression.kernel = _compile(expression)
    return kernel


def batch_rows(batch: ColumnBatch) -> List[Dict[str, Any]]:
    """The batch as the row evaluator's mappings (a repeated name keeps its
    last occurrence, as ``batch.index`` does)."""
    return [dict(zip(batch.names, row)) for row in batch.rows()]


def evaluate_columns(
    expressions: Sequence[Expression],
    batch: ColumnBatch,
    swallow: Tuple[Type[BaseException], ...] = (),
) -> List[List[Any]]:
    """One column per expression (``ColumnRef``: the batch's own list).

    If a kernel raises, the batch is evaluated row by row, every
    expression per row in the order given, and what that raises first
    propagates; an error of a ``swallow`` class (ORDER BY: a key that
    raises sorts as NULL) makes that one value NULL instead.
    """
    try:
        return [kernel_of(expression)(batch) for expression in expressions]
    except KERNEL_ERRORS:
        columns: List[List[Any]] = [[] for __ in expressions]
        for row in batch_rows(batch):
            for column, expression in zip(columns, expressions):
                try:
                    column.append(expression.evaluate(row))
                except swallow:
                    column.append(None)
        return columns


def column_reader(
    expressions: Sequence[Expression], batch: ColumnBatch
) -> Tuple[Reader, Optional[Dict[Expression, List[Any]]]]:
    """``(read, columns)``: ``read(expression, rows)`` is one of
    ``expressions`` at those rows, ``columns`` each one's whole column.

    For a consumer that reads group by group (aggregation).  Every column
    is computed up front; if a kernel raises, none is kept (``columns`` is
    None) and ``read`` evaluates row by row on demand, so the consumer's
    reading order is the order errors surface in.
    """
    try:
        columns = {e: kernel_of(e)(batch) for e in expressions}
    except KERNEL_ERRORS:
        rows = batch_rows(batch)
        return lambda expression, members: [
            expression.evaluate(rows[i]) for i in members
        ], None
    return lambda expression, members: gather(columns[expression], members), columns


def selector_of(
    predicate: Expression,
) -> Optional[Callable[[ColumnBatch], List[int]]]:
    """``fn(batch) -> rows`` for ``column <op> non-NULL literal``, else None.

    ``[i for i, v in enumerate(kernel(batch)) if v is True]`` in one pass,
    with no TRUE/FALSE/NULL column in between; it raises a
    :data:`KERNEL_ERRORS` member exactly when the kernel does (perhaps at
    another row), and the kernel's path then decides what is reported.
    Compiled on first use and kept on the node.
    """
    selector = predicate.selector
    if selector is None:
        found = column_selector_of(predicate)
        if found is not None:
            column, select = _column(found[0]), found[1]
            selector = predicate.selector = lambda batch: select(column(batch))
    return selector


def column_selector_of(
    predicate: Expression,
) -> Optional[Tuple[str, Callable[[List[Any]], List[int]]]]:
    """``(column name, fn(values) -> rows)``: :func:`selector_of` over the
    named column's values alone (a scan selects on a stored column before
    it gathers a batch), or None where that is None."""
    if (
        isinstance(predicate, BinaryOp)
        and predicate.op in _SELECTORS
        and isinstance(predicate.left, ColumnRef)
        and isinstance(predicate.right, Literal)
        and predicate.right.value is not None
    ):
        select, value = _SELECTORS[predicate.op], predicate.right.value
        return predicate.left.name, lambda values: select(values, value)
    return None


#: each comparison's one-pass row filter over a column ``c`` and a non-NULL
#: value ``b``; NULL matches nothing (``None == b`` is already False)
_SELECTORS: Dict[str, Callable[[List[Any], Any], List[int]]] = {
    "=": lambda c, b: [i for i, a in enumerate(c) if a == b],
    "<>": lambda c, b: [i for i, a in enumerate(c) if a is not None and a != b],
    "<": lambda c, b: [i for i, a in enumerate(c) if a is not None and a < b],
    "<=": lambda c, b: [i for i, a in enumerate(c) if a is not None and a <= b],
    ">": lambda c, b: [i for i, a in enumerate(c) if a is not None and a > b],
    ">=": lambda c, b: [i for i, a in enumerate(c) if a is not None and a >= b],
}
_SELECTORS["!="] = _SELECTORS["<>"]


# ------------------------------------------------------------------ compiler
def _compile(expression: Expression) -> Kernel:
    if isinstance(expression, ColumnRef):
        return _column(expression.name)
    if isinstance(expression, Literal):
        value = expression.value
        return lambda batch: [value] * batch.num_rows
    if isinstance(expression, FunctionCall) and expression.name == "SYNTHETIC_HASH":
        return _synthetic_hash
    children = [kernel_of(child) for child in expression.children()]
    if isinstance(expression, BinaryOp):
        if expression.op in ("AND", "OR"):
            return _kleene(expression.op == "AND", *children)
        if expression.op in OPERATORS:
            return _binary(
                OPERATORS[expression.op], expression.left, expression.right,
                *children,
            )
    elif isinstance(expression, UnaryOp):
        if expression.op == "NOT":
            (operand,) = children
            return lambda batch: [
                None if v is None else not v for v in operand(batch)
            ]
    elif isinstance(expression, IsNull):
        (operand,) = children
        if expression.negated:
            return lambda batch: [v is not None for v in operand(batch)]
        return lambda batch: [v is None for v in operand(batch)]
    elif isinstance(expression, InList):
        literals = [o.value for o in expression.options if isinstance(o, Literal)]
        if len(literals) == len(expression.options):
            return _in_literals(literals, expression.negated, children[0])
    elif isinstance(expression, FunctionCall):
        return _row_loop(BUILTINS[expression.name], children)
    elif isinstance(expression, UdxCall):
        return _udx(expression, children)
    return _row_loop(expression.apply, children)


def _column(name: str) -> Kernel:
    def column(batch: ColumnBatch) -> List[Any]:
        slot = batch.index.get(name)
        if slot is None:
            raise SqlError(f"unknown column {name!r}")
        return batch.columns[slot]

    return column


def _synthetic_hash(batch: ColumnBatch) -> List[Any]:
    hashes = batch.synthetic_hashes
    if hashes is None:
        columns = [batch.columns[batch.index[name]] for name in sorted(batch.index)]
        if not columns:
            hashes = [0] * batch.num_rows
        else:
            hashes = list(itertools.starmap(vertica_hash, zip(*columns)))
        batch.synthetic_hashes = hashes
    return hashes


def _row_loop(apply: Callable[..., Any], children: Sequence[Kernel]) -> Kernel:
    """``apply`` over the children's columns zipped, one call per row."""

    def loop(batch: ColumnBatch) -> List[Any]:
        columns = [child(batch) for child in children]
        if not columns:
            return [apply() for __ in range(batch.num_rows)]
        return list(map(apply, *columns))

    return loop


def _udx(call: UdxCall, children: Sequence[Kernel]) -> Kernel:
    """One call of the UDx per batch, over its arguments' columns (none
    on an empty batch).  A UDx is foreign code and may raise anything: it
    is re-raised as a kernel error, so the batch is re-evaluated row by
    row and ``UdxCall.apply`` raises it again in the evaluator's order."""

    def block(batch: ColumnBatch) -> List[Any]:
        columns = [child(batch) for child in children]
        if not batch.num_rows:
            return []
        try:
            return call.block(columns, batch.num_rows)
        except Exception as error:
            raise SqlError(f"UDx failed: {error}") from error

    return block


def _binary(
    function: Callable[[Any, Any], Any],
    left_node: Expression,
    right_node: Expression,
    left: Kernel,
    right: Kernel,
) -> Kernel:
    """A NULL-strict operator; a non-NULL literal side is not broadcast."""
    if isinstance(right_node, Literal) and right_node.value is not None:
        b = right_node.value
        return lambda batch: [
            None if a is None else function(a, b) for a in left(batch)
        ]
    if isinstance(left_node, Literal) and left_node.value is not None:
        a = left_node.value
        return lambda batch: [
            None if b is None else function(a, b) for b in right(batch)
        ]
    return lambda batch: [
        None if a is None or b is None else function(a, b)
        for a, b in zip(left(batch), right(batch))
    ]


def _kleene(conjunction: bool, left: Kernel, right: Kernel) -> Kernel:
    """Three-valued AND / OR over both sides' full columns (never lazy)."""
    if conjunction:
        return lambda batch: [
            False if a is False or b is False
            else None if a is None or b is None
            else True if a and b else False
            for a, b in zip(left(batch), right(batch))
        ]
    return lambda batch: [
        True if a is True or b is True
        else None if a is None or b is None
        else True if a or b else False
        for a, b in zip(left(batch), right(batch))
    ]


def _in_literals(values: List[Any], negated: bool, operand: Kernel) -> Kernel:
    options = tuple(value for value in values if value is not None)
    hit = not negated
    miss = None if len(options) < len(values) else negated
    return lambda batch: [
        None if v is None else hit if v in options else miss
        for v in operand(batch)
    ]
