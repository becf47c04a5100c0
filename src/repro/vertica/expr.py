"""SQL expression AST and evaluator.

An interior node names its operand expressions (``children``) and the
scalar rule that combines their values (``apply``).  ``evaluate`` is that
rule over the children evaluated against one row — a mapping of column
name → value — and is the reference semantics; the batch kernels of
:mod:`repro.vertica.kernels` are the same rule over whole columns.  SQL
three-valued logic is implemented faithfully: comparisons and arithmetic
with NULL yield NULL, AND/OR follow Kleene logic (and evaluate both
sides), and WHERE keeps a row only when its predicate is strictly
``True``.

The builtin function table includes ``HASH`` (Vertica's segmentation hash,
the basis of the connector's locality-aware queries) and
``SYNTHETIC_HASH`` (a whole-row hash the connector uses to parallelise
loads of views and unsegmented tables).
"""

from __future__ import annotations

import math
import operator
import re
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.vertica.errors import SqlError
from repro.vertica.hashring import vertica_hash
from repro.vertica.udx import UdxCallable

#: what an expression evaluates against
Row = Mapping[str, Any]


class Expression:
    """Base class for all expression nodes."""

    #: this node's batch kernel, compiled on first use and kept with the
    #: node (so with the cached plan) by ``repro.vertica.kernels.kernel_of``
    kernel: Optional[Callable[[Any], List[Any]]] = None
    #: as a predicate, its one-pass row filter, kept likewise by
    #: ``repro.vertica.kernels.selector_of`` (for the shapes that have one)
    selector: Optional[Callable[[Any], List[int]]] = None

    def children(self) -> Sequence["Expression"]:
        """The operand expressions, in evaluation order (leaves: none)."""
        return ()

    def with_children(self, children: Sequence["Expression"]) -> "Expression":
        """This node over other operands (as many as :meth:`children`)."""
        return self

    def apply(self, *values: Any) -> Any:
        """The node's value given its children's values."""
        raise NotImplementedError

    def evaluate(self, row: Row) -> Any:
        return self.apply(*[child.evaluate(row) for child in self.children()])

    def columns(self) -> List[str]:
        """Column names referenced by this expression (with duplicates)."""
        out: List[str] = []
        for child in self.children():
            out.extend(child.columns())
        return out

    def sql(self) -> str:
        """Render back to SQL text (used for pushdown round-trips)."""
        raise NotImplementedError


class Literal(Expression):
    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, row: Row) -> Any:
        return self.value

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class ColumnRef(Expression):
    def __init__(self, name: str):
        self.name = name

    def evaluate(self, row: Row) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise SqlError(f"unknown column {self.name!r}") from None

    def columns(self) -> List[str]:
        return [self.name]

    def sql(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"ColumnRef({self.name!r})"


class Star(Expression):
    """``*`` in a select list; resolved by the engine, never evaluated."""

    def sql(self) -> str:
        return "*"


def _null_if_any_null(func: Callable[..., Any]) -> Callable[..., Any]:
    def wrapped(*args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return func(*args)

    return wrapped


def _div(a: Any, b: Any) -> Any:
    if b == 0:
        raise SqlError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        # SQL integer division truncates toward zero.
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _mod(a: Any, b: Any) -> Any:
    if b == 0:
        raise SqlError("modulo by zero")
    if isinstance(a, float) or isinstance(b, float):
        return math.fmod(a, b)
    quotient = abs(a) // abs(b) if (a >= 0) == (b >= 0) else -(abs(a) // abs(b))
    return a - b * quotient


_COMPARISON: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: every binary operator but AND/OR, as a function of two non-NULL values
#: (a NULL on either side is NULL before the function is consulted)
OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
    "||": lambda a, b: str(a) + str(b),
    **_COMPARISON,
}


def _cannot_compare(left: Any, right: Any) -> SqlError:
    return SqlError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


class BinaryOp(Expression):
    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return BinaryOp(self.op, *children)

    def apply(self, *values: Any) -> Any:
        op = self.op
        left, right = values
        if op == "AND":
            return _kleene_and(left, right)
        if op == "OR":
            return _kleene_or(left, right)
        if op not in OPERATORS:
            raise SqlError(f"unknown operator {op!r}")  # pragma: no cover
        if left is None or right is None:
            return None
        try:
            return OPERATORS[op](left, right)
        except TypeError:
            if op in _COMPARISON:
                raise _cannot_compare(left, right) from None
            raise SqlError(
                f"invalid operands to {op!r}: {type(left).__name__} "
                f"and {type(right).__name__}"
            ) from None

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


def split_and(expression: Expression) -> List[Expression]:
    """The operands of a (nested) top-level AND, left to right."""
    if isinstance(expression, BinaryOp) and expression.op == "AND":
        return split_and(expression.left) + split_and(expression.right)
    return [expression]


def _kleene_and(a: Any, b: Any) -> Any:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _kleene_or(a: Any, b: Any) -> Any:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)


class UnaryOp(Expression):
    def __init__(self, op: str, operand: Expression):
        if op not in ("-", "+", "NOT"):
            raise SqlError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return UnaryOp(self.op, children[0])

    def apply(self, *values: Any) -> Any:
        (value,) = values
        if value is None:
            return None
        if self.op == "NOT":
            return not value
        try:
            return -value if self.op == "-" else +value
        except TypeError:
            raise SqlError(
                f"invalid operands to {self.op!r}: {type(value).__name__}"
            ) from None

    def sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.sql()})"
        return f"({self.op}{self.operand.sql()})"


class IsNull(Expression):
    def __init__(self, operand: Expression, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return IsNull(children[0], self.negated)

    def apply(self, *values: Any) -> Any:
        return (values[0] is None) != self.negated

    def sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {suffix})"


class InList(Expression):
    def __init__(self, operand: Expression, options: Sequence[Expression],
                 negated: bool = False):
        self.operand = operand
        self.options = list(options)
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return [self.operand] + self.options

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return InList(children[0], children[1:], self.negated)

    def _member(self, value: Any, candidates: Iterable[Any]) -> Any:
        if value is None:
            return None
        saw_null = False
        for candidate in candidates:
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not self.negated
        return None if saw_null else self.negated

    def apply(self, *values: Any) -> Any:
        return self._member(values[0], values[1:])

    def evaluate(self, row: Row) -> Any:
        # Lazier than ``apply``: no option is evaluated for a NULL operand,
        # nor any option after the first match.
        return self._member(
            self.operand.evaluate(row),
            (option.evaluate(row) for option in self.options),
        )

    def sql(self) -> str:
        options = ", ".join(o.sql() for o in self.options)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({options}))"


class Between(Expression):
    def __init__(self, operand: Expression, low: Expression, high: Expression):
        self.operand = operand
        self.low = low
        self.high = high

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.low, self.high)

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return Between(*children)

    def apply(self, *values: Any) -> Any:
        value, low, high = values
        if value is None or low is None or high is None:
            return None
        # low <= value <= high, naming the pair that cannot be compared
        for left, right in ((low, value), (value, high)):
            try:
                if not left <= right:
                    return False
            except TypeError:
                raise _cannot_compare(left, right) from None
        return True

    def sql(self) -> str:
        return f"({self.operand.sql()} BETWEEN {self.low.sql()} AND {self.high.sql()})"


class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards."""

    def __init__(self, operand: Expression, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = self._compile(pattern)

    @staticmethod
    def _compile(pattern: str) -> "re.Pattern[str]":
        out = []
        for char in pattern:
            if char == "%":
                out.append(".*")
            elif char == "_":
                out.append(".")
            else:
                out.append(re.escape(char))
        return re.compile("^" + "".join(out) + "$", re.DOTALL)

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return Like(children[0], self.pattern, self.negated)

    def apply(self, *values: Any) -> Any:
        (value,) = values
        if value is None:
            return None
        return bool(self._regex.match(str(value))) != self.negated

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand.sql()} {keyword} '{escaped}')"


#: the scalar builtins (``SYNTHETIC_HASH`` reads the row, not arguments)
BUILTINS: Dict[str, Callable[..., Any]] = {
    "HASH": vertica_hash,
    "ABS": _null_if_any_null(abs),
    "MOD": _null_if_any_null(_mod),
    "LENGTH": _null_if_any_null(lambda s: len(str(s))),
    "UPPER": _null_if_any_null(lambda s: str(s).upper()),
    "LOWER": _null_if_any_null(lambda s: str(s).lower()),
    "FLOOR": _null_if_any_null(lambda x: math.floor(x)),
    "CEIL": _null_if_any_null(lambda x: math.ceil(x)),
    "SQRT": _null_if_any_null(lambda x: math.sqrt(x)),
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
}


class FunctionCall(Expression):
    """A scalar function call.

    ``SYNTHETIC_HASH()`` is special-cased: it hashes the entire row (in
    column-name order), giving views and unsegmented tables a deterministic
    pseudo-segmentation for parallel V2S loads.
    """

    def __init__(self, name: str, args: Sequence[Expression]):
        self.name = name.upper()
        self.args = list(args)
        if self.name != "SYNTHETIC_HASH" and self.name not in BUILTINS:
            raise SqlError(f"unknown function {name!r}")

    def children(self) -> Sequence[Expression]:
        return self.args

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return FunctionCall(self.name, children)

    def apply(self, *values: Any) -> Any:
        try:
            return BUILTINS[self.name](*values)
        except (TypeError, ValueError) as exc:
            raise SqlError(f"error in {self.name}(): {exc}") from exc

    def evaluate(self, row: Row) -> Any:
        if self.name == "SYNTHETIC_HASH":
            values = [row[key] for key in sorted(row)]
            return vertica_hash(*values) if values else 0
        return super().evaluate(row)

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


def reads_whole_row(expression: Expression) -> bool:
    """Whether ``SYNTHETIC_HASH()`` occurs in it: then the expression sees
    every column of its row, not only those :meth:`Expression.columns` names."""
    if isinstance(expression, FunctionCall) and expression.name == "SYNTHETIC_HASH":
        return True
    return any(reads_whole_row(child) for child in expression.children())


class UdxCall(Expression):
    """A resolved scalar UDx over its argument expressions.

    Built by the projection at run time (the registry lookup is part of
    execution), never by the parser.  A UDx is foreign code: it may raise
    anything.  It scores a block (see :mod:`repro.vertica.udx`); ``apply``
    calls it on one-row columns, so the row evaluator raises the UDx's
    own exception.
    """

    def __init__(
        self,
        name: str,
        function: UdxCallable,
        args: Sequence[Expression],
        parameters: Dict[str, Any],
    ):
        self.name = name
        self.function = function
        self.args = list(args)
        self.parameters = parameters

    def children(self) -> Sequence[Expression]:
        return self.args

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return UdxCall(self.name, self.function, children, self.parameters)

    def block(self, columns: List[List[Any]], num_rows: int) -> List[Any]:
        """The UDx over its arguments' columns: one value per row, or a
        ``SqlError`` naming the UDx when it returns anything else."""
        values = self.function(columns, self.parameters, num_rows)
        if type(values) is not list:
            got = f"a {type(values).__name__}"
        elif len(values) != num_rows:
            got = f"{len(values)} values"
        else:
            return values
        raise SqlError(f"UDx {self.name!r} returned {got} for a batch of {num_rows}")

    def apply(self, *values: Any) -> Any:
        return self.block([[value] for value in values], 1)[0]


def predicate_holds(expression: Optional[Expression], row: Row) -> bool:
    """WHERE semantics: keep the row only when the predicate is True."""
    if expression is None:
        return True
    return expression.evaluate(row) is True
