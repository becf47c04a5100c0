"""Kernel ≡ evaluator, by hypothesis.

``Expression.evaluate`` is the reference semantics (HAVING, VALUES,
constant folding and ``tests/reference_interpreter.py`` run it); every
operator runs the expression's *kernel* instead.  These properties hold
the two together over random expression trees — every node class, depth
≤ 4 — and random batches: NULLs, ints / floats / bools / strings mixed
within one column, infinities, missing and repeated column names,
zero-row batches, sub-expressions that raise (``/ 0``, ``'x' < 1``,
``-'s'``, a UDx raising a foreign exception).

The contract (see ``repro/vertica/kernels.py``): a kernel returns exactly
the per-row values or raises a ``KERNEL_ERRORS`` member, and *must* raise
when some row's ``evaluate`` does; the public entry points then report
what the row-at-a-time interpreter would have reported first.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.vertica.batch import ColumnBatch
from repro.vertica.errors import SqlError
from repro.vertica.expr import (
    BUILTINS,
    OPERATORS,
    Between,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UdxCall,
    UnaryOp,
)
from repro.vertica.kernels import (
    KERNEL_ERRORS,
    column_reader,
    evaluate_columns,
    kernel_of,
    selector_of,
)
from repro.vertica.plan.physical import _matching
from repro.vertica.sql.parser import parse_expression
from tests.udx_adapter import per_row

SETTINGS = dict(deadline=None, derandomize=True)

# ------------------------------------------------------------------ values
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([-1.5, 0.0, 2.5, float("inf"), 10**400]),
    st.sampled_from(["", "a", "ab", "1", "%"]),
)
COLUMN_NAMES = ["A", "B", "C", "D"]


@st.composite
def batches(draw):
    """0–6 rows over some of A–D (a name may repeat: the last one wins)."""
    names = draw(st.lists(st.sampled_from(COLUMN_NAMES), max_size=5))
    n = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 6]))
    columns = [
        draw(st.lists(scalars, min_size=n, max_size=n)) for __ in names
    ]
    return ColumnBatch(names, columns, ["node1"] * n)


# ------------------------------------------------------------- expressions
@per_row
def _picky(args, parameters):
    """A UDx that fails the way foreign code does: not with a SqlError."""
    if args and args[0] == 2:
        raise KeyError("two")
    return len(args) + parameters.get("bias", 0)


column_refs = st.sampled_from(COLUMN_NAMES).map(ColumnRef)
leaves = st.one_of(column_refs, scalars.map(Literal), column_refs)
COMPARISONS = ["=", "<>", "!=", "<", "<=", ">", ">="]
ARITHMETIC = sorted(set(OPERATORS) - set(COMPARISONS))


def _interior(sub):
    some = st.lists(sub, max_size=3)
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(["AND", "OR"]), sub, sub),
        st.builds(BinaryOp, st.sampled_from(COMPARISONS), sub, sub),
        st.builds(BinaryOp, st.sampled_from(ARITHMETIC), sub, sub),
        st.builds(UnaryOp, st.sampled_from(["-", "+", "NOT"]), sub),
        st.builds(IsNull, sub, st.booleans()),
        st.builds(InList, sub, st.lists(scalars.map(Literal), max_size=3),
                  st.booleans()),
        st.builds(InList, sub, some, st.booleans()),
        st.builds(Between, sub, sub, sub),
        st.builds(Like, sub, st.sampled_from(["", "a%", "_", "%b"]),
                  st.booleans()),
        st.builds(FunctionCall, st.sampled_from(sorted(BUILTINS)), some),
        st.just(FunctionCall("SYNTHETIC_HASH", [])),
        st.builds(UdxCall, st.just("PICKY"), st.just(_picky), some,
                  st.sampled_from([{}, {"bias": 1}])),
    )


def _expressions(depth):
    return leaves if depth == 0 else st.one_of(
        leaves, _interior(_expressions(depth - 1))
    )


expressions = _expressions(4)


# ---------------------------------------------------------------- the oracle
def batch_dicts(batch):
    return [dict(zip(batch.names, row)) for row in batch.rows()]


def outcome(run):
    """("ok", values by repr — 1, 1.0 and True differ) or ("err", class, text)."""
    try:
        return "ok", [[repr(v) for v in column] for column in run()]
    except Exception as error:  # noqa: BLE001 - compared structurally
        return "err", type(error).__name__, str(error)


def row_major(expressions, batch, swallow=()):
    """What the row-at-a-time interpreter computes: per row, per expression."""
    columns = [[] for __ in expressions]
    for row in batch_dicts(batch):
        for column, expression in zip(columns, expressions):
            try:
                column.append(expression.evaluate(row))
            except swallow:
                column.append(None)
    return columns


# ---------------------------------------------------------------- properties
@given(expression=expressions, batch=batches())
@example(parse_expression("A / 0"), ColumnBatch(["A"], [[1]], ["n"]))
@example(parse_expression("'x' < A"), ColumnBatch(["A"], [[None, 1]], ["n"] * 2))
@example(parse_expression("-A"), ColumnBatch(["A"], [[1, "s"]], ["n"] * 2))
@example(parse_expression("A = 1 AND 1 / B = 1"),
         ColumnBatch(["A", "B"], [[0, 0], [1, 0]], ["n"] * 2))
@settings(max_examples=1000, **SETTINGS)
def test_kernel_equals_evaluate(expression, batch):
    want = outcome(lambda: row_major([expression], batch))
    # the public entry point: the same values, or the same first error
    assert outcome(lambda: evaluate_columns([expression], batch)) == want
    # the raw kernel: raises if any row does, else the same values (it may
    # raise where no row does only by evaluating an IN option eagerly)
    try:
        got = kernel_of(expression)(batch)
    except KERNEL_ERRORS:
        return
    assert want[0] == "ok", f"kernel returned {got!r}, evaluator raised {want}"
    assert [[repr(v) for v in got]] == want[1]


@given(predicate=expressions, batch=batches())
@settings(max_examples=200, **SETTINGS)
def test_matching_equals_the_is_true_row_filter(predicate, batch):
    def reference():
        rows = batch_dicts(batch)
        return [[i for i, row in enumerate(rows) if predicate.evaluate(row) is True]]

    assert outcome(lambda: [_matching(batch, predicate)]) == outcome(reference)


#: what a one-pass selector compares: NULL, NaN, both zeros, ``True`` /
#: ``1`` / ``1.0`` (equal, and hashed alike), ints past 2**53, strings
selector_values = st.one_of(
    st.none(),
    st.sampled_from([math.nan, -0.0, 0.0, True, False, 1, 1.0, 0, 2**63,
                     2**53 + 1, float(2**53), -7, 2.5, math.inf, "", "a", "1"]),
    st.integers(),
    st.floats(),
    st.text(max_size=2),
)
selector_literals = st.one_of(
    st.integers(), st.floats(), st.text(max_size=2), st.booleans(),
    st.sampled_from([-0.0, 0.0, 1, 1.0, True, 2**63, float(2**53), "a"]),
)


@given(op=st.sampled_from(COMPARISONS), literal=selector_literals,
       column=st.lists(selector_values, max_size=8),
       name=st.sampled_from(["A", "B"]))
@example("<", "x", [1.5, None, "y"], "A")
@settings(max_examples=500, **SETTINGS)
def test_selector_is_the_kernels_true_rows(op, literal, column, name):
    # `name` B is a column the batch lacks: both raise
    predicate = BinaryOp(op, ColumnRef(name), Literal(literal))
    batch = ColumnBatch(["A"], [column], ["n"] * len(column))
    select = selector_of(predicate)
    try:
        want = [i for i, v in enumerate(kernel_of(predicate)(batch)) if v is True]
    except KERNEL_ERRORS:
        with pytest.raises(KERNEL_ERRORS):
            select(batch)
        return
    assert select(batch) == want


@given(items=st.lists(_expressions(2), min_size=1, max_size=3), batch=batches(),
       swallow=st.sampled_from([(), (SqlError,)]))
@example([UdxCall("PICKY", _picky, [ColumnRef("A")], {}), parse_expression("1 / B")],
         ColumnBatch(["A", "B"], [[0, 2], [0, 1]], ["n"] * 2), ())
@settings(max_examples=200, **SETTINGS)
def test_several_expressions_fail_in_row_major_order(items, batch, swallow):
    # SELECT items, UPDATE assignments, group keys; ORDER BY swallows SqlError
    assert outcome(lambda: evaluate_columns(items, batch, swallow)) == outcome(
        lambda: row_major(items, batch, swallow)
    )


@given(items=st.lists(_expressions(2), min_size=1, max_size=3), batch=batches(),
       split=st.integers(min_value=0, max_value=6))
@settings(max_examples=200, **SETTINGS)
def test_column_reader_fails_in_reading_order(items, batch, split):
    # Aggregation reads group by group, item by item within the group.
    groups = [range(0, min(split, batch.num_rows)),
              range(min(split, batch.num_rows), batch.num_rows)]

    def read_all(read):
        return [read(item, group) for group in groups for item in items]

    rows = batch_dicts(batch)
    assert outcome(lambda: read_all(column_reader(items, batch)[0])) == outcome(
        lambda: read_all(lambda item, group: [item.evaluate(rows[i]) for i in group])
    )


# ------------------------------------------------------------- deterministic
CLEAN = ColumnBatch(
    ["A", "B", "S"],
    [[1, None, 3, 4], [2.0, 1.0, None, 0.5], ["x", "y", None, "xy"]],
    ["node1"] * 4,
)


@pytest.mark.parametrize("text,want", [
    ("A", [1, None, 3, 4]),
    ("7", [7, 7, 7, 7]),
    ("A > 2", [False, None, True, True]),
    ("2 < A", [False, None, True, True]),
    ("A + B", [3.0, None, None, 4.5]),
    ("A * 2 - 1", [1, None, 5, 7]),
    ("A = NULL", [None, None, None, None]),
    ("A > 2 AND B < 1", [False, False, None, True]),
    ("A > 2 OR B > 1", [True, None, True, True]),
    ("NOT A > 2", [True, None, False, False]),
    ("A IS NULL", [False, True, False, False]),
    ("S IS NOT NULL", [True, True, False, True]),
    ("A IN (1, 4)", [True, None, False, True]),
    ("A NOT IN (1, NULL)", [False, None, None, None]),
    ("A IN (1, A)", [True, None, True, True]),
    ("A BETWEEN 2 AND 3", [False, None, True, False]),
    ("S LIKE 'x%'", [True, False, None, True]),
    ("S || 'z'", ["xz", "yz", None, "xyz"]),
    ("A / 2", [0, None, 1, 2]),
    ("A % 3", [1, None, 0, 1]),
    ("-A", [-1, None, -3, -4]),
    ("ABS(0 - A)", [1, None, 3, 4]),
    ("COALESCE(A, B)", [1, 1.0, 3, 4]),
    ("LENGTH(S)", [1, 1, None, 2]),
])
def test_clean_batches_never_reach_the_row_evaluator(text, want, monkeypatch):
    # An always-raising kernel would pass every property above by falling
    # back; on a batch no row of which raises, the kernel itself answers.
    expression = parse_expression(text)
    monkeypatch.setattr(
        "repro.vertica.kernels.batch_rows",
        lambda batch: pytest.fail(f"{text}: fell back to the row evaluator"),
    )
    (got,) = evaluate_columns([expression], CLEAN)
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert [repr(v) for v in got] == [
        repr(expression.evaluate(row)) for row in batch_dicts(CLEAN)
    ]


def test_kernel_is_compiled_once_per_expression_object():
    expression = parse_expression("A > 2 AND B < 1")
    assert expression.kernel is None
    first = kernel_of(expression)
    assert kernel_of(expression) is first is expression.kernel
    # a column is resolved per batch, so one kernel serves any layout
    assert first(ColumnBatch(["B", "A"], [[0], [3]], ["n"])) == [True]
    assert first(CLEAN) == [False, False, None, True]


def test_a_selector_is_compiled_once_and_only_for_column_op_literal():
    predicate = parse_expression("A > 2")
    assert predicate.selector is None
    select = selector_of(predicate)
    assert selector_of(predicate) is select is predicate.selector
    assert select(CLEAN) == [2, 3]
    for text in ("2 < A", "A > NULL", "A > B", "A > 2 AND B < 1", "A + 1 > 2",
                 "NOT A > 2", "A IN (1, 4)"):
        assert selector_of(parse_expression(text)) is None, text


def test_a_column_reference_is_the_batch_column_itself():
    (column,) = evaluate_columns([ColumnRef("A")], CLEAN)
    assert column is CLEAN.columns[0]


def test_synthetic_hash_is_computed_once_per_batch(hash_calls):
    """A V2S task over a view asks ``SYNTHETIC_HASH() >= lo AND
    SYNTHETIC_HASH() < hi``: both bounds (and a projected third use) read
    the one column the batch keeps, one ``vertica_hash`` call per row."""
    predicate = parse_expression(
        "SYNTHETIC_HASH() >= 1000000000 AND SYNTHETIC_HASH() < 3000000000"
    )
    batch = ColumnBatch(["A", "S"], [CLEAN.columns[0], CLEAN.columns[2]], ["n"] * 4)
    got = evaluate_columns([predicate, FunctionCall("SYNTHETIC_HASH", [])], batch)
    assert hash_calls[0] == batch.num_rows
    hash_calls[0] = 0
    rows = batch_dicts(batch)
    assert got == [
        [predicate.evaluate(row) for row in rows],
        [BUILTINS["HASH"](row["A"], row["S"]) for row in rows],
    ]
    # the column belongs to the batch: another batch is hashed afresh
    other = ColumnBatch(["A"], [[1, 2]], ["n", "n"])
    (hashes,) = evaluate_columns([FunctionCall("SYNTHETIC_HASH", [])], other)
    assert hashes == [BUILTINS["HASH"](1), BUILTINS["HASH"](2)]
