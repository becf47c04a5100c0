"""Unit tests for the expression evaluator (including 3-valued logic)."""

import pytest

from repro.vertica.errors import SqlError
from repro.vertica.expr import predicate_holds
from repro.vertica.sql.parser import parse_expression


def ev(text, row=None):
    return parse_expression(text).evaluate(row or {})


class TestArithmetic:
    def test_basic(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("10 / 4") == 2  # integer division truncates
        assert ev("10.0 / 4") == 2.5
        assert ev("-7 / 2") == -3  # truncation toward zero
        assert ev("10 % 3") == 1
        assert ev("-5") == -5

    def test_division_by_zero(self):
        with pytest.raises(SqlError):
            ev("1 / 0")
        with pytest.raises(SqlError):
            ev("1 % 0")

    def test_null_propagation(self):
        assert ev("1 + NULL") is None
        assert ev("NULL * 2") is None

    def test_string_concat(self):
        assert ev("'a' || 'b'") == "ab"
        assert ev("'a' || NULL") is None


class TestComparison:
    def test_basic(self):
        assert ev("1 < 2") is True
        assert ev("2 <= 2") is True
        assert ev("3 <> 4") is True
        assert ev("3 != 3") is False
        assert ev("'abc' = 'abc'") is True

    def test_null_comparison_is_null(self):
        assert ev("1 = NULL") is None
        assert ev("NULL <> NULL") is None

    def test_incompatible_types(self):
        with pytest.raises(SqlError):
            ev("1 < 'a'")


class TestLogic:
    def test_kleene_and(self):
        assert ev("TRUE AND TRUE") is True
        assert ev("TRUE AND FALSE") is False
        assert ev("FALSE AND NULL") is False
        assert ev("TRUE AND NULL") is None

    def test_kleene_or(self):
        assert ev("FALSE OR TRUE") is True
        assert ev("FALSE OR NULL") is None
        assert ev("TRUE OR NULL") is True

    def test_not(self):
        assert ev("NOT TRUE") is False
        assert ev("NOT NULL") is None

    def test_precedence(self):
        # AND binds tighter than OR.
        assert ev("TRUE OR FALSE AND FALSE") is True


class TestPredicates:
    def test_is_null(self):
        assert ev("NULL IS NULL") is True
        assert ev("1 IS NULL") is False
        assert ev("1 IS NOT NULL") is True

    def test_in_list(self):
        assert ev("2 IN (1, 2, 3)") is True
        assert ev("5 IN (1, 2, 3)") is False
        assert ev("5 NOT IN (1, 2)") is True
        assert ev("NULL IN (1, 2)") is None
        assert ev("5 IN (1, NULL)") is None  # unknown membership

    def test_between(self):
        assert ev("2 BETWEEN 1 AND 3") is True
        assert ev("0 BETWEEN 1 AND 3") is False
        assert ev("2 NOT BETWEEN 1 AND 3") is False
        assert ev("NULL BETWEEN 1 AND 3") is None

    def test_like(self):
        assert ev("'hello' LIKE 'he%'") is True
        assert ev("'hello' LIKE 'h_llo'") is True
        assert ev("'hello' LIKE 'x%'") is False
        assert ev("'hello' NOT LIKE 'x%'") is True
        assert ev("NULL LIKE 'x%'") is None

    def test_like_escapes_regex_chars(self):
        assert ev("'a.b' LIKE 'a.b'") is True
        assert ev("'axb' LIKE 'a.b'") is False


class TestColumnsAndFunctions:
    def test_column_ref(self):
        assert ev("A + B", {"A": 1, "B": 2}) == 3

    def test_unknown_column(self):
        with pytest.raises(SqlError):
            ev("MISSING", {"A": 1})

    def test_functions(self):
        assert ev("ABS(-3)") == 3
        assert ev("MOD(10, 3)") == 1
        assert ev("LENGTH('abc')") == 3
        assert ev("UPPER('ab')") == "AB"
        assert ev("LOWER('AB')") == "ab"
        assert ev("FLOOR(1.7)") == 1
        assert ev("CEIL(1.2)") == 2
        assert ev("SQRT(9.0)") == 3.0
        assert ev("COALESCE(NULL, NULL, 5)") == 5

    def test_function_null_propagation(self):
        assert ev("ABS(NULL)") is None

    def test_unknown_function(self):
        with pytest.raises(SqlError):
            parse_expression("NO_SUCH_FUNC(1)")

    def test_hash_matches_vertica_hash(self):
        from repro.vertica import vertica_hash

        assert ev("HASH(A)", {"A": 42}) == vertica_hash(42)
        assert ev("HASH(A, B)", {"A": 1, "B": "x"}) == vertica_hash(1, "x")

    def test_synthetic_hash_is_row_hash(self):
        from repro.vertica import vertica_hash

        row = {"B": 2, "A": 1}
        assert ev("SYNTHETIC_HASH()", row) == vertica_hash(1, 2)


class TestPredicateHolds:
    def test_true_only(self):
        assert predicate_holds(parse_expression("1 = 1"), {})
        assert not predicate_holds(parse_expression("1 = 2"), {})
        assert not predicate_holds(parse_expression("NULL = 1"), {})

    def test_none_predicate_accepts_all(self):
        assert predicate_holds(None, {})


class TestSqlRendering:
    @pytest.mark.parametrize("text", [
        "(A + 1)",
        "(A AND (B OR C))",
        "(A IS NULL)",
        "(A IN (1, 2))",
        "(A BETWEEN 1 AND 2)",
        "(A LIKE 'x%')",
        "HASH(A, B)",
        "(NOT A)",
    ])
    def test_round_trip_through_sql(self, text):
        expression = parse_expression(text)
        again = parse_expression(expression.sql())
        row = {"A": 1, "B": 2, "C": None}
        assert again.evaluate(row) == expression.evaluate(row)

    def test_string_literal_escaping(self):
        expression = parse_expression("'it''s'")
        assert expression.evaluate({}) == "it's"
        assert parse_expression(expression.sql()).evaluate({}) == "it's"


class TestTypeMistakesAreSqlErrors:
    """A type mistake is the user's error at every node that can meet one,
    not only ``BinaryOp``: never a bare Python ``TypeError``."""

    ROW = {"A": 3, "N": "abc"}
    CASES = [
        ("-N", "invalid operands to '-': str"),
        ("+N", r"invalid operands to '\+': str"),
        ("A BETWEEN 'a' AND 'b'", "cannot compare str with int"),
        ("A BETWEEN 1 AND 'b'", "cannot compare int with str"),
    ]

    @pytest.mark.parametrize("text,message", CASES)
    def test_evaluate(self, text, message):
        with pytest.raises(SqlError, match=message):
            ev(text, self.ROW)

    @pytest.mark.parametrize("text,message", CASES)
    def test_through_the_kernel(self, text, message):
        from repro.vertica.batch import ColumnBatch
        from repro.vertica.kernels import (
            KERNEL_ERRORS,
            evaluate_columns,
            kernel_of,
        )

        expression = parse_expression(text)
        batch = ColumnBatch(["A", "N"], [[3], ["abc"]], ["node1"])
        with pytest.raises(KERNEL_ERRORS):
            kernel_of(expression)(batch)
        with pytest.raises(SqlError, match=message):
            evaluate_columns([expression], batch)

    def test_through_a_session(self):
        from repro.vertica import VerticaDatabase

        session = VerticaDatabase(num_nodes=2).connect()
        session.execute("CREATE TABLE t (a INTEGER, n VARCHAR(5))")
        session.execute("INSERT INTO t VALUES (3, 'abc')")
        with pytest.raises(SqlError, match="invalid operands to '-': str"):
            session.execute("SELECT -n FROM t")
        with pytest.raises(SqlError, match="cannot compare str with int"):
            session.execute("SELECT a FROM t WHERE a BETWEEN 'a' AND 'b'")
        # the second comparison is reached only when the first holds
        assert ev("A BETWEEN 7 AND 'b'", self.ROW) is False
