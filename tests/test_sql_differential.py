"""Differential fuzzing of the SQL engine.

Hypothesis generates random tables and simple predicates; the engine's
answers are checked against a direct Python evaluation of the same
predicate over the same rows.  This catches planner/visibility bugs the
hand-written tests might miss (e.g. hash-range pruning dropping rows, or
NULL semantics diverging between the scan and the reference).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica import VerticaDatabase
from repro.vertica.hashring import HASH_SPACE, vertica_hash

values = st.one_of(
    st.none(),
    st.integers(min_value=-100, max_value=100),
)

rows_strategy = st.lists(
    st.tuples(values, values, st.booleans()),
    min_size=0,
    max_size=30,
)

OPERATORS = ("=", "<>", "<", "<=", ">", ">=")

comparisons = st.tuples(
    st.sampled_from(["A", "B"]),
    st.sampled_from(OPERATORS),
    st.integers(min_value=-100, max_value=100),
)


#: (operator, bound, literal on the left?) — bounds crowd the ring's ends
hash_conjuncts = st.tuples(
    st.sampled_from(OPERATORS),
    st.one_of(
        st.integers(min_value=-3, max_value=HASH_SPACE + 3),
        st.sampled_from([0, 1, HASH_SPACE - 1, HASH_SPACE]),
    ),
    st.booleans(),
)


def python_compare(value, op, literal):
    if value is None:
        return False  # SQL: NULL comparisons are not TRUE
    return {
        "=": value == literal,
        "<>": value != literal,
        "<": value < literal,
        "<=": value <= literal,
        ">": value > literal,
        ">=": value >= literal,
    }[op]


def build_db(rows):
    db = VerticaDatabase(num_nodes=3)
    session = db.connect()
    session.execute(
        "CREATE TABLE t (a INTEGER, b INTEGER, f BOOLEAN) "
        "SEGMENTED BY HASH(a) ALL NODES"
    )
    if rows:
        literals = ", ".join(
            "("
            + ", ".join(
                "NULL" if v is None else ("TRUE" if v is True else
                                          "FALSE" if v is False else str(v))
                for v in row
            )
            + ")"
            for row in rows
        )
        session.execute(f"INSERT INTO t VALUES {literals}")
    return db, session


class TestDifferentialSelect:
    @given(rows=rows_strategy, predicate=comparisons)
    @settings(max_examples=50, deadline=None)
    def test_where_matches_python(self, rows, predicate):
        column, op, literal = predicate
        db, session = build_db(rows)
        result = session.execute(
            f"SELECT a, b, f FROM t WHERE {column} {op} {literal}"
        )
        index = {"A": 0, "B": 1}[column]
        expected = [r for r in rows if python_compare(r[index], op, literal)]
        assert sorted(result.rows, key=repr) == sorted(expected, key=repr)

    @given(rows=rows_strategy, p1=comparisons, p2=comparisons,
           conjunction=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_and_or_match_python(self, rows, p1, p2, conjunction):
        (c1, o1, l1), (c2, o2, l2) = p1, p2
        joiner = "AND" if conjunction else "OR"
        db, session = build_db(rows)
        result = session.execute(
            f"SELECT COUNT(*) FROM t WHERE {c1} {o1} {l1} {joiner} {c2} {o2} {l2}"
        )
        index = {"A": 0, "B": 1}

        def holds(row):
            left = python_compare(row[index[c1]], o1, l1)
            right = python_compare(row[index[c2]], o2, l2)
            # Python reference with SQL's NULL-is-not-TRUE behaviour: for
            # OR, a NULL side is falsy but the other side can still win.
            return (left and right) if conjunction else (left or right)

        # Note: this reference is sound because python_compare returns
        # False for NULL operands, and Kleene TRUE-dominance for OR /
        # FALSE-dominance for AND coincides with it when outputs are
        # only consumed as "row kept or not".
        assert result.scalar() == sum(1 for r in rows if holds(r))

    @given(rows=rows_strategy,
           conjuncts=st.lists(hash_conjuncts, min_size=1, max_size=3),
           tail=st.one_of(st.none(), comparisons))
    @settings(max_examples=60, deadline=None)
    def test_hash_conjuncts_match_python(self, rows, conjuncts, tail):
        """``HASH(a) <op> int`` conjuncts — answered by the scan from the
        stored row hashes, then dropped from the predicate — keep exactly
        the rows a Python evaluation of the same conjuncts keeps."""
        db, session = build_db(rows)
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        parts = [
            f"{bound} {flipped.get(op, op)} HASH(a)" if literal_first
            else f"HASH(a) {op} {bound}"
            for op, bound, literal_first in conjuncts
        ]
        if tail is not None:
            parts.insert(1, "{} {} {}".format(*tail))
        result = session.execute(
            "SELECT a, b, f FROM t WHERE " + " AND ".join(parts)
        )

        def holds(row):
            if tail is not None and not python_compare(
                row[{"A": 0, "B": 1}[tail[0]]], tail[1], tail[2]
            ):
                return False
            return all(
                python_compare(vertica_hash(row[0]), op, bound)
                for op, bound, __ in conjuncts
            )

        expected = [r for r in rows if holds(r)]
        assert sorted(result.rows, key=repr) == sorted(expected, key=repr)

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_aggregates_match_python(self, rows):
        db, session = build_db(rows)
        result = session.execute(
            "SELECT COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a) FROM t"
        )
        a_values = [r[0] for r in rows if r[0] is not None]
        expected = (
            len(rows),
            len(a_values),
            sum(a_values) if a_values else None,
            min(a_values) if a_values else None,
            max(a_values) if a_values else None,
        )
        assert result.rows[0] == expected

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_is_null_partition(self, rows):
        db, session = build_db(rows)
        nulls = session.scalar("SELECT COUNT(*) FROM t WHERE a IS NULL")
        not_nulls = session.scalar("SELECT COUNT(*) FROM t WHERE a IS NOT NULL")
        assert nulls == sum(1 for r in rows if r[0] is None)
        assert nulls + not_nulls == len(rows)

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_group_by_matches_python(self, rows):
        db, session = build_db(rows)
        result = session.execute(
            "SELECT f, COUNT(*) FROM t GROUP BY f ORDER BY f"
        )
        expected = {}
        for row in rows:
            expected[row[2]] = expected.get(row[2], 0) + 1
        assert dict(result.rows) == expected

    @given(rows=rows_strategy, limit=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_order_by_limit(self, rows, limit):
        db, session = build_db(rows)
        result = session.execute(
            f"SELECT b FROM t WHERE b IS NOT NULL ORDER BY b LIMIT {limit}"
        )
        expected = sorted(r[1] for r in rows if r[1] is not None)[:limit]
        assert [r[0] for r in result.rows] == expected

    @given(
        rows=rows_strategy,
        values=st.lists(
            st.integers(min_value=-100, max_value=100), max_size=5
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_in_filter_pushed_matches_apply_filters(self, rows, values):
        """The pushed-down ``In`` SQL and Spark-side ``apply_filters``
        agree on every row set — including the empty value list, which
        must render as FALSE (``col IN ()`` is a syntax error) and the
        NULL rows, which never match."""
        from repro.spark.datasource import In, apply_filters
        from repro.spark.row import StructField, StructType

        db, session = build_db(rows)
        condition = In("A", tuple(values))
        engine = session.execute(
            f"SELECT a, b, f FROM t WHERE {condition.to_sql()}"
        ).rows
        schema = StructType(
            [StructField("a", "long"), StructField("b", "long"),
             StructField("f", "boolean")]
        )
        spark_side = apply_filters([condition], schema, rows)
        assert sorted(engine, key=repr) == sorted(spark_side, key=repr)
        assert all(r[0] is not None for r in engine)

    @given(rows=rows_strategy, descending=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_order_by_nulls_last_both_directions(self, rows, descending):
        """Engine ORDER BY keeps NULLs last whichever way values sort."""
        db, session = build_db(rows)
        direction = "DESC" if descending else "ASC"
        result = session.execute(f"SELECT a FROM t ORDER BY a {direction}")
        got = [r[0] for r in result.rows]
        present = sorted(
            (v for v in got if v is not None), reverse=descending
        )
        assert got == present + [None] * (len(got) - len(present))

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_delete_then_count(self, rows):
        db, session = build_db(rows)
        deleted = session.execute("DELETE FROM t WHERE f = TRUE").rowcount
        remaining = session.scalar("SELECT COUNT(*) FROM t")
        assert deleted == sum(1 for r in rows if r[2] is True)
        assert remaining == len(rows) - deleted
