"""Differential proof that the plan pipeline equals the legacy interpreter.

``tests.reference_interpreter.LegacyInterpreter`` is a frozen copy of the
pre-pipeline row-at-a-time SELECT evaluator.  Every test here runs the
same statement through both and demands *byte-identical* results: the
rows in order, the column names, and every field of the
:class:`~repro.vertica.engine.CostReport` (total and per-node) — because
the JDBC simulation bridge converts those counters into simulated
network/CPU time, any drift would silently change every benchmark in the
repo.

Two layers of coverage:

- a deterministic matrix of hand-picked statements exercising each
  operator and optimizer rule (pruning, pushdown, folding, views, joins,
  system tables, epochs, error paths);
- hypothesis-generated random schemas/rows/queries (derandomized so CI
  is reproducible).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connector import SimVerticaCluster
from repro.sim import Environment
from repro.vertica import VerticaDatabase
from repro.vertica.batch import BATCH_ROWS
from repro.vertica.engine import COST_COUNTERS, CostReport
from repro.vertica.errors import SqlError
from repro.vertica.expr import split_and
from repro.vertica.hashring import HASH_SPACE, vertica_hash
from repro.vertica.plan import explain_lines, logical, physical
from repro.vertica.plan.binder import bind_dml_scan, bind_select
from repro.vertica.plan.optimizer import optimize
from repro.vertica.plan.pipeline import PipelineExecution, build_operator
from repro.vertica.settings import PlanContext
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.sql.parser import parse_statement
from repro.wlm import ResourcePool
from tests.reference_interpreter import LegacyInterpreter

COST_FIELDS = [name for pair in COST_COUNTERS for name in pair]
#: the pair the frozen oracle never modelled: join shuffles
#: (``tests/test_cost_ledger.py`` counts them independently)
SHUFFLE_PAIR = ("rows_shuffled", "node_rows_shuffled")
#: every field the oracle charges, so every field it is compared on
ORACLE_COST_FIELDS = [name for name in COST_FIELDS if name not in SHUFFLE_PAIR]


def outcome(run):
    """``run()``'s result as ("ok", result) or ("err", type, message)."""
    try:
        return "ok", run()
    except Exception as error:  # noqa: BLE001 - compared structurally
        return "err", type(error).__name__, str(error)


def assert_identical(db, sql, initiator=None):
    """The oracle's answer vs a fresh session's."""
    with db.connect(initiator or db.node_names[0]) as session:
        assert_matches_oracle(session, sql)


def assert_matches_oracle(session, sql):
    db = session.database
    statement = parse_statement(sql)
    assert isinstance(statement, ast.Select), sql
    legacy = LegacyInterpreter(db)
    expected = outcome(
        lambda: legacy.select(statement, db.begin(), session.node)
    )
    actual = outcome(lambda: session.execute(sql))
    if expected[0] == "err":
        assert actual == expected, f"{sql}: pipeline diverged on error"
        return
    assert actual[0] == "ok", f"{sql}: pipeline raised {actual[1:]}"
    want, got = expected[1], actual[1]
    assert got.columns == want.columns, sql
    assert got.rows == want.rows, sql
    for field in ORACLE_COST_FIELDS:
        assert getattr(got.cost, field) == getattr(want.cost, field), (
            f"{sql}: cost.{field} diverged"
        )


@pytest.fixture(scope="module")
def db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE people (id INTEGER, age INTEGER, name VARCHAR(20), "
        "score FLOAT) SEGMENTED BY HASH(id) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dept (d_id INTEGER, dept VARCHAR(10)) "
        "UNSEGMENTED ALL NODES"
    )
    session.execute(
        "INSERT INTO people VALUES "
        "(1, 34, 'ann', 12.5), (2, 17, 'bob', 3.0), (3, NULL, 'cho', 88.0), "
        "(4, 51, NULL, NULL), (5, 17, 'dee', 41.5), (6, 90, 'eve', 0.5)"
    )
    session.execute(
        "INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (4, 'eng')"
    )
    session.execute("CREATE VIEW adult AS SELECT id, age FROM people WHERE age >= 18")
    # A second committed batch so AT EPOCH reads see real history.
    session.execute("INSERT INTO people VALUES (7, 28, 'fay', 7.25)")
    return database


SEGMENT_SQL = None  # filled per-db inside the test (needs ring bounds)

MATRIX = [
    "SELECT * FROM people",
    "SELECT id, name FROM people",
    "SELECT name, name FROM people",
    "SELECT id + 1, age * 2 FROM people WHERE age > 20",
    "SELECT id AS ident, score FROM people WHERE name = 'ann' OR age < 30",
    "SELECT * FROM people WHERE age IS NULL",
    "SELECT * FROM people WHERE age IS NOT NULL AND score BETWEEN 1.0 AND 60.0",
    "SELECT * FROM people WHERE name LIKE 'a%'",
    "SELECT * FROM people WHERE id IN (1, 2, 3)",
    "SELECT * FROM people WHERE NOT (age > 20)",
    "SELECT COUNT(*) FROM people",
    "SELECT COUNT(age), SUM(age), AVG(score), MIN(name), MAX(id) FROM people",
    "SELECT age, COUNT(*) FROM people GROUP BY age",
    "SELECT age, COUNT(*) AS n FROM people GROUP BY age HAVING n > 1",
    "SELECT COUNT(DISTINCT age) FROM people",
    "SELECT age, SUM(score) FROM people WHERE id > 2 GROUP BY age ORDER BY age",
    "SELECT SUM(age) FROM people WHERE id > 999",
    "SELECT * FROM people ORDER BY age",
    "SELECT * FROM people ORDER BY age DESC, id",
    "SELECT * FROM people ORDER BY name LIMIT 3",
    "SELECT id, age FROM people ORDER BY age + id DESC",
    "SELECT id FROM people LIMIT 0",
    "SELECT name FROM people WHERE age > 100",
    "SELECT 1 + 2",
    "SELECT 1 + 2 AS three, 'x'",
    "SELECT * FROM dept",
    "SELECT dept, COUNT(*) FROM dept GROUP BY dept",
    "SELECT p.name, d.dept FROM people p JOIN dept d ON p.id = d.d_id",
    "SELECT name, dept FROM people JOIN dept ON id = d_id WHERE age > 18",
    "SELECT * FROM adult",
    "SELECT * FROM adult WHERE age > 21",
    "SELECT a.age, COUNT(*) FROM adult a GROUP BY a.age",
    "SELECT * FROM v_catalog.nodes",
    "SELECT * FROM v_monitor.storage_containers",
    "AT EPOCH 1 SELECT COUNT(*) FROM people",
    "SELECT missing FROM people",
    "SELECT id, missing + 1 FROM people",
    "SELECT MIN(age) FROM people GROUP BY missing",
    "SELECT SYNTHETIC_HASH() FROM dept",
]


class TestDeterministicMatrix:
    @pytest.mark.parametrize("sql", MATRIX)
    def test_matrix_statement(self, db, sql):
        assert_identical(db, sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM people",
            "SELECT * FROM dept",
            "SELECT age, COUNT(*) FROM people GROUP BY age",
            "SELECT * FROM adult",
        ],
    )
    def test_matrix_from_other_initiator(self, db, sql):
        # Unsegmented reads and view attribution depend on the initiator.
        assert_identical(db, sql, initiator=db.node_names[2])

    def test_hash_range_pruned_query(self, db):
        table = db.catalog.table("people")
        for segment in table.ring.segments[:2]:
            assert_identical(
                db,
                f"SELECT id, name FROM people WHERE HASH(id) >= {segment.lo} "
                f"AND HASH(id) < {segment.hi}",
            )

    def test_read_your_writes_in_open_transaction(self, db):
        # Uncommitted WOS rows must be visible through the pipeline the
        # same way the legacy interpreter saw them.
        statement = parse_statement("SELECT id, name FROM people ORDER BY id")
        txn = db.begin()
        initiator = db.node_names[0]
        people = {"ID": [99], "AGE": [1], "NAME": ["wos"], "SCORE": [9.0]}
        db.engine.insert_rows(
            "PEOPLE",
            [people[name] for name in db.catalog.table("PEOPLE").column_names()],
            txn,
        )
        legacy = LegacyInterpreter(db)
        want = legacy.select(parse_statement("SELECT id, name FROM people ORDER BY id"), txn, initiator)
        got = db.engine.select(statement, txn, initiator)
        assert got.rows == want.rows
        assert (99, "wos") in got.rows
        txn.abort()


# ------------------------------------------------------------- error order
@pytest.fixture(scope="module")
def order_db():
    """2,500 rows in scan order (one container, read whole from the
    initiator), so row *i* sits in batch ``i // BATCH_ROWS``; each of
    a–d is zero on exactly one row and 1 elsewhere."""
    assert BATCH_ROWS < 2000 < 2 * BATCH_ROWS
    database = VerticaDatabase(num_nodes=2)
    session = database.connect()
    session.execute(
        "CREATE TABLE wide (id INTEGER, g INTEGER, a INTEGER, b INTEGER, "
        "c INTEGER, d INTEGER) UNSEGMENTED ALL NODES"
    )
    zero_at = {"a": 2000, "b": 100, "c": 902, "d": 301}
    session.execute(
        "INSERT INTO wide VALUES "
        + ", ".join(
            f"({i}, {i % 3}, " + ", ".join(
                str(int(i != zero_at[column])) for column in "abcd"
            ) + ")"
            for i in range(2500)
        )
    )
    return database


#: which of two raising items surfaces — unpinned until these rows
ERROR_ORDER = [
    # two projected expressions raising in different batches: row-major,
    # so row 100's modulo beats row 2000's division
    ("SELECT 10 / a, 10 % b FROM wide", "modulo by zero"),
    # ... and inside one batch: row 301's division beats row 902's modulo
    ("SELECT 10 % c, 10 / d FROM wide", "division by zero"),
    # two aggregate arguments raising in different groups: group-major,
    # so group 1's second item beats group 2's first
    ("SELECT g, SUM(10 / c), SUM(10 % d) FROM wide GROUP BY g", "modulo by zero"),
    # a raising group key beside a raising aggregate: keys come first,
    # whatever the rows' order
    ("SELECT 10 / a, SUM(10 % b) FROM wide GROUP BY 10 / a", "division by zero"),
    # ... also when the aggregate would have raised in the first group
    ("SELECT g, SUM(10 % b) FROM wide GROUP BY g, 10 / a", "division by zero"),
    # HAVING is checked per group, before the next group's arguments
    ("SELECT g, SUM(10 / c) AS s FROM wide GROUP BY g HAVING s > 'x'",
     "cannot compare int with str"),
    # an ORDER BY key that raises on some rows sorts them as NULL
    ("SELECT id, a FROM wide WHERE id > 1995 AND id < 2005 "
     "ORDER BY 10 / a DESC, id DESC", None),
    ("SELECT id, c, d FROM wide ORDER BY 10 / c, 10 % d DESC, id LIMIT 3", None),
]


class TestErrorOrder:
    @pytest.mark.parametrize("sql,message", ERROR_ORDER)
    def test_first_error_is_the_oracles(self, order_db, sql, message):
        assert_identical(order_db, sql)
        if message is None:
            return
        with order_db.connect() as session:
            assert outcome(lambda: session.execute(sql))[1:] == ("SqlError", message)

    def test_update_raises_its_first_error_row_major(self, order_db):
        # The oracle has no UPDATE; its rule is the row-at-a-time one:
        # row by row in scan order, assignments in SET order.
        sql = "UPDATE wide SET a = 10 / c, b = 10 % d WHERE id >= 0"
        assignments = parse_statement(sql).assignments
        rows = LegacyInterpreter(order_db).select(
            parse_statement("SELECT * FROM wide"), order_db.begin(),
            order_db.node_names[0],
        ).to_dicts()

        def row_at_a_time():
            for row in rows:
                for __, expression in assignments:
                    expression.evaluate(row)

        with order_db.connect() as session:
            expected = outcome(row_at_a_time)
            assert expected == ("err", "SqlError", "modulo by zero")
            assert outcome(lambda: session.execute(sql)) == expected
            # the failed statement changed nothing
            assert session.execute(
                "SELECT SUM(a), SUM(b) FROM wide"
            ).rows == [(2499, 2499)]


@pytest.fixture(scope="module")
def typed_db():
    """``t(id, g, c, v, name)``: NULLs ahead of the values, a zero ``c``
    in group 2 only, names in both groups and one beside a NULL ``v``."""
    database = VerticaDatabase(num_nodes=2)
    session = database.connect()
    session.execute(
        "CREATE TABLE t (id INTEGER, g INTEGER, c INTEGER, v FLOAT, "
        "name VARCHAR(10)) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "INSERT INTO t VALUES (0, 1, NULL, NULL, NULL), (1, 1, 1, NULL, 'ann'), "
        "(2, 2, 0, 0.5, 'bob'), (3, 1, 2, 4.0, 'cho'), (4, 2, 1, -0.0, 'dee')"
    )
    return database


class TestSelectorErrorOrder:
    """A ``column <op> literal`` filter answers in one pass; where that pass
    raises, the kernel and then the row evaluator pick the error."""

    @pytest.mark.parametrize("sql,message", [
        ("SELECT id, v FROM t WHERE v > 'x'", "cannot compare float with str"),
        ("SELECT id, v FROM t WHERE name >= 1", "cannot compare str with int"),
        ("SELECT id FROM t WHERE v = 'x'", None),
        ("SELECT id FROM t WHERE v <> 0.0", None),
        ("SELECT id, name FROM t WHERE name < 'c'", None),
        ("SELECT id FROM t WHERE missing > 1", "unknown column 'MISSING'"),
    ])
    def test_first_error_is_the_oracles(self, typed_db, sql, message):
        assert_identical(typed_db, sql)
        if message is not None:
            with typed_db.connect() as session:
                assert outcome(lambda: session.execute(sql))[1:] == (
                    "SqlError", message
                )


class TestAggregateTypeErrors:
    """SUM / AVG over VARCHAR, and MIN / MAX over values Python cannot
    order, raise a :class:`SqlError` naming the aggregate and the types —
    group-major, item by item, where the bare ``TypeError`` used to
    escape.  ``tests/reference_interpreter.py`` still raises that
    ``TypeError``: it is frozen as the pre-pipeline interpreter was, so it
    stays an independent oracle, and these cases are pinned here instead."""

    @pytest.mark.parametrize("sql,message", [
        ("SELECT SUM(name) FROM t", "cannot apply SUM to str"),
        ("SELECT g, AVG(name) FROM t GROUP BY g", "cannot apply AVG to str"),
        ("SELECT MIN(COALESCE(v, name)) FROM t",
         "cannot apply MIN to str and float"),
        ("SELECT g, MAX(COALESCE(name, id)) FROM t WHERE id < 2 GROUP BY g",
         "cannot apply MAX to int and str"),
        # group 1 reads first: its SUM(name) beats group 2's division
        ("SELECT g, SUM(10 / c), SUM(name) FROM t GROUP BY g",
         "cannot apply SUM to str"),
        # within one group, item order decides
        ("SELECT g, SUM(10 / c), SUM(name) FROM t WHERE g = 2 GROUP BY g",
         "division by zero"),
        ("SELECT g, SUM(name), SUM(10 / c) FROM t WHERE g = 2 GROUP BY g",
         "cannot apply SUM to str"),
    ])
    def test_through_a_session(self, typed_db, sql, message):
        with typed_db.connect() as session:
            assert outcome(lambda: session.execute(sql))[1:] == ("SqlError", message)
        # the frozen oracle: the same error where it raises a SqlError
        statement = parse_statement(sql)
        legacy = outcome(lambda: LegacyInterpreter(typed_db).select(
            statement, typed_db.begin(), typed_db.node_names[0]
        ))
        assert legacy[1] == ("SqlError" if message == "division by zero"
                             else "TypeError")

    def test_through_a_jdbc_connection(self):
        env = Environment()
        cluster = SimVerticaCluster(env=env, num_nodes=2)
        session = cluster.db.connect()
        session.execute("CREATE TABLE t (id INTEGER, name VARCHAR(10))")
        session.execute("INSERT INTO t VALUES (1, 'ann'), (2, NULL)")
        session.close()
        errors = []

        def client():
            with cluster.connect(cluster.db.node_names[0]) as conn:
                for sql in ("SELECT SUM(name) FROM t",
                            "SELECT MIN(COALESCE(name, id)) FROM t"):
                    try:
                        yield from conn.execute(sql)
                    except SqlError as error:
                        errors.append(str(error))
                result = yield from conn.execute("SELECT COUNT(name) FROM t")
                errors.append(result.rows)

        env.process(client())
        env.run()
        assert errors == [
            "cannot apply SUM to str", "cannot apply MIN to str and int", [(1,)],
        ]


# ------------------------------------------------- shared aggregate inputs
#: a fresh NaN object per draw beside one shared NaN object: a dict groups
#: a NaN with itself only (``is``), never with another NaN
nans = st.one_of(st.just(math.nan), st.builds(float, st.just("nan")))
shared_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 2)),                     # k
        st.one_of(st.none(), nans, st.sampled_from([-0.0, 0.0, 1.5])),  # f
        st.one_of(st.none(), st.booleans()),                         # flag
        st.one_of(st.none(), st.integers(-3, 3)),                    # v
        st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 2.25])),    # w
        st.sampled_from([None, 1, 2, 2, 0]),                         # c
    ),
    max_size=14,
)
#: group keys: one column (NULL, NaN, -0.0 / 0.0; True / 1 through
#: COALESCE), or two
SHARED_KEYS = [None, "k", "f", "COALESCE(flag, k)", "k, f",
               "f, COALESCE(flag, k)"]
#: several aggregates over one column, plain and qualified, DISTINCT, two
#: of one name over different columns, an expression over the column and
#: one that raises (``10 / c`` with ``c`` 0: the row evaluator's path)
SHARED_ITEMS = [
    "COUNT(*)", "SUM(v)", "MIN(v)", "MAX(v)", "AVG(v)", "COUNT(v)",
    "COUNT(DISTINCT v)", "SUM(DISTINCT v)", "MIN(t.v)", "SUM(t.v)",
    "MAX(w)", "SUM(w)", "MIN(c)", "SUM(v + 1)", "MAX(v * c)", "SUM(10 / c)",
]


def shared_db(rows):
    db = VerticaDatabase(num_nodes=2)
    db.connect().execute(
        "CREATE TABLE t (k INTEGER, f FLOAT, flag BOOLEAN, v INTEGER, "
        "w FLOAT, c INTEGER) SEGMENTED BY HASH(k) ALL NODES"
    )
    if rows:  # SQL text has no NaN literal
        txn = db.begin()
        db.engine.insert_rows("T", [list(column) for column in zip(*rows)], txn)
        txn.commit(db.storage)
    return db


class TestSharedAggregateInputs:
    """Aggregates that read one evaluated column share its per-group
    values; rows (by ``repr``: NaN, ``-0.0`` and ``True`` / ``1`` told
    apart), order, errors and every cost field stay the oracle's."""

    @given(
        rows=shared_rows,
        key=st.sampled_from(SHARED_KEYS),
        items=st.lists(st.sampled_from(SHARED_ITEMS), min_size=2, max_size=6),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_shared_inputs_match_legacy(self, rows, key, items):
        db = shared_db(rows)
        sql = f"SELECT {', '.join(items)} FROM t"
        if key is not None:
            sql = f"SELECT {key}, {', '.join(items)} FROM t GROUP BY {key}"
        legacy = LegacyInterpreter(db)
        expected = outcome(lambda: legacy.select(
            parse_statement(sql), db.begin(), db.node_names[0]
        ))
        with db.connect() as session:
            actual = outcome(lambda: session.execute(sql))
        if expected[0] == "err":
            assert actual == expected, sql
            return
        assert actual[0] == "ok", f"{sql}: pipeline raised {actual[1:]}"
        want, got = expected[1], actual[1]
        assert got.columns == want.columns, sql
        assert repr(got.rows) == repr(want.rows), sql
        for field in ORACLE_COST_FIELDS:
            assert getattr(got.cost, field) == getattr(want.cost, field), sql

    @pytest.mark.parametrize("sql,message", [
        ("SELECT g, SUM(c), MIN(wide.c), SUM(10 / c), MAX(c) FROM wide "
         "GROUP BY g", "division by zero"),
        ("SELECT g, SUM(d), COUNT(DISTINCT d), SUM(10 % d), SUM(10 / c) "
         "FROM wide GROUP BY g", "modulo by zero"),
        ("SELECT g, SUM(a), MIN(a), MAX(wide.a), AVG(a + 1) FROM wide "
         "GROUP BY g", None),
    ])
    def test_beside_raising_arguments(self, order_db, sql, message):
        assert_identical(order_db, sql)
        if message is not None:
            with order_db.connect() as session:
                assert outcome(lambda: session.execute(sql))[1:] == (
                    "SqlError", message
                )


# ----------------------------------------------------------- hypothesis layer
values = st.one_of(st.none(), st.integers(min_value=-50, max_value=50))
names = st.one_of(st.none(), st.sampled_from(["ann", "bob", "cho", "dee", ""]))
rows_strategy = st.lists(
    st.tuples(values, values, names), min_size=0, max_size=25
)

OPERATORS = ["=", "<>", "<", "<=", ">", ">="]
where_strategy = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.sampled_from(OPERATORS),
        st.integers(min_value=-50, max_value=50),
    ),
)
items_strategy = st.sampled_from([
    "*",
    "A, B",
    "B, A, C",
    "A + 1, B - A",
    "C, A",
    "COUNT(*)",
    "COUNT(A), SUM(B)",
    "B, COUNT(*), MIN(A), MAX(C)",
    "B, COUNT(DISTINCT A)",
])
order_strategy = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["A", "B", "C"]), st.booleans()),
)
limit_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=10))


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value + "'"
    return str(value)


def build_random_db(rows):
    db = VerticaDatabase(num_nodes=3)
    session = db.connect()
    session.execute(
        "CREATE TABLE r (a INTEGER, b INTEGER, c VARCHAR(10)) "
        "SEGMENTED BY HASH(a) ALL NODES"
    )
    if rows:
        session.execute(
            "INSERT INTO r VALUES "
            + ", ".join(
                "(" + ", ".join(sql_literal(v) for v in row) + ")"
                for row in rows
            )
        )
    return db


def compose_sql(items, where, order, limit):
    sql = f"SELECT {items} FROM r"
    if where is not None:
        column, op, literal = where
        sql += f" WHERE {column} {op} {literal}"
    aggregated = "COUNT" in items or "SUM(" in items or "MIN(" in items
    if aggregated and items.startswith("B"):
        sql += " GROUP BY B"
    if order is not None and not aggregated:
        column, desc = order
        sql += f" ORDER BY {column}" + (" DESC" if desc else "")
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql


class TestRandomizedDifferential:
    @given(
        rows=rows_strategy,
        items=items_strategy,
        where=where_strategy,
        order=order_strategy,
        limit=limit_strategy,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_query_matches_legacy(self, rows, items, where, order, limit):
        db = build_random_db(rows)
        assert_identical(db, compose_sql(items, where, order, limit))

    @given(rows=rows_strategy, bound=st.integers(min_value=-50, max_value=50))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_random_constant_folding_and_ranges(self, rows, bound):
        db = build_random_db(rows)
        # Folded arithmetic in WHERE and select list plus a hash-range
        # conjunct that tightening must read from the *pristine* WHERE.
        segment = db.catalog.table("r").ring.segments[0]
        assert_identical(
            db,
            f"SELECT A + (1 + 2), B FROM r WHERE B > {bound} - 10 "
            f"AND HASH(a) >= {segment.lo} AND HASH(a) < {segment.hi}",
        )


# ------------------------------------------------------------- join matrix
@pytest.fixture(scope="module")
def join_db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE fact (k INTEGER, v FLOAT) SEGMENTED BY HASH(k) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dim (k2 INTEGER, label VARCHAR(10)) "
        "SEGMENTED BY HASH(k2) ALL NODES"
    )
    session.execute(
        "CREATE TABLE lookup (lk INTEGER, note VARCHAR(10)) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "CREATE TABLE empty_t (e INTEGER, w FLOAT) SEGMENTED BY HASH(e) ALL NODES"
    )
    session.execute(
        "INSERT INTO fact VALUES (1, 1.5), (1, 2.5), (2, 0.5), (3, 9.0), "
        "(NULL, 4.0), (5, NULL), (7, 7.0)"
    )
    session.execute(
        "INSERT INTO dim VALUES (1, 'one'), (2, 'two'), (2, 'dup'), "
        "(NULL, 'nil'), (4, 'four')"
    )
    session.execute("INSERT INTO lookup VALUES (1, 'a'), (3, 'b'), (NULL, 'c')")
    return database


#: the planner's pick (a hash join on an equi key) and the nested loop
#: a test forces on the same shape
STRATEGIES = ["auto", "nested-loop"]

JOIN_MATRIX = [
    # co-located equi join on both segmentation keys (a hash join)
    "SELECT v, label FROM fact JOIN dim ON k = k2",
    # the same matches with no equi key: the nested loop
    "SELECT v, label FROM fact JOIN dim ON k = k2 + 0",
    "SELECT v, label, note FROM fact JOIN dim ON k = k2 + 0 JOIN lookup ON k = lk + 0",
    # pushdown-below-join: one-sided conjuncts move into each scan
    "SELECT v, label FROM fact JOIN dim ON k = k2 WHERE v > 1.0 AND label <> 'dup'",
    # qualified aliases with duplicate keys on both sides
    "SELECT f.k, d.label FROM fact f JOIN dim d ON f.k = d.k2 ORDER BY f.k, d.label",
    # unsegmented right side (never co-located)
    "SELECT v, note FROM fact JOIN lookup ON k = lk",
    # empty right side / empty left side
    "SELECT v, w FROM fact JOIN empty_t ON k = e",
    "SELECT w, v FROM empty_t JOIN fact ON e = k",
    # non-equi condition: always nested loop
    "SELECT v, label FROM fact JOIN dim ON k < k2",
    # aggregates over a join
    "SELECT COUNT(*) FROM fact JOIN dim ON k = k2",
    "SELECT label, SUM(v) FROM fact JOIN dim ON k = k2 GROUP BY label ORDER BY label",
    # three-way chain through the unsegmented lookup
    "SELECT v, label, note FROM fact JOIN dim ON k = k2 JOIN lookup ON k = lk",
    # ORDER + LIMIT on top of a join
    "SELECT v, label FROM fact JOIN dim ON k = k2 ORDER BY v DESC LIMIT 2",
    # error path: FLOAT-vs-VARCHAR residual forces nested loop even under
    # auto — skipping pairs would also skip the error
    "SELECT v FROM fact JOIN dim ON k = k2 AND v > label",
    # error path in the WHERE above the join (pushdown must not hide it)
    "SELECT v FROM fact JOIN dim ON k = k2 WHERE v > label",
    # readers of the whole joined row: the join emits every column for them
    "SELECT * FROM fact JOIN dim ON k = k2",
    "SELECT v, SYNTHETIC_HASH() FROM fact JOIN dim ON k = k2",
    # ... below one join only: the relation joined above it is pruned
    "SELECT v FROM fact JOIN dim ON k = k2 AND SYNTHETIC_HASH() <> 0 "
    "JOIN lookup ON k = lk",
]


class TestJoinMatrix:
    @pytest.mark.parametrize("sql", JOIN_MATRIX)
    def test_join_statement(self, join_db, sql):
        assert_identical(join_db, sql)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_join_after_analyze(self, join_db, strategy):
        # Statistics may steer the join order but never the rows;
        # ``+ 0`` leaves no equi key, so the planner nested-loops it.
        session = join_db.connect()
        session.execute("ANALYZE fact")
        session.execute("ANALYZE dim")
        condition = "k = k2" if strategy == "auto" else "k = k2 + 0"
        sql = f"SELECT v, label FROM fact JOIN dim ON {condition} WHERE v > 1.0"
        plan = "\n".join(row[0] for row in session.execute(f"EXPLAIN {sql}").rows)
        assert ("hash join" if strategy == "auto" else "nested-loop join") in plan
        assert_identical(join_db, sql)


# ------------------------------------------------- randomized join layer
join_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    ),
    min_size=0,
    max_size=12,
)
join_where = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["A", "B", "B2"]),
        st.sampled_from(OPERATORS),
        st.integers(min_value=-50, max_value=50),
    ),
)


class TestRandomizedJoinDifferential:
    @given(
        left_rows=join_rows,
        right_rows=join_rows,
        where=join_where,
        analyze=st.booleans(),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_random_join_matches_legacy(self, left_rows, right_rows, where, analyze):
        db = VerticaDatabase(num_nodes=3)
        session = db.connect()
        session.execute(
            "CREATE TABLE lt (a INTEGER, b INTEGER) SEGMENTED BY HASH(a) ALL NODES"
        )
        session.execute(
            "CREATE TABLE rt (a2 INTEGER, b2 INTEGER) "
            "SEGMENTED BY HASH(a2) ALL NODES"
        )
        for name, rows in (("lt", left_rows), ("rt", right_rows)):
            if rows:
                session.execute(
                    f"INSERT INTO {name} VALUES "
                    + ", ".join(
                        "(" + ", ".join(sql_literal(v) for v in row) + ")"
                        for row in rows
                    )
                )
        if analyze:
            session.execute("ANALYZE lt")
            session.execute("ANALYZE rt")
        sql = "SELECT b, b2 FROM lt JOIN rt ON a = a2"
        if where is not None:
            column, op, literal = where
            sql += f" WHERE {column} {op} {literal}"
        assert_identical(db, sql)


# --------------------------------------------- interleaved session settings
ISOLATION_QUERIES = [
    "SELECT v, label FROM fact JOIN dim ON k = k2",
    "SELECT v, label, note FROM fact JOIN dim ON k = k2 JOIN lookup ON k = lk",
]
ISOLATION_STATEMENTS = (
    ["SET RESULT_CACHE = 'on'", "SET RESULT_CACHE = 'off'"]
    + ["SET RESOURCE_POOL = 'general'", "SET RESOURCE_POOL = 'side'"]
    + ISOLATION_QUERIES
    + [f"EXPLAIN {query}" for query in ISOLATION_QUERIES]
)


class TestSessionIsolation:
    """Settings belong to the connection: no ``SET`` leaks across sessions."""

    @given(
        count=st.integers(min_value=2, max_value=4),
        steps=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(ISOLATION_STATEMENTS)),
            max_size=24,
        ),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_interleaved_sessions_see_only_their_own_settings(
        self, join_db, count, steps
    ):
        join_db.create_resource_pool(ResourcePool("side"), or_replace=True)
        sessions = [join_db.connect() for __ in range(count)]
        # the model: what each session last SET
        cached, pool = [False] * count, ["GENERAL"] * count
        try:
            for index, sql in steps:
                who = index % count
                session = sessions[who]
                if sql.startswith("SET RESULT_CACHE"):
                    session.execute(sql)
                    cached[who] = "'on'" in sql
                elif sql.startswith("SET RESOURCE_POOL"):
                    session.execute(sql)
                    pool[who] = sql.split("'")[1].upper()
                elif sql.startswith("EXPLAIN"):
                    shown = [row[0] for row in session.execute(sql).rows]
                    # unstamped, so never plan-cached: a fresh optimize
                    fresh = explain_lines(
                        join_db.engine, parse_statement(sql[len("EXPLAIN "):]),
                        session.node,
                    )
                    # this session's RESULT_CACHE on appends one trailing line
                    assert shown[:len(fresh)] == fresh
                    assert len(shown) == len(fresh) + cached[who]
                else:
                    # shared caches, per-session SETs: still the oracle's answer
                    assert_matches_oracle(session, sql)
                    assert session.last_result.cost.resource_pool == pool[who]
                assert session.context == PlanContext(cached[who], pool[who])
        finally:
            for session in sessions:
                session.close()


# ------------------------------------------------------ key-decided joins
# A hash join whose condition is its equi keys over one type class
# emits its key-equal candidates unvalidated (``Join.keys_decide``).  These
# keys are where that could go wrong: INTEGER, FLOAT and BOOLEAN mixed (1,
# 1.0 and TRUE are equal), -0.0 beside 0.0, NaN, NULL, and 2**53 + 1 beside
# float(2**53) (unequal, though the float is the int's nearest).
KEY_POOLS = {
    "i": [None, 0, 1, 2, 2**53, 2**53 + 1],
    "f": [None, 0.0, -0.0, 1.0, 2.0, math.nan, float(2**53)],
    "b": [None, True, False],
}
keyed_rows = st.lists(
    st.tuples(
        *[st.sampled_from(pool) for pool in KEY_POOLS.values()],
        st.integers(0, 3),
        st.sampled_from([None, "1", "a"]),
    ),
    max_size=12,
)
#: a key pair: (left column, right column) of one of the pooled types
key_pair = st.tuples(st.sampled_from("ifb"), st.sampled_from("ifb"))
RESIDUALS = [None, "lx < rx", "lx <> rx", "li = rs"]  # the last: INTEGER = VARCHAR


def keyed_db(left_rows, right_rows, stale):
    """``lt(li, lf, lb, lx, ls)`` and ``rt(ri, rf, rb, rx, rs)``, loaded
    through ``insert_rows`` (SQL text has no NaN).  ``stale``: ANALYZEd after
    each table's first row, so the estimates lag."""
    db = VerticaDatabase(num_nodes=3)
    session = db.connect()
    for table, side, rows in (("lt", "l", left_rows), ("rt", "r", right_rows)):
        session.execute(
            f"CREATE TABLE {table} ({side}i INTEGER, {side}f FLOAT, "
            f"{side}b BOOLEAN, {side}x INTEGER, {side}s VARCHAR(4)) "
            f"SEGMENTED BY HASH({side}x) ALL NODES"
        )
        for position, chunk in enumerate((rows[:1], rows[1:])):
            if chunk:
                txn = db.begin()
                db.engine.insert_rows(
                    table.upper(), [list(c) for c in zip(*chunk)], txn
                )
                txn.commit(db.storage)
            if stale and position == 0:
                session.execute(f"ANALYZE {table}")
    return db


def keyed_sql(pairs, residual):
    conjuncts = [f"l{a} = r{b}" for a, b in pairs]
    if residual is not None:
        conjuncts.append(residual)
    return "SELECT lx, rx, li, rf, lb FROM lt JOIN rt ON " + " AND ".join(conjuncts)


def statement_cost(execution):
    """A statement's report: its operators' reports, children first."""
    cost = CostReport()
    for op in execution.post_order():
        cost.add(op.cost)
    return cost


def run_keyed(db, sql, strategy="auto", validate=False):
    """``sql`` executed: ("ok", rows, cost) or ("err", class, message),
    each join's (keys_decide, candidate pairs) — every join forced to
    the nested loop under ``strategy="nested-loop"`` and to validate if
    asked — and each hash join's build side."""
    plan = optimize(bind_select(db, parse_statement(sql)), db)
    joins = [node for node in plan.nodes() if isinstance(node, logical.Join)]
    for join in joins if strategy == "nested-loop" else ():
        join.strategy, join.keys_decide = "nested-loop", False
    for join in joins if validate else ():
        join.keys_decide = False
    root = build_operator(
        db.engine, plan.root, db.begin(), db.node_names[0], db.epochs.current
    )
    execution = PipelineExecution(plan, root)
    result = outcome(lambda: (
        [row for batch in root.batches() for row in batch.rows()],
        statement_cost(execution),
    ))
    operators = [op for __, op in execution.operators()]
    stats = [
        (op.logical.keys_decide, op.stats.candidate_pairs)
        for op in operators if isinstance(op.logical, logical.Join)
    ]
    builds = [
        op.build_side for op in operators if isinstance(op, physical.HashJoinOp)
    ]
    return result, stats, builds


def assert_keyed_like_oracle(db, sql, strategy="auto"):
    """Rows, order, errors and CostReport as the oracle's; rows, errors and
    candidate pairs as a forced validation's.  The build sides it chose."""
    got, stats, builds = run_keyed(db, sql, strategy)
    legacy = LegacyInterpreter(db)
    want = outcome(
        lambda: legacy.select(parse_statement(sql), db.begin(), db.node_names[0])
    )
    assert got[0] == want[0], f"{sql}: {got[1:]} vs oracle {want[1:]}"
    if want[0] == "err":
        assert got == want, sql
    else:
        rows, cost = got[1]
        assert rows == want[1].rows, sql
        for field in ORACLE_COST_FIELDS:
            assert getattr(cost, field) == getattr(want[1].cost, field), field
    validated, forced, __ = run_keyed(db, sql, strategy, validate=True)
    assert [pairs for __, pairs in forced] == [pairs for __, pairs in stats]
    assert not any(decide for decide, __ in forced)
    if got[0] == "ok":
        assert validated[1][0] == got[1][0], f"{sql}: the skip changed the rows"
    else:
        assert validated == got, sql
    return stats, builds


class TestKeyDecidedJoins:
    @given(
        left_rows=keyed_rows,
        right_rows=keyed_rows,
        pairs=st.lists(key_pair, min_size=1, max_size=2),
        residual=st.sampled_from(RESIDUALS),
        stale=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_a_key_decided_join_answers_like_the_oracle(
        self, left_rows, right_rows, pairs, residual, stale
    ):
        db = keyed_db(left_rows, right_rows, stale)
        stats, __ = assert_keyed_like_oracle(db, keyed_sql(pairs, residual))
        # the proof's conditions, and nothing else, decide the skip
        assert [decide for decide, __ in stats] == [residual is None]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_subtle_key_under_either_build_side(self, strategy):
        # rt grows 12x past its statistics; lt holds fewer rows: auto builds
        # on lt, the side no estimate would have picked.  The forced nested
        # loop evaluates ``=`` per pair, as the oracle does.
        values = [
            (i, f, b, x, None)
            for (i, f, b), x in zip(
                zip(KEY_POOLS["i"] * 2, KEY_POOLS["f"] * 2, KEY_POOLS["b"] * 4),
                range(12),
            )
        ]
        db = keyed_db(values[:1] + values[6:11], values, stale=True)
        for pairs in [("i", "f")], [("f", "f")], [("b", "i")], [("i", "i"), ("f", "b")]:
            sql = keyed_sql(pairs, None)
            stats, builds = assert_keyed_like_oracle(db, sql, strategy)
            assert stats[0][0] == (strategy == "auto")
            assert builds == (["left"] if strategy == "auto" else []), sql


# ------------------------------------------- absorbed hash-range conjuncts
# The scan answers ``HASH(seg) ⋚ int`` from the stored row hashes and the
# optimizer drops exactly those conjuncts from the pushed-down predicate;
# everything that merely *looks* like one must still be evaluated.
HASH_ROWS = 200
#: ``b`` is zero on these two rows only (``1 / b`` raises there)
ZERO_B = (3, 150)


def _hash_tables(session):
    session.execute(
        "CREATE TABLE h (a INTEGER, b INTEGER, c INTEGER) "
        "SEGMENTED BY HASH(a) ALL NODES"
    )
    session.execute(
        "CREATE TABLE h2 (a INTEGER, b INTEGER) SEGMENTED BY HASH(a, b) ALL NODES"
    )
    session.execute("CREATE TABLE hu (a INTEGER, b INTEGER) UNSEGMENTED ALL NODES")
    session.execute(
        "CREATE TABLE hd (k INTEGER, x VARCHAR(8)) SEGMENTED BY HASH(k) ALL NODES"
    )
    session.execute(
        "INSERT INTO h VALUES " + ", ".join(
            f"({i}, {0 if i in ZERO_B else 1 + i % 6}, {i % 5})"
            for i in range(HASH_ROWS)
        )
    )
    for name in ("h2", "hu"):
        session.execute(
            f"INSERT INTO {name} VALUES "
            + ", ".join(f"({i}, {i % 7})" for i in range(60))
        )
    session.execute(
        "INSERT INTO hd VALUES "
        + ", ".join(f"({i}, 'x{i % 4}')" for i in range(0, HASH_ROWS, 3))
    )
    session.execute("CREATE VIEW hv AS SELECT a, b FROM h WHERE c < 3")


@pytest.fixture(scope="module")
def hash_db():
    database = VerticaDatabase(num_nodes=4)
    _hash_tables(database.connect())
    return database


LO, HI = 2_000_000_001, 3_000_000_000
#: a range holding row 3 (``b = 0``) and one around row 7 holding no zero
ERR_LO, ERR_HI = vertica_hash(3), vertica_hash(3) + 400_000_000
OK_LO, OK_HI = vertica_hash(7) - 1000, vertica_hash(7) + 1000
assert not any(OK_LO <= vertica_hash(i) < OK_HI for i in ZERO_B)

HASH_MATRIX = [
    # the task query's own shape, alone and with a residual
    f"SELECT a FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI}",
    f"SELECT a, b FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI} AND c > 2",
    f"SELECT c, COUNT(*), SUM(b) FROM h WHERE HASH(a) >= {LO} "
    f"AND HASH(a) < {HI} GROUP BY c",
    f"SELECT * FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI} ORDER BY a LIMIT 7",
    # a bound the folder makes literal: the range never saw it, so it stays
    f"SELECT a FROM h WHERE HASH(a) >= 2000000000 + 1 AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE HASH(a) >= {LO} AND HASH(a) < 1500000000 * 2",
    # bounds that are not int literals
    f"SELECT a FROM h WHERE HASH(a) >= 2.0e9 AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE HASH(a) >= {LO} AND HASH(a) < 3000000000.5",
    f"SELECT a FROM h WHERE HASH(a) >= 'x' AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE HASH(a) >= b AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE HASH(a) >= NULL AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE HASH(a) >= TRUE AND HASH(a) < {HI}",
    "SELECT a FROM h WHERE HASH(a) > TRUE",
    "SELECT a FROM h WHERE HASH(a) < TRUE",
    # every operator, both orientations, BETWEEN whole and half literal
    f"SELECT a FROM h WHERE HASH(a) <> {vertica_hash(7)} AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE HASH(a) = {vertica_hash(7)}",
    f"SELECT a FROM h WHERE {vertica_hash(7)} = HASH(a)",
    f"SELECT a FROM h WHERE HASH(a) > {LO} AND HASH(a) <= {HI}",
    f"SELECT a FROM h WHERE {LO} <= HASH(a) AND {HI} > HASH(a)",
    f"SELECT a FROM h WHERE {LO} < HASH(a) AND {HI} >= HASH(a)",
    f"SELECT a FROM h WHERE HASH(a) BETWEEN {LO} AND {HI}",
    f"SELECT a FROM h WHERE HASH(a) BETWEEN {LO} AND {HI} AND b > 2",
    f"SELECT a FROM h WHERE HASH(a) BETWEEN {LO} AND b * 1000000000",
    f"SELECT a FROM h WHERE HASH(a) BETWEEN 1.5e9 AND {HI}",
    f"SELECT a FROM h WHERE HASH(a) BETWEEN {LO} AND NULL",
    # outside the ring, inverted, full, repeated
    "SELECT a FROM h WHERE HASH(a) >= -5",
    "SELECT a FROM h WHERE HASH(a) < -1",
    f"SELECT a FROM h WHERE HASH(a) < {HASH_SPACE * 4}",
    f"SELECT a FROM h WHERE HASH(a) >= {HASH_SPACE}",
    f"SELECT a FROM h WHERE HASH(a) >= {HI} AND HASH(a) < {LO}",
    "SELECT a FROM h WHERE HASH(a) >= 0",
    f"SELECT COUNT(*) FROM h WHERE HASH(a) >= 0 AND HASH(a) < {HASH_SPACE}",
    f"SELECT a FROM h WHERE HASH(a) >= {LO} AND HASH(a) >= {LO} AND HASH(a) < {HI}",
    # under OR / NOT nothing is absorbed
    f"SELECT a FROM h WHERE HASH(a) < {LO} OR HASH(a) >= {HI}",
    f"SELECT a FROM h WHERE NOT (HASH(a) < {LO}) AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE (HASH(a) >= {LO} AND HASH(a) < {HI}) OR a < 5",
    # a raising conjunct beside absorbed ones: a zero in the range raises,
    # a zero outside it does not; with two raisers the same one comes first
    f"SELECT a FROM h WHERE HASH(a) >= {ERR_LO} AND HASH(a) < {ERR_HI} AND 1 / b > 0",
    f"SELECT a FROM h WHERE 1 / b > 0 AND HASH(a) >= {ERR_LO} AND HASH(a) < {ERR_HI}",
    f"SELECT a FROM h WHERE HASH(a) >= {OK_LO} AND HASH(a) < {OK_HI} AND 1 / b > 0",
    f"SELECT a FROM h WHERE 10 % c > 0 AND HASH(a) >= {ERR_LO} "
    f"AND HASH(a) < {ERR_HI} AND 1 / b > 0",
    f"SELECT a FROM h WHERE HASH(a) >= {ERR_LO} AND b > 'x' AND HASH(a) < {ERR_HI}",
    f"SELECT a FROM h WHERE HASH(a) >= {LO} AND missing > 1 AND HASH(a) < {HI}",
    # HASH over something other than exactly the segmentation columns
    f"SELECT a FROM h WHERE HASH(b) >= 1000000000 AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE HASH(a, b) < {HI}",
    f"SELECT a FROM h WHERE HASH(h.a) >= {LO} AND HASH(h.a) < {HI}",
    f"SELECT a FROM h t WHERE HASH(t.a) >= {LO} AND HASH(a) < {HI}",
    f"SELECT a FROM h WHERE HASH(a + 0) >= {LO} AND HASH(a) < {HI}",
    f"SELECT a, b FROM h2 WHERE HASH(a, b) >= {LO} AND HASH(a, b) < {HI}",
    f"SELECT a, b FROM h2 WHERE HASH(b, a) >= {LO} AND HASH(b, a) < {HI}",
    f"SELECT a, b FROM h2 WHERE HASH(a) >= {LO} AND HASH(a, b) < {HI}",
    # relations whose rows the scan does not filter by a stored hash
    f"SELECT a, b FROM hu WHERE HASH(a) >= {LO} AND HASH(a) < {HI}",
    f"SELECT a, b FROM hu WHERE SYNTHETIC_HASH() >= {LO} AND SYNTHETIC_HASH() < {HI}",
    f"SELECT a, b FROM hv WHERE SYNTHETIC_HASH() >= {LO} AND SYNTHETIC_HASH() < {HI}",
    f"SELECT b, COUNT(*) FROM hv WHERE SYNTHETIC_HASH() >= 0 "
    f"AND SYNTHETIC_HASH() < {HI} GROUP BY b",
    f"SELECT a FROM hv WHERE HASH(a) >= {LO} AND HASH(a) < {HI}",
    f"SELECT a, SYNTHETIC_HASH() FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI}",
]

HASH_JOINS = [
    # the FROM table's range prunes its scan; the conjuncts stay above the join
    f"SELECT a, x FROM h JOIN hd ON a = k WHERE HASH(a) >= {LO} AND HASH(a) < {HI}",
    f"SELECT h.a, d.x FROM h JOIN hd d ON h.a = d.k "
    f"WHERE HASH(a) >= {LO} AND HASH(a) < {HI} AND b > 2",
    f"SELECT x, a FROM hd JOIN h ON a = k WHERE HASH(k) >= {LO} AND HASH(a) < {HI}",
]


def _plan(db, sql):
    return optimize(bind_select(db, parse_statement(sql)), db)


def _scan_of(plan):
    (scan,) = [n for n in plan.nodes() if isinstance(n, logical.TableScan)]
    return scan


class TestAbsorbedHashRange:
    @pytest.mark.parametrize("sql", HASH_MATRIX)
    def test_hash_statement(self, hash_db, sql):
        assert_identical(hash_db, sql)
        assert_identical(hash_db, sql, initiator=hash_db.node_names[2])

    @pytest.mark.parametrize("sql", HASH_JOINS)
    def test_join_under_a_ranged_from_scan(self, hash_db, sql):
        assert_identical(hash_db, sql)

    def test_a_folded_bound_is_still_checked(self, hash_db):
        """``2000000000 + 1`` becomes a literal only in the folded copy; the
        range was read off the pristine WHERE and never saw it.  Deciding
        "absorbed" on the folded predicate returns 136 of the 200 rows."""
        with hash_db.connect() as session:
            folded = session.execute(
                f"SELECT a FROM h WHERE HASH(a) >= 2000000000 + 1 AND HASH(a) < {HI}"
            )
            plain = session.execute(
                f"SELECT a FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI}"
            )
        expected = [
            (i,) for i in range(HASH_ROWS) if LO <= vertica_hash(i) < HI
        ]
        assert len(expected) == 50
        assert sorted(folded.rows) == sorted(plain.rows) == expected

    def test_what_lands_on_the_scan(self, hash_db):
        """Absorbed conjuncts leave the predicate (and the segmentation
        column the scan's columns); look-alikes stay, as parsed."""
        scan = _scan_of(_plan(
            hash_db, f"SELECT b FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI}"
        ))
        assert scan.predicate is None and scan.columns == ["B"]
        assert (scan.hash_range.lo, scan.hash_range.hi) == (LO, HI)
        scan = _scan_of(_plan(
            hash_db,
            f"SELECT b FROM h WHERE HASH(a) >= {LO} AND c > 2 AND {HI} > HASH(a)",
        ))
        assert scan.predicate.sql() == "(C > 2)" and scan.columns == ["B", "C"]
        for residual in (
            f"HASH(A) >= ({LO} + 0)", "HASH(A) >= 2000000000.0", "HASH(A) >= B",
            f"HASH(A) <> {LO}", f"HASH(H.A) >= {LO}", f"HASH(B, A) >= {LO}",
            f"HASH(A) BETWEEN {LO} AND B", f"(HASH(A) >= {LO} OR A < 5)",
        ):
            scan = _scan_of(_plan(
                hash_db, f"SELECT b FROM h WHERE {residual} AND HASH(a) < {HI}"
            ))
            kept = [c.sql() for c in split_and(scan.predicate)]
            assert len(kept) == 1 and f"< {HI}" not in kept[0], residual
            assert "A" in scan.columns

    def test_unsegmented_and_joined_scans_keep_their_predicate(self, hash_db):
        scan = _scan_of(_plan(
            hash_db, f"SELECT b FROM hu WHERE HASH(a) >= {LO} AND HASH(a) < {HI}"
        ))
        assert len(split_and(scan.predicate)) == 2
        plan = _plan(hash_db, HASH_JOINS[0])
        (above,) = [n for n in plan.nodes() if isinstance(n, logical.Filter)]
        assert len(split_and(above.predicate)) == 2
        assert all(
            n.predicate is None for n in plan.nodes()
            if isinstance(n, logical.TableScan)
        )

    def test_at_epoch_with_deleted_rows(self):
        db = VerticaDatabase(num_nodes=4)
        session = db.connect()
        _hash_tables(session)
        before = db.epochs.current
        session.execute("DELETE FROM h WHERE a % 3 = 0")
        session.execute("UPDATE h SET b = b + 1 WHERE a % 5 = 1")
        for epoch in (before, db.epochs.current):
            for sql in (
                f"SELECT a, b FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI}",
                f"SELECT COUNT(*) FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI} "
                "AND b > 2",
            ):
                assert_identical(db, f"AT EPOCH {epoch} {sql}")

    def test_read_your_writes_in_and_out_of_range(self, hash_db):
        inside = next(i for i in range(1000, 2000) if LO <= vertica_hash(i) < HI)
        outside = next(i for i in range(1000, 2000) if vertica_hash(i) < LO)
        txn = hash_db.begin()
        hash_db.engine.insert_rows(
            "H", [[inside, outside], [1, 1], [0, 0]], txn
        )
        initiator = hash_db.node_names[0]
        try:
            for sql in (
                f"SELECT a, b FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI}",
                f"SELECT a FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI} AND b = 1",
            ):
                statement = parse_statement(sql)
                want = LegacyInterpreter(hash_db).select(statement, txn, initiator)
                got = hash_db.engine.select(statement, txn, initiator)
                assert got.rows == want.rows
                assert (inside,) in [row[:1] for row in got.rows]
                assert (outside,) not in [row[:1] for row in got.rows]
                for field in ORACLE_COST_FIELDS:
                    assert getattr(got.cost, field) == getattr(want.cost, field)
        finally:
            txn.abort()

    def test_failover_reads_the_buddys_replica_containers(self):
        db = VerticaDatabase(num_nodes=4, k_safety=1)
        _hash_tables(db.connect())
        db.fail_node(db.node_names[1])
        for segment in db.catalog.table("h").ring.segments:
            assert_identical(
                db,
                f"SELECT a, b FROM h WHERE HASH(a) >= {segment.lo} "
                f"AND HASH(a) < {segment.hi}",
                initiator=db.node_names[0],
            )

    @pytest.mark.parametrize("k_safety", [0, 1])
    def test_dml_scans_are_untouched(self, k_safety):
        """UPDATE / DELETE still visit (and charge) every copy's rows and
        evaluate the whole WHERE: no range, no dropped conjunct."""
        db = VerticaDatabase(num_nodes=4, k_safety=k_safety)
        session = db.connect()
        _hash_tables(session)
        where = parse_statement(
            f"SELECT a FROM h WHERE HASH(a) >= {LO} AND HASH(a) < {HI}"
        ).where
        plan = optimize(bind_dml_scan(db, "H", where), db)
        assert plan.root.hash_range is None and plan.root.predicate is where
        matching = sum(LO <= vertica_hash(i) < HI for i in range(HASH_ROWS))
        updated = session.execute(
            f"UPDATE h SET b = 99 WHERE HASH(a) >= {LO} AND HASH(a) < {HI}"
        )
        assert updated.rowcount == matching
        assert updated.cost.rows_scanned == HASH_ROWS
        deleted = session.execute(f"DELETE FROM h WHERE HASH(a) < {LO}")
        assert deleted.rowcount == sum(
            vertica_hash(i) < LO for i in range(HASH_ROWS)
        )
        assert deleted.cost.rows_scanned == HASH_ROWS
        assert session.execute(
            "SELECT COUNT(*), SUM(b) FROM h WHERE b = 99"
        ).rows == [(matching, 99 * matching)]
