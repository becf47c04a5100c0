"""Tests for join reordering and the observed build side.

Two layers, matching the two decisions a multi-way equi-join makes:

- **Reordering** — the optimizer re-sequences multi-way equi-join
  chains by estimated cardinality.  The differential matrix proves the
  answer (rows, order, per-node cost attribution) stays byte-identical
  to the legacy oracle for 3–5-way joins, with stale and with fresh
  statistics.
- **The build side** — no plan decision: a hash join has both inputs in
  hand before it builds, and builds on the one holding fewer rows
  (ties build right).  PROFILE prints the side; a hypothesis test over
  stale and fresh star schemas holds every hash join to the rule and
  every answer to the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica import VerticaDatabase
from repro.vertica.errors import SqlError
from repro.vertica.plan import physical
from repro.vertica.plan.optimizer import RULE_JOIN_REORDER
from repro.vertica.settings import SETTINGS
from tests.test_plan_differential import (
    STRATEGIES,
    assert_identical,
    assert_matches_oracle,
)


def plan_text(session, sql):
    return "\n".join(r[0] for r in session.execute(sql).rows)


# --------------------------------------------------------------- star schema
def make_star_db(fact_rows=60, stale=True, analyzed_rows=12):
    """A 4-dim star with (optionally) deliberately stale fact statistics.

    Every plain column name is globally unique so reordering's
    name-resolution guard accepts the chain.  With ``stale`` the fact is
    ANALYZEd at ``analyzed_rows`` and then grown to ``fact_rows`` —
    estimates lag reality by the growth factor.
    """
    db = VerticaDatabase(num_nodes=4)
    session = db.connect()
    session.execute(
        "CREATE TABLE f (ka INTEGER, kb INTEGER, kc INTEGER, kd INTEGER, "
        "v FLOAT) SEGMENTED BY HASH(ka) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dima (a_id INTEGER, a_val INTEGER) "
        "SEGMENTED BY HASH(a_id) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dimb (b_id INTEGER, b_val INTEGER) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "CREATE TABLE dimc (c_id INTEGER, c_val INTEGER) "
        "SEGMENTED BY HASH(c_id) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dimd (d_id INTEGER, d_val INTEGER) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "INSERT INTO dima VALUES "
        + ", ".join(f"({i}, {i * 10})" for i in range(6))
    )
    session.execute(
        "INSERT INTO dimb VALUES "
        + ", ".join(f"({i}, {i * 7})" for i in range(4))
    )
    session.execute(
        "INSERT INTO dimc VALUES " + ", ".join(f"({i}, {i + 100})" for i in range(3))
    )
    # dimd is deliberately selective: only two of five kd values match.
    session.execute("INSERT INTO dimd VALUES (0, 1), (1, 2)")

    def fact_values(start, stop):
        return ", ".join(
            f"({i % 6}, {i % 4}, {i % 3}, {i % 5}, {i}.5)"
            for i in range(start, stop)
        )

    first = min(analyzed_rows, fact_rows)
    session.execute("INSERT INTO f VALUES " + fact_values(0, first))
    for name in ("f", "dima", "dimb", "dimc", "dimd"):
        session.execute(f"ANALYZE {name}")
    if fact_rows > first:
        session.execute("INSERT INTO f VALUES " + fact_values(first, fact_rows))
        if not stale:
            session.execute("ANALYZE f")
    return db


@pytest.fixture(scope="module")
def star_db():
    return make_star_db()


THREE_WAY = (
    "SELECT v, a_val, b_val FROM f JOIN dima ON ka = a_id "
    "JOIN dimb ON kb = b_id"
)
FOUR_WAY = THREE_WAY + " JOIN dimc ON kc = c_id"
FIVE_WAY = FOUR_WAY + " JOIN dimd ON kd = d_id"
#: the same chain with no equi key: four nested loops in binder order
FIVE_WAY_NO_KEYS = FIVE_WAY.replace("_id", "_id + 0")

STAR_MATRIX = [
    THREE_WAY,
    FOUR_WAY,
    FIVE_WAY,
    FIVE_WAY + " WHERE b_val > 2",
    "SELECT a_val, COUNT(*) FROM f JOIN dima ON ka = a_id "
    "JOIN dimd ON kd = d_id GROUP BY a_val ORDER BY a_val",
    # selective dim written last in FROM order: reordering moves it first
    "SELECT v, d_val FROM f JOIN dima ON ka = a_id JOIN dimb ON kb = b_id "
    "JOIN dimd ON kd = d_id WHERE d_val > 1",
]


class TestAdaptiveDifferential:
    """Rows/order/cost stay byte-identical through reorder and either build."""

    @pytest.mark.parametrize("sql", STAR_MATRIX)
    def test_star_matrix(self, star_db, sql):
        assert_identical(star_db, sql)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("stale", [False, True])
    def test_five_way_under_strategy_override(self, stale, strategy):
        # stale statistics misorder the estimates; the answer cannot move,
        # neither when every condition loses its equi key (``+ 0``) and
        # the chain runs as nested loops in binder order
        sql = FIVE_WAY if strategy == "auto" else FIVE_WAY_NO_KEYS
        assert_identical(make_star_db(stale=stale), sql)

    def test_fresh_stats_matrix(self):
        assert_identical(make_star_db(stale=False), THREE_WAY)

    def test_duplicate_keys_are_sorted_back_into_binder_order(self):
        # Each fact row meets four dima rows and two dimb rows.  The
        # selective dimb joins first, so the chain emits (f, b, a) row
        # order; the root must re-sort into the binder's (f, a, b).
        db = VerticaDatabase(num_nodes=3)
        session = db.connect()
        session.execute(
            "CREATE TABLE f (ka INTEGER, kb INTEGER, v INTEGER) "
            "SEGMENTED BY HASH(ka) ALL NODES"
        )
        session.execute(
            "CREATE TABLE dima (a_id INTEGER, a_val INTEGER) UNSEGMENTED ALL NODES"
        )
        session.execute(
            "CREATE TABLE dimb (b_id INTEGER, b_val INTEGER) UNSEGMENTED ALL NODES"
        )
        session.execute(
            "INSERT INTO f VALUES "
            + ", ".join(f"({i % 4}, {i % 3}, {i})" for i in range(12))
        )
        session.execute(
            "INSERT INTO dima VALUES "
            + ", ".join(f"({i % 4}, {i})" for i in range(16))
        )
        session.execute(
            "INSERT INTO dimb VALUES "
            + ", ".join(f"({i % 3}, {i})" for i in range(30))
        )
        for table in ("f", "dima", "dimb"):
            session.execute(f"ANALYZE {table}")
        sql = (
            "SELECT v, a_val, b_val FROM f JOIN dima ON ka = a_id "
            "JOIN dimb ON kb = b_id WHERE b_val < 6"
        )
        plan = [row[0] for row in session.execute(f"EXPLAIN {sql}").rows]
        assert any(line.startswith("JOIN ORDER: F x DIMB x DIMA") for line in plan)
        assert_identical(db, sql)


# ----------------------------------------------------------- reordering plan
class TestJoinReorderPlan:
    def test_explain_renders_join_order(self, star_db):
        session = star_db.connect()
        plan = plan_text(session, f"EXPLAIN {FIVE_WAY}")
        assert "JOIN ORDER:" in plan
        assert "(reordered from" in plan
        assert "step 1:" in plan
        assert RULE_JOIN_REORDER in plan

    def test_selective_dim_joins_first(self, star_db):
        # dimd keeps only 2/5 of kd values; a cardinality-greedy order
        # must join it before the wider dima/dimb dims.
        session = star_db.connect()
        plan = plan_text(session, f"EXPLAIN {FIVE_WAY}")
        order_line = next(
            line for line in plan.splitlines() if "JOIN ORDER:" in line
        )
        assert order_line.index("DIMD") < order_line.index("DIMA")

    def test_nested_loop_keeps_binder_order(self, star_db):
        # no condition has an equi key, so every join is a nested loop and
        # no chain order is cheaper than another
        session = star_db.connect()
        plan = plan_text(session, f"EXPLAIN {FIVE_WAY_NO_KEYS}")
        assert plan.count("nested-loop join") == 4
        assert "JOIN ORDER:" not in plan
        assert RULE_JOIN_REORDER not in plan
        assert_identical(star_db, FIVE_WAY_NO_KEYS)

    def test_two_way_join_never_reordered(self, star_db):
        session = star_db.connect()
        plan = plan_text(
            session, "EXPLAIN SELECT v, a_val FROM f JOIN dima ON ka = a_id"
        )
        assert "JOIN ORDER:" not in plan

    def test_colocated_chain_stays_shuffle_free(self):
        # Both sides segmented by their join key: co-location means no
        # shuffle, and reordering must preserve that property.
        db = VerticaDatabase(num_nodes=4)
        session = db.connect()
        session.execute(
            "CREATE TABLE ft (fk INTEGER, fv INTEGER) "
            "SEGMENTED BY HASH(fk) ALL NODES"
        )
        session.execute(
            "CREATE TABLE d1 (k1 INTEGER, x1 INTEGER) "
            "SEGMENTED BY HASH(k1) ALL NODES"
        )
        session.execute(
            "CREATE TABLE d2 (k2 INTEGER, x2 INTEGER) "
            "SEGMENTED BY HASH(k2) ALL NODES"
        )
        session.execute(
            "INSERT INTO ft VALUES " + ", ".join(f"({i % 5}, {i})" for i in range(20))
        )
        session.execute(
            "INSERT INTO d1 VALUES " + ", ".join(f"({i}, {i})" for i in range(5))
        )
        session.execute("INSERT INTO d2 VALUES (0, 0), (1, 1)")
        for name in ("ft", "d1", "d2"):
            session.execute(f"ANALYZE {name}")
        sql = (
            "PROFILE SELECT fv, x1, x2 FROM ft JOIN d1 ON fk = k1 "
            "JOIN d2 ON fk = k2"
        )
        report = plan_text(session, sql)
        assert "JOIN ORDER:" in report
        # The co-located pair joins shuffle-free even after reordering;
        # only the upper join against the (unsegmentable) intermediate
        # result may shuffle, exactly as it would in binder order.
        colocated_line = next(
            line for line in report.splitlines() if "JOIN D2" in line
        )
        assert "co-located" in colocated_line
        assert "rows shuffled" not in colocated_line


# ------------------------------------------------------- observed build side
def make_misestimated_db(analyzed=20, grown=400, dim_rows=30):
    """Fact ANALYZEd small then grown: its estimate says it is the smaller."""
    db = VerticaDatabase(num_nodes=4)
    session = db.connect()
    session.execute(
        "CREATE TABLE fact (fk INTEGER, fv FLOAT) SEGMENTED BY HASH(fk) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dim (dk INTEGER, dv INTEGER) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "INSERT INTO fact VALUES "
        + ", ".join(f"({i % dim_rows}, {i}.0)" for i in range(analyzed))
    )
    session.execute(
        "INSERT INTO dim VALUES "
        + ", ".join(f"({i}, {i * 3})" for i in range(dim_rows))
    )
    session.execute("ANALYZE fact")
    session.execute("ANALYZE dim")
    session.execute(
        "INSERT INTO fact VALUES "
        + ", ".join(f"({i % dim_rows}, {i}.0)" for i in range(analyzed, grown))
    )
    return db


JOIN_SQL = "SELECT fv, dv FROM fact JOIN dim ON fk = dk"
#: the same match with no equi key: the planner nested-loops it
NESTED_SQL = JOIN_SQL + " + 0"


def hash_joins(report):
    """(build side, left input rows, right input rows) per executed hash join."""
    return [
        (op.build_side, op.left.stats.rows_out, op.right.stats.rows_out)
        for __, op in report.profile.operators()
        if isinstance(op, physical.HashJoinOp)
    ]


#: star queries over ``make_star_db``: chains of 2–5 relations, a filter
#: that shrinks an input, a grouped count and a division that may raise
STAR_QUERIES = STAR_MATRIX + [
    "SELECT v, a_val FROM f JOIN dima ON ka = a_id",
    "SELECT a_val, b_val FROM dima JOIN f ON a_id = ka JOIN dimb ON kb = b_id",
    "SELECT v / b_val FROM f JOIN dimb ON kb = b_id JOIN dima ON ka = a_id",
]


class TestObservedBuildSide:
    def test_profile_prints_the_observed_build(self):
        # the stale estimate says the fact (20 rows) is smaller than the
        # dim (30); the join holds 400 fact rows and builds on the dim
        db = make_misestimated_db()
        report = db.connect().execute(f"PROFILE {JOIN_SQL}")
        assert hash_joins(report) == [("right", 400, 30)]
        text = "\n".join(row[0] for row in report.rows)
        assert "[hash join, build: right, keys decide]" in text
        assert "REPLAN" not in text

    def test_rows_match_the_nested_loop_rows(self):
        session = make_misestimated_db().connect()
        frozen = session.execute(NESTED_SQL)
        hashed = session.execute(JOIN_SQL)
        assert hashed.rows == frozen.rows
        assert hashed.columns == frozen.columns

    def test_a_join_without_an_equi_key_builds_nothing(self):
        # The nested loop builds no table, so PROFILE names no build side.
        session = make_misestimated_db().connect()
        report = session.execute(f"PROFILE {NESTED_SQL}")
        text = "\n".join(row[0] for row in report.rows)
        assert "nested-loop join" in text
        assert "build:" not in text
        assert hash_joins(report) == []

    @given(
        fact_rows=st.integers(min_value=1, max_value=40),
        analyzed_rows=st.integers(min_value=1, max_value=40),
        stale=st.booleans(),
        sql=st.sampled_from(STAR_QUERIES),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_star_schemas_answer_like_the_oracle_and_build_the_smaller_side(
        self, fact_rows, analyzed_rows, stale, sql
    ):
        db = make_star_db(fact_rows, stale=stale, analyzed_rows=analyzed_rows)
        with db.connect() as session:
            assert_matches_oracle(session, sql)
            try:
                report = session.execute(f"PROFILE {sql}")
            except SqlError:
                return  # the oracle raised it too, with this message
        joins = hash_joins(report)
        assert joins  # every star join is an equi-join
        for build, left, right in joins:
            assert build == ("left" if left < right else "right"), sql


# ------------------------------------------------------------- SET options
class TestSetOptionValidation:
    @pytest.mark.parametrize(
        "statement, fragments",
        [
            ("SET RESULT_CACHE sideways",
             ["invalid RESULT_CACHE", "SIDEWAYS", "on", "off"]),
            # the planner picks each join's algorithm: there is no hint
            ("SET JOIN_STRATEGY = 'auto'",
             ["unknown session option 'JOIN_STRATEGY' "
              "(expected one of: RESOURCE_POOL, RESULT_CACHE)"]),
            ("SET JOIN_STRATEGY = 'nested-loop'",
             ["unknown session option", "JOIN_STRATEGY", *SETTINGS]),
            # reordering and the observed build side are the only path
            ("SET JOIN_REORDER on",
             ["unknown session option", "JOIN_REORDER", *SETTINGS]),
            ("SET ADAPTIVE_EXECUTION off",
             ["unknown session option", "ADAPTIVE_EXECUTION", *SETTINGS]),
        ],
    )
    def test_invalid_value_names_value_and_choices(self, statement, fragments):
        session = VerticaDatabase(num_nodes=2).connect()
        with pytest.raises(SqlError) as err:
            session.execute(statement)
        for fragment in fragments:
            assert fragment in str(err.value)


# ----------------------------------------------------- randomized stale stats
class TestRandomizedStaleStats:
    @given(
        analyzed=st.integers(min_value=1, max_value=8),
        growth=st.integers(min_value=1, max_value=30),
        dims=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_stale_stats_never_change_answers(self, analyzed, growth, dims):
        db = VerticaDatabase(num_nodes=3)
        session = db.connect()
        session.execute(
            "CREATE TABLE sf (k INTEGER, m INTEGER) "
            "SEGMENTED BY HASH(k) ALL NODES"
        )
        session.execute(
            "CREATE TABLE sd (k2 INTEGER, n INTEGER) UNSEGMENTED ALL NODES"
        )
        session.execute(
            "CREATE TABLE se (k3 INTEGER, p INTEGER) "
            "SEGMENTED BY HASH(k3) ALL NODES"
        )
        session.execute(
            "INSERT INTO sf VALUES "
            + ", ".join(f"({i % 7}, {i})" for i in range(analyzed))
        )
        session.execute(
            "INSERT INTO sd VALUES "
            + ", ".join(f"({i}, {i * 2})" for i in range(dims))
        )
        session.execute(
            "INSERT INTO se VALUES "
            + ", ".join(f"({i}, {i + 9})" for i in range(dims))
        )
        for name in ("sf", "sd", "se"):
            session.execute(f"ANALYZE {name}")
        total = analyzed * growth
        if total > analyzed:
            session.execute(
                "INSERT INTO sf VALUES "
                + ", ".join(f"({i % 7}, {i})" for i in range(analyzed, total))
            )
        sql = "SELECT m, n, p FROM sf JOIN sd ON k = k2 JOIN se ON k = k3"
        assert_identical(db, sql)
