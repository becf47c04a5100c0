"""One cost ledger: each operator charges a CostReport of its own, and a
statement's report is their sum.

Per query of the differential matrices (plus views over a join, reordered
stars, LIMIT and GROUP BY): the operators' reports add up to the
statement's — every ``COST_COUNTERS`` total, every per-node map and its
key order — and the numbers PROFILE prints per operator add up to its
``COST:`` line.  The shuffle, which the frozen oracle never modelled, is
held to an independent count from storage: a hash join copies each build
row to every other node holding probe rows, and a co-located one copies
nothing.
"""

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica import VerticaDatabase
from repro.vertica.engine import COST_COUNTERS
from tests.test_adaptive_execution import STAR_MATRIX, make_star_db
from tests.test_plan_differential import JOIN_MATRIX, MATRIX, join_db, outcome
from tests.test_plan_differential import db  # noqa: F401 - fixture

#: PROFILE's label of each total: ``rows_scanned`` prints ``rows scanned``
LABELS = [total.replace("_", " ") for total, __ in COST_COUNTERS]
PRINTED = re.compile("(" + "|".join(LABELS) + r"): (\d+)")


def reconcile(session, sql):
    """Check both sums for ``PROFILE sql``; False when the query raised."""
    run = outcome(lambda: session.execute(f"PROFILE {sql}"))
    if run[0] == "err":
        return False  # a failed statement reports no cost
    report = run[1]
    statement = report.cost
    operators = report.profile.execution.post_order()
    for total, per_node in COST_COUNTERS:
        assert sum(getattr(op.cost, total) for op in operators) == getattr(
            statement, total
        ), f"{sql}: {total}"
        nodes = {}
        for op in operators:
            for node, amount in getattr(op.cost, per_node).items():
                nodes[node] = nodes.get(node, 0) + amount
        assert list(nodes.items()) == list(getattr(statement, per_node).items()), (
            f"{sql}: {per_node}"
        )
        assert sum(nodes.values()) == getattr(statement, total), f"{sql}: {total}"
    lines = [row[0] for row in report.rows]
    printed = Counter()
    for line in lines[: len(operators)]:
        for label, number in PRINTED.findall(line):
            printed[label] += int(number)
    assert lines[-1].startswith("COST: ")
    assert PRINTED.findall(lines[-1]) == [
        (label, str(printed[label])) for label in LABELS
    ], sql
    return True


def answers(session, sql):
    """Whether the plain SELECT runs: PROFILE must, exactly when it does."""
    return outcome(lambda: session.execute(sql))[0] == "ok"


class TestOneLedger:
    @pytest.mark.parametrize("sql", MATRIX)
    def test_matrix(self, db, sql):
        session = db.connect()
        assert reconcile(session, sql) == answers(session, sql)

    @pytest.mark.parametrize("sql", JOIN_MATRIX)
    def test_join_matrix(self, join_db, sql):
        session = join_db.connect()
        assert reconcile(session, sql) == answers(session, sql)

    @pytest.mark.parametrize("sql", STAR_MATRIX)
    def test_reordered_star(self, sql):
        session = make_star_db().connect()
        assert reconcile(session, sql)
        assert reconcile(session, sql + " LIMIT 2")

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM jv",
        "SELECT z, COUNT(*) FROM jv GROUP BY z ORDER BY z",
        "SELECT a FROM jv ORDER BY a DESC LIMIT 3",
        "SELECT b, z FROM jv JOIN t ON jv.a = t.a",
        "SELECT * FROM jv2",
    ])
    def test_views_over_joins(self, view_db, sql):
        assert reconcile(view_db.connect(), sql)


@pytest.fixture(scope="module")
def view_db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE t (a INTEGER, b INTEGER) SEGMENTED BY HASH(a) ALL NODES"
    )
    session.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(40))
    )
    session.execute(
        "CREATE TABLE u (a2 INTEGER, z INTEGER) SEGMENTED BY HASH(z) ALL NODES"
    )
    session.execute(
        "INSERT INTO u VALUES " + ", ".join(f"({i}, {100 - i})" for i in range(10))
    )
    session.execute("CREATE VIEW jv AS SELECT a, z FROM t JOIN u ON a = a2")
    # a view over a view over a join
    session.execute("CREATE VIEW jv2 AS SELECT z, COUNT(*) AS n FROM jv GROUP BY z")
    return database


# ------------------------------------------------- shuffle, counted apart
def stored_nodes(db, table):
    """The node holding each committed row of ``table``, read from storage."""
    epoch = db.epochs.current
    return [
        node
        for node in db.node_names
        for __ in range(db.storage[node].live_row_count(table, epoch))
    ]


join_rows = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 30)), max_size=12)


@settings(max_examples=30, deadline=None)
@given(
    num_nodes=st.integers(1, 4),
    left=join_rows,
    right=join_rows,
    left_on_key=st.booleans(),
    right_on_key=st.booleans(),
)
def test_shuffle_is_the_build_sides_broadcast(
    num_nodes, left, right, left_on_key, right_on_key
):
    db = VerticaDatabase(num_nodes=num_nodes)
    session = db.connect()
    for name, on_key, rows in (("l", left_on_key, left), ("r", right_on_key, right)):
        segment = f"{name}k" if on_key else f"{name}v"
        session.execute(
            f"CREATE TABLE {name} ({name}k INTEGER, {name}v INTEGER) "
            f"SEGMENTED BY HASH({segment}) ALL NODES"
        )
        if rows:
            session.execute(
                f"INSERT INTO {name} VALUES "
                + ", ".join(f"({k}, {v})" for k, v in rows)
            )
    report = session.execute("PROFILE SELECT lv, rv FROM l JOIN r ON lk = rk")
    (join_line,) = [row[0] for row in report.rows if "build: " in row[0]]
    colocated = left_on_key and right_on_key  # same ring, keys = segmentation
    assert ("co-located" in join_line) == colocated
    build = re.search(r"build: (left|right)", join_line).group(1)
    sides = {"left": stored_nodes(db, "L"), "right": stored_nodes(db, "R")}
    probe_nodes = set(sides["right" if build == "left" else "left"])
    expected = 0 if colocated else sum(
        len(probe_nodes - {node}) for node in sides[build]
    )
    cost = report.cost
    assert cost.rows_shuffled == expected
    assert sum(cost.node_rows_shuffled.values()) == expected
    assert set(cost.node_rows_shuffled) <= set(sides[build])
