"""A pushed ``column <op> literal`` is selected on the stored column.

``TableScanOp`` and ``DmlScanOp`` hand such a predicate to ``Engine.scan``
as a row selector, which keeps the matching rows of each slice before any
column is gathered.  Every case here is held to the frozen row-at-a-time
interpreter (rows, their order, every ``ORACLE_COST_FIELDS`` field and the
error) and checks that the selector really ran; the DML cases hold the
staged delete vectors to the predicate applied per batch, the path the
selector replaced.
"""

import pytest

from repro.vertica import VerticaDatabase
from repro.vertica.expr import predicate_holds
from repro.vertica.hashring import vertica_hash
from repro.vertica.plan import physical
from repro.vertica.sql.parser import parse_statement
from tests.reference_interpreter import LegacyInterpreter
from tests.test_plan_differential import (
    ORACLE_COST_FIELDS,
    _plan,
    _scan_of,
    assert_identical,
    outcome,
)

ROWS = 40


@pytest.fixture
def db():
    """``t(k, v, s)`` on four nodes in two committed batches, a NULL ``v``
    and an empty ``e`` beside it."""
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE t (k INTEGER, v FLOAT, s VARCHAR(8)) "
        "SEGMENTED BY HASH(k) ALL NODES"
    )
    session.execute("CREATE TABLE e (k INTEGER, v FLOAT)")
    for start in (0, ROWS // 2):
        session.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k}, {'NULL' if k == 3 else k / 4}, 's{k % 3}')"
            for k in range(start, start + ROWS // 2)
        ))
    return database


def assert_sees_own_writes(session, sql):
    """The session's answer is the oracle's read in the session's own
    transaction (``assert_identical`` reads in a fresh one)."""
    db = session.database
    want = LegacyInterpreter(db).select(
        parse_statement(sql), session._txn, session.node
    )
    got = session.execute(sql)
    assert (got.columns, got.rows) == (want.columns, want.rows), sql
    for field in ORACLE_COST_FIELDS:
        assert getattr(got.cost, field) == getattr(want.cost, field), field


def stored_lists(db, table):
    return {
        id(column)
        for storage in db.storage.values()
        for container in storage.table_containers(table)
        for column in container.columns
    }


class TestAgainstTheOracle:
    @pytest.mark.parametrize("sql", [
        "SELECT k, v FROM t WHERE k = 7",
        "SELECT * FROM t WHERE v >= 2.5",
        "SELECT s, k FROM t WHERE s <> 's1' ORDER BY k DESC",
        "SELECT k FROM t WHERE v < 1.0 LIMIT 2",
        "SELECT a.k, a.v FROM t a WHERE a.k >= 2",
        "SELECT k, v FROM t a WHERE k >= 2",
        "SELECT COUNT(*), SUM(v) FROM t WHERE k > 9",
    ])
    def test_a_selected_scan_is_the_oracles(self, db, selector_reads, sql):
        assert_identical(db, sql)
        assert selector_reads
        # an undeleted container's whole slice: the stored list itself
        assert stored_lists(db, "T") & set(map(id, selector_reads))

    def test_deleted_rows_read_at_epochs_before_and_after(
        self, db, selector_reads
    ):
        session = db.connect()
        before = db.epochs.current
        session.execute("DELETE FROM t WHERE k < 4 OR k = 30")
        after = db.epochs.current
        stored = stored_lists(db, "T")
        hidden = {
            id(column)
            for storage in db.storage.values()
            for container in storage.table_containers("T")
            if any(container.delete_epochs)
            for column in container.columns
        }
        assert hidden and hidden != stored
        for epoch in (before, after):
            for sql in ("SELECT k, v FROM t WHERE k <= 31",
                        "SELECT k, s FROM t WHERE s = 's0'"):
                selector_reads.clear()
                assert_identical(db, f"AT EPOCH {epoch} {sql}")
                read = set(map(id, selector_reads))
                # a slice holding all of its container's rows reads the
                # stored list; one with rows hidden reads a gathered copy
                assert read & (stored - hidden)
                assert bool(read & hidden) == (epoch == before)

    def test_a_v2s_task_selects_what_the_range_left(self, db, selector_reads):
        lo, hi = vertica_hash(5), vertica_hash(5) + 2_000_000_000
        sql = f"SELECT k, v FROM t WHERE HASH(k) >= {lo} AND HASH(k) < {hi} AND k < 25"
        scan = _scan_of(_plan(db, sql))
        assert scan.predicate.sql() == "(K < 25)"
        assert (scan.hash_range.lo, scan.hash_range.hi) == (lo, hi)
        assert_identical(db, sql)
        # the stored hashes narrow each slice first: the selector reads
        # the range's rows only
        in_range = [k for k in range(ROWS) if lo <= vertica_hash(k) < hi]
        assert 0 < len(in_range) < ROWS
        assert sorted(k for values in selector_reads for k in values) == in_range

    def test_read_your_writes(self, db, selector_reads):
        with db.connect() as session:
            session.execute("BEGIN")
            session.execute("INSERT INTO t VALUES (7, 99.0, 'new'), (8, 1.0, 'x')")
            session.execute("DELETE FROM t WHERE k = 8")
            selector_reads.clear()
            assert_sees_own_writes(session, "SELECT k, v, s FROM t WHERE k = 7")
            assert_sees_own_writes(session, "SELECT k, s FROM t WHERE k >= 7")
            assert selector_reads
            rows = session.execute("SELECT k, v, s FROM t WHERE k = 7").rows
            assert sorted(rows) == [(7, 1.75, "s1"), (7, 99.0, "new")]
            session.execute("ROLLBACK")

    @pytest.mark.parametrize("sql,message", [
        ("SELECT k FROM t WHERE v > 'x'", "cannot compare float with str"),
        ("SELECT k FROM t WHERE s < 2", "cannot compare str with int"),
        ("SELECT k FROM t WHERE nosuch = 1", "unknown column 'NOSUCH'"),
        ("SELECT k FROM e WHERE nosuch = 1", None),
        ("SELECT k FROM e WHERE k = 1", None),
    ])
    def test_errors_are_the_oracles(self, db, sql, message):
        assert_identical(db, sql)
        with db.connect() as session:
            got = outcome(lambda: session.execute(sql))
        if message is None:
            assert got[0] == "ok" and got[1].rows == []
        else:
            assert got[1:] == ("SqlError", message)

    def test_a_later_slice_that_raises_hands_over_to_the_evaluator(
        self, selector_reads
    ):
        """The first container's ``v`` is all NULL, so its selection
        compares nothing and keeps nothing; the second one's raises."""
        db = VerticaDatabase(num_nodes=1)
        session = db.connect()
        session.execute("CREATE TABLE n (k INTEGER, v FLOAT)")
        session.execute("INSERT INTO n VALUES (1, NULL), (2, NULL)")
        session.execute("INSERT INTO n VALUES (3, 1.5), (4, NULL)")
        sql = "SELECT k FROM n WHERE v > 'x'"
        assert_identical(db, sql)
        assert len(selector_reads) == 2  # the second raised; no third was asked
        assert outcome(lambda: session.execute(sql))[1:] == (
            "SqlError", "cannot compare float with str"
        )


class TestDml:
    """An UPDATE or DELETE stages the rows the per-batch predicate did."""

    @staticmethod
    def staged(db, sql):
        with db.connect() as session:
            session.execute("BEGIN")
            result = session.execute(sql)
            pairs = [
                (id(container), row_id)
                for container, row_id in session._txn.deletes
            ]
            session.execute("ROLLBACK")
        return result.rowcount, pairs

    @pytest.mark.parametrize("statement,table,where", [
        ("DELETE FROM t", "T", "k = 2"),
        ("UPDATE t SET v = v + 1", "T", "k = 2"),
        ("DELETE FROM t", "T", "s >= 's1'"),
        ("UPDATE u SET v = 0.0", "U", "k = 2"),
        ("DELETE FROM u", "U", "v <> 0.5"),
    ])
    def test_staged_pairs_are_the_predicates(
        self, db, selector_reads, monkeypatch, statement, table, where
    ):
        session = db.connect()
        session.execute("CREATE TABLE u (k INTEGER, v FLOAT) UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO u VALUES (1, 0.5), (2, 1.5), (2, NULL)")
        session.execute("DELETE FROM t WHERE k = 11")  # a container with deletes
        sql = f"{statement} WHERE {where}"
        count, pairs = self.staged(db, sql)
        assert selector_reads and pairs
        # the same statement filtering each slice's batch, as before
        monkeypatch.setattr(physical, "column_selector_of", lambda predicate: None)
        assert self.staged(db, sql) == (count, pairs)
        # and by brute force: every visible stored row the predicate holds on
        scan = _scan_of(_plan(db, f"SELECT * FROM {table} WHERE {where}"))
        predicate = scan.predicate
        snapshot, brute = db.epochs.current, []
        for node in db.node_names:
            for container in db.storage[node].table_containers(table):
                for row_id in container.visible(snapshot):
                    row = {
                        name: column[row_id]
                        for name, column in zip(container.column_names,
                                                container.columns)
                    }
                    if predicate_holds(predicate, row):
                        brute.append((id(container), row_id))
        assert sorted(pairs) == sorted(brute)


class TestProfile:
    @pytest.fixture(scope="class")
    def big(self):
        db = VerticaDatabase(num_nodes=4)
        session = db.connect()
        session.execute(
            "CREATE TABLE big (id INTEGER, grp INTEGER, v FLOAT, name VARCHAR(8)) "
            "SEGMENTED BY HASH(id) ALL NODES"
        )
        for start in range(0, 20_000, 5_000):
            session.execute("INSERT INTO big VALUES " + ", ".join(
                f"({i}, {i % 37}, {i % 101}.5, 'n{i % 50}')"
                for i in range(start, start + 5_000)
            ))
        return db

    def test_scan_rows_in_counts_before_the_predicate(self, big):
        report = big.connect().execute(
            "PROFILE SELECT id, grp, v, name FROM BIG WHERE id = 777"
        )
        (scan,) = [line for line in map(lambda r: r[0], report.rows)
                   if line.lstrip().startswith("SCAN BIG")]
        assert "(rows in: 20000, rows out: 1," in scan
        assert report.query_result.rows == [(777, 777 % 37, 777 % 101 + 0.5, "n27")]
