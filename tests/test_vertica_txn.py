"""Tests for transactions, locking, epochs and session semantics —
the ACID machinery the connector's exactly-once guarantee rests on."""

import pytest

from repro.vertica import VerticaDatabase
from repro.vertica.errors import (
    CatalogError,
    ConnectionLimitError,
    LockContention,
    TransactionError,
    TypeMismatchError,
)
from tests.udx_adapter import per_row


@pytest.fixture
def db():
    return VerticaDatabase(num_nodes=4)


@pytest.fixture
def session(db):
    s = db.connect()
    s.execute("CREATE TABLE t (a INTEGER, b VARCHAR(20))")
    return s


class TestAutocommit:
    def test_each_statement_commits(self, session, db):
        session.execute("INSERT INTO t VALUES (1, 'x')")
        other = db.connect(db.node_names[1])
        assert other.scalar("SELECT COUNT(*) FROM t") == 1

    def test_failed_statement_rolls_back(self, session):
        from repro.vertica.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            session.execute("INSERT INTO t VALUES (1, 'ok'), ('bad', 2)")
        assert session.scalar("SELECT COUNT(*) FROM t") == 0

    def test_a_raising_udx_ends_the_statement_transaction(self, session, db):
        # A UDx is foreign code: its own exception, not a VerticaError,
        # reaches the caller — and must not leave the autocommit
        # transaction (and its pinned snapshot) open for the next SELECT.
        def broken(args, params):
            raise RuntimeError("udx failed")

        db.udx.register("broken", per_row(broken))
        session.execute("INSERT INTO t VALUES (1, 'x')")
        with pytest.raises(RuntimeError, match="udx failed"):
            session.execute("SELECT BROKEN(a USING PARAMETERS p=1) FROM t")
        db.connect(db.node_names[1]).execute("INSERT INTO t VALUES (2, 'y')")
        assert session.scalar("SELECT COUNT(*) FROM t") == 2


class TestExplicitTransactions:
    def test_uncommitted_invisible_to_others(self, session, db):
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        other = db.connect(db.node_names[1])
        assert other.scalar("SELECT COUNT(*) FROM t") == 0
        session.execute("COMMIT")
        assert other.scalar("SELECT COUNT(*) FROM t") == 1

    def test_read_your_writes(self, session):
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        assert session.scalar("SELECT COUNT(*) FROM t") == 1
        session.execute("ROLLBACK")
        assert session.scalar("SELECT COUNT(*) FROM t") == 0

    def test_rollback_discards_updates(self, session):
        session.execute("INSERT INTO t VALUES (1, 'x')")
        session.execute("BEGIN")
        session.execute("UPDATE t SET b = 'y' WHERE a = 1")
        session.execute("ROLLBACK")
        assert session.scalar("SELECT b FROM t WHERE a = 1") == "x"

    def test_commit_is_atomic_multi_statement(self, session, db):
        other = db.connect(db.node_names[1])
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        session.execute("INSERT INTO t VALUES (2, 'y')")
        assert other.scalar("SELECT COUNT(*) FROM t") == 0
        session.execute("COMMIT")
        assert other.scalar("SELECT COUNT(*) FROM t") == 2

    def test_nested_begin_rejected(self, session):
        session.execute("BEGIN")
        with pytest.raises(TransactionError):
            session.execute("BEGIN")

    def test_commit_without_begin_is_noop(self, session):
        session.execute("COMMIT")  # must not raise

    def test_ddl_commits_open_transaction(self, session, db):
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        session.execute("CREATE TABLE t2 (a INTEGER)")  # DDL auto-commits
        other = db.connect(db.node_names[1])
        assert other.scalar("SELECT COUNT(*) FROM t") == 1

    def test_repeatable_reads_within_txn(self, session, db):
        session.execute("INSERT INTO t VALUES (1, 'x')")
        session.execute("BEGIN")
        assert session.scalar("SELECT COUNT(*) FROM t") == 1
        writer = db.connect(db.node_names[1])
        writer.execute("INSERT INTO t VALUES (2, 'y')")
        # Snapshot was pinned at first read.
        assert session.scalar("SELECT COUNT(*) FROM t") == 1
        session.execute("COMMIT")
        assert session.scalar("SELECT COUNT(*) FROM t") == 2


LAYOUTS = ["SEGMENTED BY HASH(a) ALL NODES", "UNSEGMENTED ALL NODES"]


@pytest.mark.parametrize("layout", LAYOUTS)
class TestStatementAtomicity:
    """Inside BEGIN, a statement whose k-th row fails coercion stages
    nothing: every row is coerced before the first one reaches the WOS
    (row-at-a-time staging used to leave rows 1..k-1 behind, visible to
    the transaction and made durable by its COMMIT)."""

    @pytest.fixture
    def open_txn(self, layout):
        session = VerticaDatabase(num_nodes=2).connect()
        session.execute(f"CREATE TABLE t (a INTEGER, b INTEGER) {layout}")
        session.execute(f"CREATE TABLE src (a INTEGER, b FLOAT) {layout}")
        session.execute("INSERT INTO src VALUES (1, 1.0), (2, 2.0), (3, 3.5)")
        session.execute("BEGIN")
        return session

    def assert_table(self, session, expected):
        query = "SELECT a, b FROM t ORDER BY a"
        assert session.execute(query).rows == expected  # read-your-writes
        session.execute("COMMIT")
        assert session.execute(query).rows == expected

    def test_insert_values(self, open_txn):
        with pytest.raises(TypeMismatchError):
            open_txn.execute("INSERT INTO t VALUES (1, 1), (2, 'x')")
        self.assert_table(open_txn, [])

    def test_insert_select(self, open_txn):
        # b = 1.0 and 2.0 are INTEGERs, 3.5 is not
        with pytest.raises(TypeMismatchError):
            open_txn.execute("INSERT INTO t SELECT a, b FROM src ORDER BY a")
        self.assert_table(open_txn, [])

    def test_update(self, open_txn):
        """A failed UPDATE leaves the old versions too: their delete
        vectors are staged only once the new versions are."""
        open_txn.execute("INSERT INTO t VALUES (2, 0), (3, 0), (4, 0), (6, 0)")
        open_txn.execute("COMMIT")
        open_txn.execute("BEGIN")
        with pytest.raises(TypeMismatchError):
            open_txn.execute("UPDATE t SET b = a * 0.5")  # 1.5 for a = 3
        self.assert_table(open_txn, [(2, 0), (3, 0), (4, 0), (6, 0)])


class TestLocking:
    def test_parallel_inserts_do_not_conflict(self, session, db):
        # Insert locks are shared: parallel COPY/INSERT transactions append
        # independent ROS containers (this is what parallel S2V relies on).
        other = db.connect(db.node_names[1])
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        other.execute("BEGIN")
        other.execute("INSERT INTO t VALUES (2, 'y')")
        session.execute("COMMIT")
        other.execute("COMMIT")
        assert session.scalar("SELECT COUNT(*) FROM t") == 2

    def test_updater_conflicts_with_inserter(self, session, db):
        other = db.connect(db.node_names[1])
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        with pytest.raises(LockContention):
            other.execute("UPDATE t SET b = 'z'")
        session.execute("COMMIT")
        other.execute("UPDATE t SET b = 'z'")  # lock released

    def test_updaters_conflict(self, session, db):
        session.execute("INSERT INTO t VALUES (1, 'x')")
        other = db.connect(db.node_names[1])
        session.execute("BEGIN")
        session.execute("UPDATE t SET b = 'y'")
        with pytest.raises(LockContention):
            other.execute("UPDATE t SET b = 'z'")
        session.execute("ROLLBACK")

    def test_readers_never_block(self, session, db):
        other = db.connect(db.node_names[1])
        session.execute("BEGIN")
        session.execute("UPDATE t SET b = 'z'")
        assert other.scalar("SELECT COUNT(*) FROM t") == 0  # MVCC read ok
        session.execute("ROLLBACK")

    def test_conditional_update_race(self, session, db):
        """The S2V leader election: exactly one conditional update wins."""
        session.execute("CREATE TABLE last_committer (task_id INTEGER)")
        session.execute("INSERT INTO last_committer VALUES (NULL)")
        s1 = db.connect(db.node_names[0])
        s2 = db.connect(db.node_names[1])
        r1 = s1.execute("UPDATE last_committer SET task_id = 1 WHERE task_id IS NULL")
        r2 = s2.execute("UPDATE last_committer SET task_id = 2 WHERE task_id IS NULL")
        assert (r1.rowcount, r2.rowcount) == (1, 0)
        assert session.scalar("SELECT task_id FROM last_committer") == 1

    def test_drop_of_locked_table_fails(self, session, db):
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        other = db.connect(db.node_names[1])
        with pytest.raises(LockContention):
            other.execute("DROP TABLE t")
        session.execute("COMMIT")

    def test_rename_of_locked_table_fails(self, session, db):
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        other = db.connect(db.node_names[1])
        with pytest.raises(LockContention):
            other.execute("ALTER TABLE t RENAME TO t9")
        session.execute("ROLLBACK")


class TestAtomicRename:
    def test_overwrite_pattern(self, session, db):
        """S2V overwrite mode: staging table atomically renamed to target."""
        session.execute("INSERT INTO t VALUES (1, 'old')")
        session.execute("CREATE TABLE staging (a INTEGER, b VARCHAR(20))")
        session.execute("INSERT INTO staging VALUES (2, 'new')")
        session.execute("DROP TABLE t")
        session.execute("ALTER TABLE staging RENAME TO t")
        result = session.execute("SELECT * FROM t")
        assert result.rows == [(2, "new")]

    def test_rename_to_existing_fails(self, session):
        from repro.vertica.errors import CatalogError

        session.execute("CREATE TABLE t2 (a INTEGER)")
        with pytest.raises(CatalogError):
            session.execute("ALTER TABLE t2 RENAME TO t")


class TestConnections:
    def test_connection_limit(self):
        db = VerticaDatabase(num_nodes=1, max_client_sessions=2)
        s1 = db.connect()
        s2 = db.connect()
        with pytest.raises(ConnectionLimitError):
            db.connect()
        s1.close()
        db.connect()  # slot freed

    def test_unknown_resource_pool_frees_its_slot(self):
        db = VerticaDatabase(num_nodes=1, max_client_sessions=2)
        for __ in range(3):
            with pytest.raises(CatalogError):
                db.connect(resource_pool="nosuchpool")
        assert db.session_count(db.node_names[0]) == 0
        db.connect()
        db.connect()

    def test_close_aborts_open_transaction(self, db):
        s = db.connect()
        s.execute("CREATE TABLE t (a INTEGER)")
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1)")
        s.close()
        other = db.connect()
        assert other.scalar("SELECT COUNT(*) FROM t") == 0

    def test_closed_session_rejects_statements(self, db):
        s = db.connect()
        s.close()
        with pytest.raises(TransactionError):
            s.execute("SELECT 1")

    def test_context_manager(self, db):
        with db.connect() as s:
            s.execute("SELECT 1")
        assert db.session_count(db.node_names[0]) == 0

    def test_connect_to_down_node_fails(self, db):
        from repro.vertica.errors import CatalogError

        db.fail_node(db.node_names[1])
        with pytest.raises(CatalogError):
            db.connect(db.node_names[1])


class TestKSafety:
    def test_replica_serves_reads_after_node_failure(self):
        db = VerticaDatabase(num_nodes=4, k_safety=1)
        s = db.connect()
        s.execute("CREATE TABLE t (a INTEGER) SEGMENTED BY HASH(a) ALL NODES")
        values = ", ".join(f"({i})" for i in range(100))
        s.execute(f"INSERT INTO t VALUES {values}")
        assert s.scalar("SELECT COUNT(*) FROM t") == 100
        db.fail_node(db.node_names[2])
        survivor = db.connect(db.node_names[0])
        assert survivor.scalar("SELECT COUNT(*) FROM t") == 100

    def test_no_replica_without_k_safety(self):
        db = VerticaDatabase(num_nodes=4, k_safety=0)
        s = db.connect()
        s.execute("CREATE TABLE t (a INTEGER) SEGMENTED BY HASH(a) ALL NODES")
        s.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8)")
        db.fail_node(db.node_names[2])
        from repro.vertica.errors import CatalogError

        with pytest.raises(CatalogError):
            db.connect(db.node_names[0]).scalar("SELECT COUNT(*) FROM t")

    def test_k_safety_requires_two_nodes(self):
        from repro.vertica.errors import CatalogError

        with pytest.raises(CatalogError):
            VerticaDatabase(num_nodes=1, k_safety=1)
