"""Tests for the Tuple Mover: mergeout, purge, and the AHM contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avrolite import encode_rows
from repro.chaos.invariants import stored_hash_violations
from repro.hdfs.columnar import write_columnar
from repro.vertica import VerticaDatabase
from repro.vertica.copyload import avro_schema_for_table
from repro.vertica.errors import TransactionError
from repro.vertica.settings import PlanContext
from repro.vertica.sql.parser import parse_statement
from repro.vertica.tuplemover import storage_container_stats


@pytest.fixture
def db():
    return VerticaDatabase(num_nodes=2)


@pytest.fixture
def session(db):
    s = db.connect()
    s.execute("CREATE TABLE t (a INTEGER, b VARCHAR(20)) SEGMENTED BY HASH(a) ALL NODES")
    return s


def container_count(db, table="T"):
    return sum(
        len(storage.table_containers(table)) for storage in db.storage.values()
    )


def insert_batches(session, count, start=0):
    for i in range(start, start + count):
        session.execute(f"INSERT INTO t VALUES ({i}, 'r{i}')")


class TestMergeout:
    def test_fragmentation_then_mergeout(self, db, session):
        insert_batches(session, 12)  # 12 commits -> many tiny containers
        before = container_count(db)
        assert before >= 12
        db.tuple_mover.advance_ahm()
        merged = db.tuple_mover.mergeout("t")
        assert merged > 0
        after = container_count(db)
        assert after <= len(db.node_names)  # one per node at most
        assert session.scalar("SELECT COUNT(*) FROM t") == 12

    def test_mergeout_preserves_all_data(self, db, session):
        insert_batches(session, 20)
        expected = sorted(session.execute("SELECT * FROM t").rows)
        db.tuple_mover.advance_ahm()
        db.tuple_mover.mergeout()
        assert sorted(session.execute("SELECT * FROM t").rows) == expected

    def test_mergeout_without_ahm_is_noop(self, db, session):
        insert_batches(session, 8)
        # AHM still at 0: nothing is old enough to merge.
        assert db.tuple_mover.mergeout("t") == 0

    def test_containers_above_ahm_stay_separate(self, db, session):
        insert_batches(session, 5)
        db.tuple_mover.advance_ahm()
        insert_batches(session, 5, start=100)  # newer than the AHM
        db.tuple_mover.mergeout("t")
        # Old containers merged; the 5 new ones are untouched.
        assert session.scalar("SELECT COUNT(*) FROM t") == 10
        assert container_count(db) >= 5

    def test_purges_deleted_rows_below_ahm(self, db, session):
        insert_batches(session, 10)
        session.execute("DELETE FROM t WHERE a < 5")
        db.tuple_mover.advance_ahm()
        db.tuple_mover.mergeout("t")
        assert db.tuple_mover.rows_purged == 5
        assert session.scalar("SELECT COUNT(*) FROM t") == 5
        # The purged rows are physically gone.
        physical = sum(
            container.nrows
            for storage in db.storage.values()
            for container in storage.table_containers("T")
        )
        assert physical == 5

    def test_recent_deletes_survive_mergeout(self, db, session):
        insert_batches(session, 6)
        db.tuple_mover.advance_ahm()
        epoch_before_delete = db.epochs.current
        session.execute("DELETE FROM t WHERE a = 0")
        # The delete is newer than the AHM: mergeout must keep the delete
        # vector so the historical epoch still sees the row.
        db.tuple_mover.mergeout("t")
        assert session.scalar("SELECT COUNT(*) FROM t") == 5
        historical = session.scalar(
            f"AT EPOCH {epoch_before_delete} SELECT COUNT(*) FROM t"
        )
        assert historical == 6

    def test_locked_table_skipped(self, db, session):
        insert_batches(session, 6)
        db.tuple_mover.advance_ahm()
        other = db.connect(db.node_names[1])
        other.execute("BEGIN")
        other.execute("UPDATE t SET b = 'x' WHERE a = 1")
        assert db.tuple_mover.mergeout("t") == 0  # skipped while locked
        other.execute("COMMIT")
        assert db.tuple_mover.mergeout("t") > 0


class TestAhm:
    def test_advance_to_current(self, db, session):
        insert_batches(session, 3)
        assert db.tuple_mover.advance_ahm() == db.epochs.current

    def test_cannot_exceed_current_epoch(self, db):
        with pytest.raises(TransactionError):
            db.tuple_mover.advance_ahm(db.epochs.current + 5)

    def test_cannot_move_backwards(self, db, session):
        insert_batches(session, 3)
        db.tuple_mover.advance_ahm()
        with pytest.raises(TransactionError):
            db.tuple_mover.advance_ahm(1)

    def test_queries_below_ahm_rejected(self, db, session):
        insert_batches(session, 5)
        old_epoch = db.epochs.current - 3
        db.tuple_mover.advance_ahm()
        with pytest.raises(TransactionError):
            session.execute(f"AT EPOCH {old_epoch} SELECT COUNT(*) FROM t")

    def test_queries_at_or_above_ahm_allowed(self, db, session):
        insert_batches(session, 5)
        db.tuple_mover.advance_ahm()
        ahm = db.tuple_mover.ahm_epoch
        insert_batches(session, 2, start=50)
        assert session.scalar(f"AT EPOCH {ahm} SELECT COUNT(*) FROM t") == 5


class TestStorageContainersSystemTable:
    def test_stats_via_sql(self, db, session):
        insert_batches(session, 6)
        result = session.execute(
            "SELECT node_name, table_name, container_count, live_rows "
            "FROM v_monitor.storage_containers ORDER BY node_name"
        )
        tables = {row[1] for row in result.rows}
        assert "T" in tables
        assert sum(row[3] for row in result.rows if row[1] == "T") == 6

    def test_stats_shrink_after_mergeout(self, db, session):
        insert_batches(session, 10)
        before = session.execute(
            "SELECT SUM(container_count) FROM v_monitor.storage_containers "
            "WHERE table_name = 'T'"
        ).scalar()
        db.tuple_mover.advance_ahm()
        db.tuple_mover.mergeout("t")
        after = session.execute(
            "SELECT SUM(container_count) FROM v_monitor.storage_containers "
            "WHERE table_name = 'T'"
        ).scalar()
        assert after < before

    def test_helper_matches_sql(self, db, session):
        insert_batches(session, 4)
        stats = storage_container_stats(db)
        total_live = sum(rows for __, table, __, rows in stats if table == "T")
        assert total_live == 4


class TestMergeoutInvariantProperty:
    @given(
        deletes=st.lists(st.integers(min_value=0, max_value=14), max_size=8),
        batches=st.integers(min_value=2, max_value=15),
    )
    @settings(max_examples=25, deadline=None)
    def test_mergeout_never_changes_visible_results(self, deletes, batches):
        db = VerticaDatabase(num_nodes=2)
        session = db.connect()
        session.execute(
            "CREATE TABLE t (a INTEGER, b VARCHAR(20)) "
            "SEGMENTED BY HASH(a) ALL NODES"
        )
        for i in range(batches):
            session.execute(f"INSERT INTO t VALUES ({i}, 'r{i}')")
        for target in deletes:
            session.execute(f"DELETE FROM t WHERE a = {target}")
        db.tuple_mover.advance_ahm(max(0, db.epochs.current - 2))
        visible_epochs = range(db.tuple_mover.ahm_epoch, db.epochs.current + 1)
        before = {
            e: sorted(session.execute(f"AT EPOCH {e} SELECT * FROM t").rows)
            for e in visible_epochs
        }
        db.tuple_mover.mergeout()
        after = {
            e: sorted(session.execute(f"AT EPOCH {e} SELECT * FROM t").rows)
            for e in visible_epochs
        }
        assert before == after


# ------------------------------------------------ stored segmentation hashes
seg_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-20, max_value=20)),
        st.integers(min_value=0, max_value=9),
        st.one_of(st.none(), st.sampled_from(["", "x", "yy", "é"])),
    ),
    min_size=1,
    max_size=8,
)
storage_ops = st.one_of(
    st.tuples(st.sampled_from(["values", "avro", "columnar"]), seg_rows),
    st.tuples(
        st.sampled_from(["insert-select", "update", "delete", "mergeout"]),
        st.integers(min_value=0, max_value=2),
    ),
)


class TestStoredHashInvariantProperty:
    """A ranged scan answers ``HASH(seg) ⋚ literal`` from ``row_hashes``
    alone, so every writer must leave every stored hash equal to
    ``vertica_hash`` of its row's segmentation values, on the right node."""

    @given(
        ops=st.lists(storage_ops, min_size=1, max_size=8),
        k_safety=st.sampled_from([0, 1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_writer_keeps_hashes_and_homes(self, ops, k_safety):
        db = VerticaDatabase(num_nodes=3, k_safety=k_safety)
        db.connect().execute(
            "CREATE TABLE t (a INTEGER, b INTEGER, c VARCHAR(8)) "
            "SEGMENTED BY HASH(a, c) ALL NODES"
        )
        schema = avro_schema_for_table(db.catalog.table("t"))
        for kind, argument in ops:
            payload = None
            if kind == "values":
                sql = "INSERT INTO t VALUES " + ", ".join(
                    "(" + ", ".join(
                        "NULL" if v is None else repr(v) for v in row
                    ) + ")"
                    for row in argument
                )
            elif kind == "avro":
                sql = "COPY t FROM STDIN FORMAT AVRO"
                payload = encode_rows(schema, argument)
            elif kind == "columnar":
                sql = "COPY t FROM STDIN FORMAT COLUMNAR"
                payload = write_columnar(schema, argument)
            elif kind == "insert-select":
                sql = (
                    f"INSERT INTO t SELECT a + 7, b, c FROM t WHERE b % 3 = {argument}"
                )
            elif kind == "update":  # moves rows between nodes
                sql = f"UPDATE t SET a = a * 2 + 1, c = 'x' WHERE b % 3 = {argument}"
            elif kind == "delete":
                sql = f"DELETE FROM t WHERE b % 3 = {argument}"
            else:
                db.tuple_mover.advance_ahm()
                db.tuple_mover.mergeout()
                assert stored_hash_violations(db) == []
                continue
            txn = db.begin()
            db.engine.execute(
                parse_statement(sql), txn, db.node_names[0], PlanContext(),
                copy_data=payload,
            )
            assert stored_hash_violations(db, [txn]) == []  # its WOS buffers
            txn.commit(db.storage)
            assert stored_hash_violations(db) == []

    def test_the_check_sees_a_wrong_hash_and_a_wrong_node(self):
        db = VerticaDatabase(num_nodes=3, k_safety=1)
        session = db.connect()
        session.execute("CREATE TABLE t (a INTEGER) SEGMENTED BY HASH(a) ALL NODES")
        session.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6)")
        assert stored_hash_violations(db) == []
        node = next(n for n in db.node_names if db.storage[n].table_containers("T"))
        (container,) = db.storage[node].table_containers("T")
        container.row_hashes[0] += 1
        (line,) = stored_hash_violations(db)
        assert line.startswith(f"T ROS on {node}: 1 of ")
        container.row_hashes[0] -= 1
        other = db.buddy_of(db.buddy_of(node))  # holds someone else's replicas
        db.storage[other].add_replica("T", container)
        (line,) = stored_hash_violations(db)
        assert line.startswith(f"T replica ROS on {other}: ")
