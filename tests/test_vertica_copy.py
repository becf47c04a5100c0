"""Tests for the COPY bulk-load path and VerticaCopyStream."""

import pytest

from repro.avrolite import Schema, encode_rows
from repro.vertica import VerticaDatabase
from repro.vertica.copyload import VerticaCopyStream, avro_schema_for_table
from repro.vertica.errors import CopyRejectError, SqlError


@pytest.fixture
def db():
    return VerticaDatabase(num_nodes=4)


@pytest.fixture
def session(db):
    s = db.connect()
    s.execute(
        "CREATE TABLE metrics (id INTEGER, value FLOAT, label VARCHAR(20)) "
        "SEGMENTED BY HASH(id) ALL NODES"
    )
    return s


def avro_payload(db, rows, codec="deflate"):
    table = db.catalog.table("metrics")
    return encode_rows(avro_schema_for_table(table), rows, codec=codec)


class TestCsvCopy:
    def test_basic_load(self, session):
        csv = "1,1.5,alpha\n2,2.5,beta\n3,,\n"
        session.execute("COPY metrics FROM STDIN", copy_data=csv)
        assert session.scalar("SELECT COUNT(*) FROM metrics") == 3
        assert session.last_copy_result.loaded == 3
        assert session.last_copy_result.rejected == 0
        assert session.scalar("SELECT value FROM metrics WHERE id = 3") is None

    def test_custom_delimiter(self, session):
        session.execute(
            "COPY metrics FROM STDIN DELIMITER '|'", copy_data="1|1.5|alpha\n"
        )
        assert session.scalar("SELECT COUNT(*) FROM metrics") == 1

    def test_blank_lines_skipped(self, session):
        session.execute("COPY metrics FROM STDIN", copy_data="1,1.0,a\n\n\n2,2.0,b\n")
        assert session.scalar("SELECT COUNT(*) FROM metrics") == 2

    def test_bad_rows_rejected_within_tolerance(self, session):
        csv = "1,1.5,ok\nbad,row,here\n2,2.5,ok\nx,y,z\n"
        session.execute("COPY metrics FROM STDIN REJECTMAX 2", copy_data=csv)
        assert session.scalar("SELECT COUNT(*) FROM metrics") == 2
        result = session.last_copy_result
        assert result.rejected == 2
        assert len(result.sample) == 2
        assert "not a" in result.sample[0].reason or "fields" in result.sample[0].reason

    def test_rejectmax_exceeded_fails_and_rolls_back(self, session):
        csv = "1,1.5,ok\nbad,row,here\nalso,bad,here\n"
        with pytest.raises(CopyRejectError) as info:
            session.execute("COPY metrics FROM STDIN REJECTMAX 1", copy_data=csv)
        assert info.value.rejected == 2
        assert session.scalar("SELECT COUNT(*) FROM metrics") == 0

    def test_zero_tolerance_by_default(self, session):
        with pytest.raises(CopyRejectError):
            session.execute("COPY metrics FROM STDIN", copy_data="oops\n")

    def test_arity_mismatch_rejected(self, session):
        session.execute("COPY metrics FROM STDIN REJECTMAX 1", copy_data="1,2\n")
        assert session.last_copy_result.rejected == 1

    def test_missing_payload(self, session):
        with pytest.raises(SqlError):
            session.execute("COPY metrics FROM STDIN")


class TestAvroCopy:
    def test_round_trip(self, session, db):
        rows = [(1, 1.5, "alpha"), (2, 2.5, None), (3, None, "gamma")]
        session.execute(
            "COPY metrics FROM STDIN FORMAT AVRO", copy_data=avro_payload(db, rows)
        )
        result = session.execute("SELECT * FROM metrics ORDER BY id")
        assert result.rows == rows

    def test_type_mismatch_rejected(self, session, db):
        table = db.catalog.table("metrics")
        schema = Schema.record(
            "metrics",
            [
                ("id", Schema.primitive("string", nullable=True)),
                ("value", Schema.primitive("double", nullable=True)),
                ("label", Schema.primitive("string", nullable=True)),
            ],
        )
        payload = encode_rows(schema, [("not-an-int", 1.0, "x")])
        session.execute(
            "COPY metrics FROM STDIN FORMAT AVRO REJECTMAX 5", copy_data=payload
        )
        assert session.last_copy_result.rejected == 1
        assert session.last_copy_result.loaded == 0

    def test_garbage_payload(self, session):
        with pytest.raises(SqlError):
            session.execute(
                "COPY metrics FROM STDIN FORMAT AVRO", copy_data=b"not avro"
            )

    def test_avro_requires_bytes(self, session):
        with pytest.raises(SqlError):
            session.execute("COPY metrics FROM STDIN FORMAT AVRO", copy_data="text")

    def test_rows_routed_by_segmentation(self, session, db):
        rows = [(i, float(i), f"r{i}") for i in range(50)]
        session.execute(
            "COPY metrics FROM STDIN FORMAT AVRO", copy_data=avro_payload(db, rows)
        )
        table = db.catalog.table("metrics")
        epoch = db.epochs.current
        per_node = {
            node: db.storage[node].live_row_count("METRICS", epoch)
            for node in db.node_names
        }
        assert sum(per_node.values()) == 50
        # More than one node holds data (hash distributes).
        assert sum(1 for count in per_node.values() if count > 0) >= 2
        # And each node's rows hash into its own segment.
        from repro.vertica import vertica_hash

        for node in db.node_names:
            segment = table.ring.segment_for_node(node)
            for container in db.storage[node].table_containers("METRICS"):
                ids = container.columns[container.column_names.index("ID")]
                for index in container.visible(epoch):
                    assert segment.lo <= vertica_hash(ids[index]) < segment.hi


class TestCopyStream:
    def test_stream_multiple_chunks(self, session, db):
        stream = VerticaCopyStream(session, "metrics", reject_max=0)
        stream.add_avro(avro_payload(db, [(1, 1.0, "a")]))
        stream.add_avro(avro_payload(db, [(2, 2.0, "b"), (3, 3.0, "c")]))
        result = stream.execute()
        assert result.loaded == 3
        assert session.scalar("SELECT COUNT(*) FROM metrics") == 3

    def test_stream_inside_transaction_rolls_back(self, session, db):
        session.execute("BEGIN")
        stream = VerticaCopyStream(session, "metrics")
        stream.add_avro(avro_payload(db, [(1, 1.0, "a")]))
        stream.execute()
        session.execute("ROLLBACK")
        assert session.scalar("SELECT COUNT(*) FROM metrics") == 0

    def test_stream_csv_format(self, session):
        stream = VerticaCopyStream(session, "metrics", file_format="CSV")
        stream.add_csv("1,1.0,a\n")
        assert stream.execute().loaded == 1

    def test_stream_format_mismatch(self, session):
        stream = VerticaCopyStream(session, "metrics")
        with pytest.raises(SqlError):
            stream.add_csv("1,1.0,a\n")

    def test_empty_stream_rejected(self, session):
        with pytest.raises(SqlError):
            VerticaCopyStream(session, "metrics").execute()

    def test_reject_accounting_across_chunks(self, session, db):
        stream = VerticaCopyStream(session, "metrics", reject_max=2, file_format="CSV")
        stream.add_csv("1,1.0,a\nbad,bad,bad\n")
        stream.add_csv("2,2.0,b\nalso,bad,here\n")
        result = stream.execute()
        assert result.loaded == 2
        assert result.rejected == 2
