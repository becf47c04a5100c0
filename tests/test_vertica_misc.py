"""Tests for the DFS, UDx registry, and in-database scoring plumbing."""

import pytest

from repro.vertica import VerticaDatabase
from repro.vertica.dfs import DistributedFileSystem
from repro.vertica.errors import CatalogError, SqlError
from repro.vertica.udx import UdxRegistry
from tests.udx_adapter import per_row


class TestDfs:
    def test_write_read(self):
        dfs = DistributedFileSystem(["a", "b"])
        dfs.write("models/m1.pmml", b"<PMML/>")
        assert dfs.read("models/m1.pmml") == b"<PMML/>"
        assert dfs.exists("models/m1.pmml")
        assert dfs.size("models/m1.pmml") == 7

    def test_owner_node_is_stable(self):
        dfs = DistributedFileSystem(["a", "b", "c"])
        dfs.write("x", b"1")
        assert dfs.owner_node("x") == dfs.owner_node("x")
        assert dfs.owner_node("x") in ("a", "b", "c")

    def test_no_overwrite_by_default(self):
        dfs = DistributedFileSystem(["a"])
        dfs.write("x", b"1")
        with pytest.raises(CatalogError):
            dfs.write("x", b"2")
        dfs.write("x", b"2", overwrite=True)
        assert dfs.read("x") == b"2"

    def test_delete_and_list(self):
        dfs = DistributedFileSystem(["a"])
        dfs.write("models/m1", b"1")
        dfs.write("models/m2", b"2")
        dfs.write("other", b"3")
        assert dfs.list("models/") == ["models/m1", "models/m2"]
        dfs.delete("models/m1")
        assert dfs.list("models/") == ["models/m2"]

    def test_missing_file(self):
        dfs = DistributedFileSystem(["a"])
        with pytest.raises(CatalogError):
            dfs.read("nope")
        with pytest.raises(CatalogError):
            dfs.delete("nope")

    def test_invalid_path(self):
        dfs = DistributedFileSystem(["a"])
        with pytest.raises(CatalogError):
            dfs.write("", b"1")
        with pytest.raises(CatalogError):
            dfs.write("dir/", b"1")


class TestUdxRegistry:
    def test_register_and_lookup(self):
        registry = UdxRegistry()
        registry.register("double_it", lambda args, params: args[0] * 2)
        assert registry.lookup("DOUBLE_IT")([21], {}) == 42
        assert registry.is_registered("double_it")
        assert registry.names() == ["DOUBLE_IT"]

    def test_duplicate_rejected(self):
        registry = UdxRegistry()
        registry.register("f", lambda a, p: 1)
        with pytest.raises(SqlError):
            registry.register("F", lambda a, p: 2)
        registry.register("F", lambda a, p: 2, replace=True)

    def test_unknown_lookup(self):
        with pytest.raises(SqlError):
            UdxRegistry().lookup("nope")

    def test_unregister(self):
        registry = UdxRegistry()
        registry.register("f", lambda a, p: 1)
        registry.unregister("f")
        assert not registry.is_registered("f")


class TestUdxInSql:
    def test_udf_invocation_with_parameters(self):
        db = VerticaDatabase(num_nodes=2)
        db.udx.register(
            "scale", per_row(lambda args, params: args[0] * params.get("factor", 1))
        )
        s = db.connect()
        s.execute("CREATE TABLE t (x INTEGER)")
        s.execute("INSERT INTO t VALUES (1), (2), (3)")
        result = s.execute(
            "SELECT SCALE(x USING PARAMETERS factor=10) AS scaled FROM t ORDER BY scaled"
        )
        assert result.rows == [(10,), (20,), (30,)]

    def test_udf_multiple_args(self):
        db = VerticaDatabase(num_nodes=1)
        db.udx.register("addup", per_row(lambda args, params: sum(args)))
        s = db.connect()
        s.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        s.execute("INSERT INTO t VALUES (1, 2)")
        assert s.scalar("SELECT ADDUP(a, b USING PARAMETERS dummy=1) FROM t") == 3

    def test_unregistered_udf_fails(self):
        db = VerticaDatabase(num_nodes=1)
        s = db.connect()
        s.execute("CREATE TABLE t (a INTEGER)")
        s.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(SqlError):
            s.execute("SELECT NOPE(a USING PARAMETERS x=1) FROM t")

    @pytest.mark.parametrize(
        "result, got",
        [
            (lambda columns: columns[0][1:], "0 values"),
            (lambda columns: columns[0] + [0], "2 values"),
            (lambda columns: 7, "a int"),
        ],
        ids=["short", "long", "scalar"],
    )
    def test_a_udx_returning_another_row_count_is_named(self, result, got):
        # a block UDx owes one value per row; anything else would shift
        # every later row's value onto the wrong row
        db = VerticaDatabase(num_nodes=1)
        db.udx.register("shifty", lambda columns, params, rows: result(columns))
        s = db.connect()
        s.execute("CREATE TABLE t (a INTEGER)")
        s.execute("INSERT INTO t VALUES (1), (2), (3)")
        message = f"UDx 'SHIFTY' returned {got} for a batch of 1$"
        with pytest.raises(SqlError, match=message):
            s.execute("SELECT a, SHIFTY(a USING PARAMETERS p=1) FROM t")

    def test_a_udx_is_called_once_per_batch_and_never_on_an_empty_one(self):
        db = VerticaDatabase(num_nodes=1)
        calls = []

        def doubled(columns, params, rows):
            calls.append(rows)
            return [2 * value for value in columns[0]]

        db.udx.register("doubled", doubled)
        s = db.connect()
        s.execute("CREATE TABLE t (a INTEGER)")
        s.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert s.execute(
            "SELECT DOUBLED(a USING PARAMETERS p=1) FROM t ORDER BY a"
        ).rows == [(2,), (4,), (6,)]
        assert calls == [3]
        assert s.execute(
            "SELECT DOUBLED(a USING PARAMETERS p=1) FROM t WHERE a > 9"
        ).rows == []
        assert calls == [3]
