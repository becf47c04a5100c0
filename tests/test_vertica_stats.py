"""Tests for optimizer statistics: ANALYZE, histograms, lifecycle.

The stats subsystem is advisory — the differential suite proves plans
never change answers — so these tests pin the numbers themselves: what a
full collect computes, that nothing but ANALYZE changes them, and how
they surface through the ``V_CATALOG.COLUMN_STATISTICS`` system table.
"""

import pytest

from repro import telemetry
from repro.telemetry import MetricsRegistry
from repro.vertica import VerticaDatabase
from repro.vertica.errors import SqlError
from repro.vertica.stats import (
    ColumnStats,
    HistogramBucket,
    _build_histogram,
    collect_table_stats,
)


@pytest.fixture
def db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE m (a INTEGER, b FLOAT, c VARCHAR(10)) "
        "SEGMENTED BY HASH(a) ALL NODES"
    )
    session.execute(
        "INSERT INTO m VALUES "
        + ", ".join(f"({i}, {i}.25, 'tag{i % 4}')" for i in range(20))
        + ", (NULL, NULL, NULL)"
    )
    return database


class TestCollection:
    def test_analyze_collects_counts_ndv_and_bounds(self, db):
        session = db.connect()
        result = session.execute("ANALYZE m")
        assert result.columns == ["TABLE_NAME", "ROW_COUNT", "COLUMNS_ANALYZED"]
        assert result.rows == [("M", 21, 3)]
        stats = db.catalog.statistics["M"]
        a = stats.column("a")
        assert (a.row_count, a.null_count, a.ndv) == (21, 1, 20)
        assert (a.min_value, a.max_value) == (0, 19)
        c = stats.column("c")
        assert c.ndv == 4
        assert c.histogram == []  # strings have no numeric histogram

    def test_analyze_statistics_keyword_and_buckets(self, db):
        session = db.connect()
        session.execute("ANALYZE STATISTICS m WITH 4 BUCKETS")
        stats = db.catalog.statistics["M"]
        assert stats.buckets == 4
        assert len(stats.column("b").histogram) == 4

    def test_analyze_rejects_bad_buckets(self, db):
        session = db.connect()
        with pytest.raises(SqlError, match="bucket count"):
            session.execute("ANALYZE m WITH 0 BUCKETS")

    def test_analyze_unknown_table(self, db):
        from repro.vertica.errors import CatalogError

        with pytest.raises(CatalogError):
            db.connect().execute("ANALYZE nope")

    def test_analyze_counts_telemetry(self, db):
        telemetry.install(MetricsRegistry(enabled=True))
        try:
            db.connect().execute("ANALYZE m")
            assert telemetry.counter("vertica.queries.analyze").value == 1.0
        finally:
            telemetry.reset()

    def test_collect_sees_only_committed_rows(self, db):
        txn = db.begin()
        db.engine.insert_rows("M", [[99], [1.0], ["wos"]], txn)
        stats = collect_table_stats(db, "M")
        assert stats.row_count == 21  # the uncommitted row is invisible
        txn.abort()


class TestHistogram:
    def test_equi_width_buckets_cover_the_range(self):
        histogram = _build_histogram(list(range(0, 100)), 10)
        assert len(histogram) == 10
        assert histogram[0].lo == 0.0
        assert histogram[-1].hi == 99.0
        assert sum(b.count for b in histogram) == 100

    def test_max_value_lands_in_last_bucket(self):
        histogram = _build_histogram([0, 5, 10], 5)
        assert histogram[-1].count >= 1

    def test_constant_column_is_one_bucket(self):
        histogram = _build_histogram([7, 7, 7], 4)
        assert len(histogram) == 1
        assert histogram[0].count == 3

    def test_range_selectivity_interpolates(self):
        stats = ColumnStats(
            column="X",
            row_count=100,
            ndv=100,
            min_value=0,
            max_value=100,
            histogram=[HistogramBucket(lo=0.0, hi=100.0, count=100)],
        )
        assert stats.range_selectivity("<", 50) == pytest.approx(0.5)
        assert stats.range_selectivity(">", 75) == pytest.approx(0.25)

    def test_selectivity_fallbacks(self):
        stats = ColumnStats(column="X")
        assert stats.equality_selectivity() == 0.1  # no NDV yet
        assert stats.range_selectivity("<", "zz") == pytest.approx(1 / 3)


def statistics_of(db):
    """Every number the catalog's statistics hold, as comparable values."""
    return {name: repr(stats) for name, stats in db.catalog.statistics.items()}


class TestOnlyAnalyzeWrites:
    """Statistics and the catalog version move at ANALYZE (and DDL) only:
    a load, a rollback, a mergeout or a query leaves both where they were."""

    def test_copy_and_rollback_leave_statistics_alone(self, db):
        session = db.connect()
        session.execute("ANALYZE m")
        before, version = statistics_of(db), db.catalog.version
        session.execute(
            "COPY m FROM STDIN", copy_data="40,40.5,fresh\n41,41.5,fresh\n"
        )
        session.execute("BEGIN")
        session.execute("COPY m FROM STDIN", copy_data="42,42.5,gone\n")
        session.execute("ROLLBACK")
        session.execute("SELECT a, c FROM m WHERE a > 3")
        assert (statistics_of(db), db.catalog.version) == (before, version)
        assert db.catalog.statistics["M"].row_count == 21  # stale until ANALYZE
        session.execute("ANALYZE m")
        assert db.catalog.statistics["M"].row_count == 23
        assert db.catalog.version > version

    def test_copy_is_noop_before_first_analyze(self, db):
        session = db.connect()
        session.execute("COPY m FROM STDIN", copy_data="50,50.5,x\n")
        assert "M" not in db.catalog.statistics

    def test_mergeout_leaves_statistics_alone(self, db):
        session = db.connect()
        session.execute("ANALYZE m")
        session.execute(
            "COPY m FROM STDIN", copy_data="60,60.5,zed\n61,61.5,zed\n"
        )
        before, version = statistics_of(db), db.catalog.version
        db.tuple_mover.advance_ahm(db.epochs.current)
        assert db.tuple_mover.mergeout() > 0
        assert (statistics_of(db), db.catalog.version) == (before, version)
        assert db.catalog.statistics["M"].column("a").ndv == 20

    def test_mergeout_skips_never_analyzed_tables(self, db):
        db.tuple_mover.advance_ahm(db.epochs.current)
        db.tuple_mover.mergeout()
        assert "M" not in db.catalog.statistics


class TestLifecycle:
    def test_drop_table_drops_statistics(self, db):
        session = db.connect()
        session.execute("ANALYZE m")
        session.execute("DROP TABLE m")
        assert "M" not in db.catalog.statistics

    def test_rename_table_retargets_statistics(self, db):
        session = db.connect()
        session.execute("ANALYZE m")
        session.execute("ALTER TABLE m RENAME TO m2")
        assert "M" not in db.catalog.statistics
        stats = db.catalog.statistics["M2"]
        assert stats.table == "M2"
        assert stats.row_count == 21

    def test_system_table_exposes_statistics(self, db):
        session = db.connect()
        session.execute("ANALYZE m")
        rows = session.execute(
            "SELECT table_name, column_name, row_count, ndv "
            "FROM v_catalog.column_statistics ORDER BY column_name"
        ).rows
        assert rows == [
            ("M", "A", 21, 20),
            ("M", "B", 21, 20),
            ("M", "C", 21, 4),
        ]

    def test_system_table_empty_before_analyze(self, db):
        rows = db.connect().execute(
            "SELECT * FROM v_catalog.column_statistics"
        ).rows
        assert rows == []
