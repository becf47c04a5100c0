"""Aggregate pushdown: partition-wise partial aggregation (PR 3).

Differential coverage: every aggregate function, over NULL-bearing
columns, on segmented tables, unsegmented tables and views, with and
without task retries, must return byte-identical results to the
Spark-side fallback path (``agg_pushdown=False``).  Plus regression
tests for the four bugfixes that rode along: count() honouring residual
filters, empty ``IN ()`` rendering, descending NULL ordering, and
epoch-pinned view schema discovery.
"""

import pytest

from repro import telemetry
from repro.connector import SimVerticaCluster
from repro.sim import Environment
from repro.spark import SparkSession
from repro.spark.datasource import BaseRelation, Filter, GreaterThan, In
from repro.spark.faults import FailureRatePolicy
from repro.spark.row import StructField, StructType
from repro.vertica.session import Session

AGG_FNS = ("count", "sum", "avg", "min", "max")

#: (k, a, b) with NULLs sprinkled into both value columns and group
#: k=6 holding only NULL ``a`` values (all-NULL group edge case)
ROWS = [
    (
        i % 7,
        None if (i % 7 == 6 or i % 3 == 0) else i,
        None if i % 4 == 0 else i * 0.5,
    )
    for i in range(60)
]


@pytest.fixture
def fabric():
    env = Environment()
    vc = SimVerticaCluster(env=env, num_nodes=4)
    spark = SparkSession(env=env, cluster=vc.sim_cluster, num_workers=8)
    return vc, spark


@pytest.fixture
def loaded(fabric):
    vc, spark = fabric
    session = vc.db.connect()
    literals = ", ".join(
        "(" + ", ".join("NULL" if v is None else str(v) for v in row) + ")"
        for row in ROWS
    )
    session.execute(
        "CREATE TABLE seg (k INTEGER, a INTEGER, b FLOAT) "
        "SEGMENTED BY HASH(k) ALL NODES"
    )
    session.execute(f"INSERT INTO seg VALUES {literals}")
    session.execute(
        "CREATE TABLE unseg (k INTEGER, a INTEGER, b FLOAT) "
        "UNSEGMENTED ALL NODES"
    )
    session.execute(f"INSERT INTO unseg VALUES {literals}")
    session.execute("CREATE VIEW segview AS SELECT k, a, b FROM seg")
    return vc, spark, session


def read(vc, spark, table, **extra):
    options = {"db": vc, "table": table, "numpartitions": 8}
    options.update(extra)
    return spark.read.format("vertica").options(options).load()


def agg_rows(vc, spark, table, specs, pushdown, **extra):
    df = read(vc, spark, table, agg_pushdown=pushdown, **extra)
    return df.group_by("k").agg(*specs).collect()


def canonical(rows):
    """Order-free but otherwise byte-exact comparison key (1 != 1.0)."""
    return sorted(map(repr, rows))


class TestDifferentialMatrix:
    """Pushdown must be byte-identical to the Spark-side fallback."""

    @pytest.mark.parametrize("table", ["seg", "unseg", "segview"])
    @pytest.mark.parametrize("fn", AGG_FNS)
    def test_each_function_each_relation_kind(self, loaded, table, fn):
        vc, spark, __ = loaded
        specs = [("a", fn), ("b", fn)] if fn != "count" else [
            ("*", "count"), ("a", "count"), ("b", "count")
        ]
        pushed = agg_rows(vc, spark, table, specs, pushdown=True)
        fallback = agg_rows(vc, spark, table, specs, pushdown=False)
        assert canonical(pushed) == canonical(fallback)
        assert len(pushed) == 7  # one output row per group

    @pytest.mark.parametrize("table", ["seg", "unseg", "segview"])
    def test_mixed_functions_with_filter(self, loaded, table):
        vc, spark, __ = loaded
        specs = [("*", "count"), ("a", "sum"), ("a", "avg"),
                 ("b", "min"), ("b", "max")]
        pushed = read(vc, spark, table).filter(
            GreaterThan("a", 10)
        ).group_by("k").agg(*specs).collect()
        fallback = read(vc, spark, table, agg_pushdown=False).filter(
            GreaterThan("a", 10)
        ).group_by("k").agg(*specs).collect()
        assert canonical(pushed) == canonical(fallback)

    def test_survives_task_retries(self, loaded):
        """Partial-aggregate tasks restarted by FailureRatePolicy still
        merge to the exact fallback answer (epoch pinning + idempotent
        range queries)."""
        vc, __, ___ = loaded

        class Policy(FailureRatePolicy):
            def on_task_start(self, ctx):
                self.on_probe(ctx, self.label)

        policy = Policy(0.4, label="start")
        flaky = SparkSession(
            env=vc.env, cluster=vc.sim_cluster, num_workers=8,
            fault_policy=policy, worker_prefix="flaky",
        )
        specs = [("*", "count"), ("a", "sum"), ("a", "avg"),
                 ("b", "min"), ("b", "max")]
        pushed = agg_rows(vc, flaky, "seg", specs, pushdown=True)
        fallback = agg_rows(vc, flaky, "seg", specs, pushdown=False)
        assert policy.injected, "the policy never actually killed a task"
        assert canonical(pushed) == canonical(fallback)


class TestOneQueryPerRange:
    """Acceptance: one GROUP BY query per hash-range task, one epoch."""

    def test_query_plan_shape(self, loaded, monkeypatch):
        vc, spark, __ = loaded
        captured = []
        original = Session.prepare  # where a statement's text enters a session

        def spy(self, sql):
            captured.append(sql)
            return original(self, sql)

        monkeypatch.setattr(Session, "prepare", spy)
        df = read(vc, spark, "seg")
        df.group_by("k").agg(("a", "sum"), ("a", "avg")).collect()

        group_queries = [s for s in captured if "GROUP BY" in s]
        plan = df._relation.ring.partition_plan(8)
        num_ranges = sum(len(split) for split in plan)
        assert len(group_queries) == num_ranges
        assert all(s.startswith("AT EPOCH ") for s in group_queries)
        epochs = {s.split()[2] for s in group_queries}
        assert len(epochs) == 1, f"tasks pinned different epochs: {epochs}"
        # avg decomposes into SUM + COUNT partials, deduplicated
        assert all("SUM(A)" in s and "COUNT(A)" in s for s in group_queries)
        assert all(s.count("SUM(A)") == 1 for s in group_queries)

    def test_wire_counters_show_savings(self, loaded):
        vc, spark, __ = loaded
        telemetry.install(telemetry.MetricsRegistry(enabled=True).bind(vc.env))
        try:
            read(vc, spark, "seg").group_by("k").agg(("a", "sum")).collect()
            partial = telemetry.counter("v2s.agg_pushdown.partial_rows").value
            aggregated = telemetry.counter(
                "v2s.agg_pushdown.rows_aggregated"
            ).value
            saved = telemetry.counter("v2s.agg_pushdown.rows_saved").value
            assert 0 < partial < len(ROWS)
            assert aggregated == len(ROWS)
            assert saved == aggregated - partial
        finally:
            telemetry.reset()

    def test_option_disables_pushdown(self, loaded):
        vc, spark, __ = loaded
        telemetry.install(telemetry.MetricsRegistry(enabled=True).bind(vc.env))
        try:
            agg_rows(vc, spark, "seg", [("a", "sum")], pushdown=False)
            assert telemetry.counter("v2s.agg_pushdown.jobs").value == 0
            assert telemetry.counter("v2s.rows_fetched").value == len(ROWS)
        finally:
            telemetry.reset()


class _ResidualRelation(BaseRelation):
    """A stub source that declines every pushdown filter."""

    SCHEMA = StructType([StructField("a", "long")])
    ROWS = [(1,), (2,), (None,)]

    def __init__(self, session):
        self.session = session
        self.count_calls = 0

    @property
    def schema(self):
        return self.SCHEMA

    def unhandled_filters(self, filters):
        return list(filters)  # everything is residual

    def build_scan(self, required_columns=None, filters=()):
        return self.session.parallelize(self.ROWS, 1)

    def count(self, filters=()):
        self.count_calls += 1
        return len(self.ROWS)  # ignores filters — wrong if any are residual


class TestResidualFilterBugfixes:
    """count()/agg() must not push past filters the source cannot handle."""

    @pytest.fixture
    def df(self):
        from repro.spark.dataframe import DataFrame

        spark = SparkSession(num_workers=2)
        relation = _ResidualRelation(spark)
        frame = DataFrame(spark, relation.schema, relation=relation)
        return frame, relation

    def test_count_respects_residual_filters(self, df):
        frame, relation = df
        filtered = frame.filter(GreaterThan("a", 1))
        # Regression: count() used to call relation.count() here, which
        # ignores the residual filter and would have returned 3.
        assert filtered.count() == 1
        assert relation.count_calls == 0

    def test_unfiltered_count_still_pushes(self, df):
        frame, relation = df
        assert frame.count() == 3
        assert relation.count_calls == 1

    def test_agg_falls_back_on_residual_filters(self, df):
        frame, __ = df
        out = frame.filter(GreaterThan("a", 1)).group_by("a").count()
        assert out.collect() == [(2, 1)]


class TestEmptyInFilter:
    """Empty ``IN ()`` must render as FALSE, not a syntax error."""

    def test_to_sql(self):
        assert In("a", ()).to_sql() == "FALSE"
        assert In("a", (1, 2)).to_sql() == "a IN (1, 2)"

    def test_pushed_empty_in_matches_spark_side(self, loaded):
        vc, spark, __ = loaded
        pushed = read(vc, spark, "seg").filter(In("k", ())).collect()
        spark_side = [r for r in ROWS if In("k", ()).evaluate(r[0])]
        assert pushed == spark_side == []


class TestDescendingNullOrder:
    """order_by(descending=True) keeps NULLs last, like the engine."""

    def test_matches_engine_order_by_desc(self, loaded):
        vc, spark, __ = loaded
        engine = vc.db.connect().execute(
            "SELECT a FROM seg ORDER BY a DESC"
        ).rows
        df = spark.create_dataframe(
            [(r[1],) for r in ROWS],
            StructType([StructField("a", "long")]),
            num_partitions=3,
        )
        # Regression: descending used to reverse the whole (is_null, value)
        # key, floating NULLs to the front while the engine kept them last.
        assert df.order_by("a", descending=True).collect() == engine

    def test_nulls_last_both_directions(self, fabric):
        __, spark = fabric
        schema = StructType([StructField("x", "long")])
        df = spark.create_dataframe(
            [(None,), (3,), (1,), (None,), (2,)], schema, num_partitions=2
        )
        ascending = [r[0] for r in df.order_by("x").collect()]
        descending = [r[0] for r in df.order_by("x", descending=True).collect()]
        assert ascending == [1, 2, 3, None, None]
        assert descending == [3, 2, 1, None, None]


class TestEpochPinnedDiscovery:
    """View schema discovery must sample at a pinned epoch."""

    def test_concurrent_writer_cannot_tear_discovery(self, fabric, monkeypatch):
        vc, spark = fabric
        session = vc.db.connect()
        session.execute("CREATE TABLE base (n INTEGER)")
        session.execute("CREATE VIEW empty_view AS SELECT n FROM base")

        original = Session.prepare  # where a statement's text enters a session

        def racing_writer(self, sql):
            if sql.startswith("AT EPOCH") and "LIMIT 1" in sql:
                # A writer commits between discovery's epoch pin and its
                # schema sample — the torn-snapshot window the fix closes.
                writer = vc.db.connect()
                writer.execute("INSERT INTO base VALUES (42)")
                writer.close()
            return original(self, sql)

        monkeypatch.setattr(Session, "prepare", racing_writer)
        df = spark.read.format("vertica").options(
            db=vc, table="empty_view", numpartitions=4
        ).load()
        # The pinned sample sees the pre-write (empty) snapshot: NULL-only
        # columns infer "string".  Without AT EPOCH the racing row leaks
        # in and the same column infers "long".
        assert [f.data_type for f in df.schema] == ["string"]
        # The row is still visible to scans pinned after the commit.
        assert df.collect() == [(42,)]
