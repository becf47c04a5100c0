"""Tests for EXPLAIN plan introspection and S2V job management."""

import pytest

from repro.connector import SimVerticaCluster
from repro.connector.jobs import (
    cleanup_all_orphans,
    cleanup_job,
    find_orphaned_jobs,
    job_status,
    list_jobs,
    temp_tables_of,
)
from repro.connector.s2v import S2VWriter
from repro.sim import Environment
from repro.spark import JobFailedError, SparkSession, StructField, StructType
from repro.vertica import VerticaDatabase
from repro.vertica.errors import CatalogError


@pytest.fixture
def db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE t (a INTEGER, b FLOAT) SEGMENTED BY HASH(a) ALL NODES"
    )
    session.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, {i}.5)" for i in range(40)))
    return database


def plan_text(session, sql):
    return "\n".join(r[0] for r in session.execute(sql).rows)


class TestExplain:
    def test_full_scan_plan(self, db):
        session = db.connect()
        plan = plan_text(session, "EXPLAIN SELECT * FROM t")
        assert "SCAN T [segmented by HASH(A)]" in plan
        assert "segments: all (4 nodes)" in plan
        assert "estimated rows: 40" in plan
        assert "PROJECT: *" in plan

    def test_hash_range_pruning_visible(self, db):
        session = db.connect()
        table = db.catalog.table("t")
        segment = table.ring.segments[1]
        plan = plan_text(
            session,
            f"EXPLAIN SELECT a FROM t WHERE HASH(a) >= {segment.lo} "
            f"AND HASH(a) < {segment.hi}",
        )
        assert f"hash range: [{segment.lo}, {segment.hi})" in plan
        assert segment.node in plan
        assert "segments pruned" in plan

    def test_absorbed_range_shows_no_filter(self, db):
        """The scan answers ``HASH(a) >= lo AND HASH(a) < hi``; EXPLAIN shows
        the range it became and, under FILTER, only what is left."""
        session = db.connect()
        segment = db.catalog.table("t").ring.segments[1]
        task = f"HASH(a) >= {segment.lo} AND HASH(a) < {segment.hi}"
        plan = plan_text(session, f"EXPLAIN SELECT b FROM t WHERE {task}")
        assert f"hash range: [{segment.lo}, {segment.hi})" in plan
        assert "FILTER" not in plan
        assert "columns: B [pruned]" in plan
        plan = plan_text(session, f"EXPLAIN SELECT a FROM t WHERE {task} AND b > 1.0")
        assert f"hash range: [{segment.lo}, {segment.hi})" in plan
        assert "FILTER: (B > 1.0) [pushed into scan]" in plan
        assert "HASH(A) >" not in plan and "HASH(A) <" not in plan
        # a bound that is not an int literal is not the scan's to answer
        plan = plan_text(
            session,
            f"EXPLAIN SELECT a FROM t WHERE HASH(a) >= {segment.lo} + 0 "
            f"AND HASH(a) < {segment.hi}",
        )
        assert f"FILTER: (HASH(A) >= {segment.lo}) [pushed into scan]" in plan

    def test_task_scan_estimates_are_the_span_fraction(self):
        """A task scan is priced at rows x span fraction (x the selectivity
        of what is *left*) — the absorbed conjuncts are not priced again
        at 1/3 each on top of the span they were turned into."""
        env = Environment()
        vc = SimVerticaCluster(env=env, num_nodes=4)
        spark = SparkSession(env=env, cluster=vc.sim_cluster, num_workers=4)
        session = vc.db.connect()
        session.execute(
            "CREATE TABLE big (a INTEGER, b FLOAT) SEGMENTED BY HASH(a) ALL NODES"
        )
        session.execute(
            "INSERT INTO big VALUES " + ", ".join(f"({i}, {i}.5)" for i in range(4000))
        )
        session.execute("ANALYZE big")
        plan = vc.db.catalog.table("big").ring.partition_plan(16)
        assert len(plan) == 16
        for ((lo, hi, __),) in plan:
            sql = f"SELECT a, b FROM big WHERE HASH(a) >= {lo} AND HASH(a) < {hi}"
            root = session.execute("EXPLAIN " + sql).rows[0][0]
            estimate = int(root.split("estimated rows: ")[1].rstrip(")"))
            returned = len(session.execute(sql).rows)
            assert abs(estimate - returned) <= 0.25 * returned, (estimate, returned)
        # a V2S load moves neither the statistics nor the catalog version
        # (and so re-keys no cached plan)
        catalog = vc.db.catalog
        before = (catalog.version, repr(catalog.statistics))
        df = spark.read.format("vertica").options(
            db=vc, table="big", numpartitions=16
        ).load()
        assert len(df.collect()) == 4000
        assert (catalog.version, repr(catalog.statistics)) == before

    def test_filter_and_sort_and_limit(self, db):
        session = db.connect()
        plan = plan_text(
            session,
            "EXPLAIN SELECT a FROM t WHERE b > 1.0 ORDER BY a DESC LIMIT 5",
        )
        assert "FILTER: (B > 1.0)" in plan
        assert "SORT: A DESC" in plan
        assert "LIMIT: 5" in plan

    def test_aggregate_plan(self, db):
        session = db.connect()
        plan = plan_text(session, "EXPLAIN SELECT a, COUNT(*) FROM t GROUP BY a")
        assert "AGGREGATE" in plan
        assert "group by: A" in plan

    def test_view_and_system_table_plans(self, db):
        session = db.connect()
        session.execute("CREATE VIEW v AS SELECT a FROM t")
        assert "SCAN VIEW V" in plan_text(session, "EXPLAIN SELECT * FROM v")
        assert "SYSTEM TABLE" in plan_text(
            session, "EXPLAIN SELECT * FROM v_catalog.nodes"
        )

    def test_unsegmented_plan(self, db):
        session = db.connect()
        session.execute("CREATE TABLE u (x INTEGER) UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO u VALUES (1)")
        plan = plan_text(session, "EXPLAIN SELECT * FROM u")
        assert "unsegmented, local copy" in plan

    def test_explain_does_not_execute(self, db):
        session = db.connect()
        before = db.epochs.current
        session.execute("EXPLAIN SELECT COUNT(*) FROM t")
        assert db.epochs.current == before


SCHEMA = StructType([StructField("id", "long"), StructField("v", "double")])


def make_fabric():
    env = Environment()
    vertica = SimVerticaCluster(env=env, num_nodes=4)
    spark = SparkSession(env=env, cluster=vertica.sim_cluster, num_workers=4)
    return vertica, spark


def crash_a_job(vertica, spark, table="dest"):
    df = spark.create_dataframe([(i, float(i)) for i in range(40)], SCHEMA, 4)
    writer = S2VWriter(spark, "overwrite",
                       {"db": vertica, "table": table, "numpartitions": 4}, df)
    vertica.run(writer._setup())
    rdd, tasks = writer._partitioned_rdd()
    job = spark.scheduler.submit(
        [writer._make_task(rdd, i) for i in range(tasks)], writer.job_name
    )

    def crash():
        yield vertica.env.timeout(0.0)
        job.cancel("total Spark failure")

    vertica.env.process(crash())
    with pytest.raises(JobFailedError):
        vertica.env.run(job.done)
    vertica.env.run()
    return writer.job_name


class TestJobManagement:
    def test_list_jobs_empty(self):
        assert list_jobs(VerticaDatabase(num_nodes=1)) == []

    def test_successful_job_recorded_no_orphans(self):
        vertica, spark = make_fabric()
        df = spark.create_dataframe([(1, 1.0)], SCHEMA, 1)
        df.write.format("vertica").options(
            db=vertica, table="ok", numpartitions=2
        ).mode("overwrite").save()
        jobs = list_jobs(vertica.db)
        assert len(jobs) == 1
        assert job_status(vertica.db, str(jobs[0]["JOB_NAME"])) == "SUCCESS"
        assert find_orphaned_jobs(vertica.db) == []

    def test_crashed_job_is_orphaned_and_cleanable(self):
        vertica, spark = make_fabric()
        job_name = crash_a_job(vertica, spark)
        assert job_status(vertica.db, job_name) == "IN_PROGRESS"
        assert job_name in find_orphaned_jobs(vertica.db)
        leftovers = temp_tables_of(vertica.db, job_name)
        assert leftovers  # staging/status/committer tables remain
        dropped = cleanup_job(vertica.db, job_name)
        assert sorted(dropped) == sorted(leftovers)
        assert temp_tables_of(vertica.db, job_name) == []
        assert find_orphaned_jobs(vertica.db) == []

    def test_cleanup_never_touches_target(self):
        vertica, spark = make_fabric()
        seed = vertica.db.connect()
        seed.execute("CREATE TABLE dest (id INTEGER, v FLOAT)")
        seed.execute("INSERT INTO dest VALUES (7, 7.0)")
        job_name = crash_a_job(vertica, spark)
        cleanup_job(vertica.db, job_name)
        assert seed.execute("SELECT * FROM dest").rows == [(7, 7.0)]

    def test_cleanup_refuses_finished_jobs(self):
        vertica, spark = make_fabric()
        df = spark.create_dataframe([(1, 1.0)], SCHEMA, 1)
        df.write.format("vertica").options(
            db=vertica, table="ok", numpartitions=2
        ).mode("overwrite").save()
        job_name = str(list_jobs(vertica.db)[0]["JOB_NAME"])
        with pytest.raises(CatalogError):
            cleanup_job(vertica.db, job_name)

    def test_cleanup_unknown_job(self):
        with pytest.raises(CatalogError):
            cleanup_job(VerticaDatabase(num_nodes=1), "GHOST")

    def test_cleanup_all_orphans(self):
        vertica, spark = make_fabric()
        first = crash_a_job(vertica, spark, "d1")
        second = crash_a_job(vertica, spark, "d2")
        cleaned = cleanup_all_orphans(vertica.db)
        assert set(cleaned) == {first, second}
        assert find_orphaned_jobs(vertica.db) == []
        # A fresh save then works normally.
        df = spark.create_dataframe([(1, 1.0)], SCHEMA, 1)
        df.write.format("vertica").options(
            db=vertica, table="d1", numpartitions=2
        ).mode("overwrite").save()
        session = vertica.db.connect()
        assert session.scalar("SELECT COUNT(*) FROM d1") == 1
