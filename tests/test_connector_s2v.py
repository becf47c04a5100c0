"""Tests for S2V: the 5-phase exactly-once save protocol under failures.

These are the paper's §3.2.1 guarantees, exercised with fault injection:
task failures at every phase boundary, restarts, speculative duplicates,
and total Spark failure must never produce partial or duplicate loads.
"""

import pytest

from repro.connector import SimVerticaCluster
from repro.connector.defaultsource import DefaultSource
from repro.connector.s2v import FINAL_STATUS_TABLE
from repro.sim import Environment
from repro.spark import JobFailedError, SparkSession, StructField, StructType
from repro.spark.faults import FailOncePerTaskPolicy, ProbeFailurePolicy

SCHEMA = StructType([StructField("id", "long"), StructField("val", "double")])
ROWS = [(i, float(i) * 0.25) for i in range(200)]

PHASE_PROBES = [
    "s2v:phase1_data_staged",
    "s2v:phase1_before_commit",
    "s2v:phase1_after_commit",
    "s2v:after_phase1",
    "s2v:after_phase2",
    "s2v:after_phase3",
    "s2v:after_phase4",
    "s2v:phase5_before_rename",
    "s2v:phase5_after_rename",
]


def make_fabric(fault_policy=None, speculation=False, kill_losers=False):
    env = Environment()
    vc = SimVerticaCluster(env=env, num_nodes=4)
    spark = SparkSession(
        env=env,
        cluster=vc.sim_cluster,
        num_workers=8,
        fault_policy=fault_policy,
        speculation=speculation,
        kill_speculative_losers=kill_losers,
    )
    return vc, spark


def save(vc, spark, rows=ROWS, mode="overwrite", table="dest", **extra):
    options = {"db": vc, "table": table, "numpartitions": 8}
    options.update(extra)
    df = spark.create_dataframe(rows, SCHEMA, num_partitions=8)
    df.write.format("vertica").options(options).mode(mode).save()
    return DefaultSource.last_save_result


def table_rows(vc, table="dest"):
    session = vc.db.connect()
    try:
        return sorted(session.execute(f"SELECT * FROM {table}").rows)
    finally:
        session.close()


class TestHappyPath:
    def test_overwrite_creates_table(self):
        vc, spark = make_fabric()
        result = save(vc, spark)
        assert table_rows(vc) == sorted(ROWS)
        assert result.status == "SUCCESS"
        assert result.rows_loaded == 200
        assert result.rows_rejected == 0

    def test_overwrite_replaces_existing(self):
        vc, spark = make_fabric()
        save(vc, spark, rows=[(999, 1.0)])
        save(vc, spark)
        assert table_rows(vc) == sorted(ROWS)

    def test_append_adds_rows(self):
        vc, spark = make_fabric()
        save(vc, spark)
        save(vc, spark, rows=[(1000 + i, 1.0) for i in range(50)], mode="append")
        assert len(table_rows(vc)) == 250

    def test_append_to_missing_table_fails(self):
        vc, spark = make_fabric()
        from repro.connector.s2v import S2VError

        with pytest.raises(S2VError):
            save(vc, spark, mode="append")

    def test_errorifexists_and_ignore(self):
        vc, spark = make_fabric()
        save(vc, spark)
        from repro.connector.s2v import S2VError

        with pytest.raises(S2VError):
            save(vc, spark, mode="errorifexists")
        result = save(vc, spark, rows=[(5, 5.0)], mode="ignore")
        assert result is None
        assert len(table_rows(vc)) == 200  # untouched

    def test_temp_tables_cleaned_up(self):
        vc, spark = make_fabric()
        result = save(vc, spark)
        tables = set(vc.db.catalog.tables)
        assert "DEST" in tables
        assert FINAL_STATUS_TABLE in tables
        assert not any(result.job_name in name for name in tables)

    def test_final_status_is_permanent_record(self):
        vc, spark = make_fabric()
        first = save(vc, spark)
        second = save(vc, spark, mode="append")
        session = vc.db.connect()
        rows = session.execute(
            f"SELECT job_name, status FROM {FINAL_STATUS_TABLE} ORDER BY job_name"
        ).rows
        names = [r[0] for r in rows]
        assert first.job_name in names
        assert second.job_name in names
        assert all(r[1] == "SUCCESS" for r in rows)

    def test_empty_dataframe(self):
        vc, spark = make_fabric()
        result = save(vc, spark, rows=[])
        assert result.status == "SUCCESS"
        assert table_rows(vc) == []

    def test_single_row(self):
        vc, spark = make_fabric()
        result = save(vc, spark, rows=[(1, 1.0)], numpartitions=4)
        assert table_rows(vc) == [(1, 1.0)]
        assert result.rows_loaded == 1

    def test_data_distributed_across_nodes(self):
        vc, spark = make_fabric()
        save(vc, spark)
        epoch = vc.db.epochs.current
        per_node = [
            vc.db.storage[n].live_row_count("DEST", epoch) for n in vc.db.node_names
        ]
        assert sum(per_node) == 200
        assert sum(1 for c in per_node if c > 0) >= 3


class TestExactlyOnceUnderFailures:
    @pytest.mark.parametrize("probe", PHASE_PROBES)
    def test_first_attempt_dies_at_every_phase_boundary(self, probe):
        """Kill every task's first attempt at each phase boundary: the
        retried tasks must still produce exactly one copy of the data."""
        vc, spark = make_fabric(fault_policy=FailOncePerTaskPolicy(probe))
        result = save(vc, spark)
        assert table_rows(vc) == sorted(ROWS), f"duplicate/partial at {probe}"
        assert result.status == "SUCCESS"
        assert result.rows_loaded == 200

    def test_failure_after_commit_does_not_duplicate(self):
        """The subtle §2.2.2 case: a task commits, then fails, then is
        restarted — its restart must not re-stage its data."""
        policy = ProbeFailurePolicy(
            {(i, 0): "s2v:phase1_after_commit" for i in range(8)}
        )
        vc, spark = make_fabric(fault_policy=policy)
        result = save(vc, spark)
        assert len(policy.injected) == 8
        assert table_rows(vc) == sorted(ROWS)
        assert result.rows_loaded == 200

    def test_multiple_failures_same_task(self):
        policy = ProbeFailurePolicy(
            {
                (3, 0): "s2v:phase1_data_staged",
                (3, 1): "s2v:phase1_after_commit",
            }
        )
        vc, spark = make_fabric(fault_policy=policy)
        save(vc, spark)
        assert table_rows(vc) == sorted(ROWS)

    def test_last_committer_crash_before_rename(self):
        """The winner dies between winning the race and renaming; its
        restart must still finalise the job exactly once."""

        class WinnerKiller(ProbeFailurePolicy):
            def __init__(self):
                super().__init__({})
                self.killed = False

            def on_probe(self, ctx, label):
                if label == "s2v:phase5_before_rename" and not self.killed:
                    self.killed = True
                    from repro.spark.faults import InjectedFailure

                    raise InjectedFailure("winner dies before rename")

        policy = WinnerKiller()
        vc, spark = make_fabric(fault_policy=policy)
        result = save(vc, spark)
        assert policy.killed
        assert table_rows(vc) == sorted(ROWS)
        assert result.status == "SUCCESS"

    def test_driver_completes_rename_when_every_attempt_dies_there(self):
        """Driver-side overwrite recovery: if every task attempt that
        reaches the rename point dies there, the entitled committer has
        already flipped the status to SUCCESS and dropped the old target,
        and its retry returns early (the conditional update hits zero
        rows) — so the staging table survives the job and the *driver's*
        finalisation must complete the rename."""
        vc, spark = make_fabric()
        save(vc, spark, rows=[(999, 9.0)])  # pre-existing target
        self._finalize_after_every_rename_dies(vc, spark, "overwrite")

    def test_driver_completes_rename_for_errorifexists_too(self):
        """errorifexists publishes through the same rename as overwrite,
        so the driver owes it the same recovery — skipping it dropped the
        staging table (the only copy of the data) under a SUCCESS status."""
        vc, spark = make_fabric()
        self._finalize_after_every_rename_dies(vc, spark, "errorifexists")

    def _finalize_after_every_rename_dies(self, vc, spark, mode):
        from repro.connector.s2v import S2VWriter
        from repro.spark.faults import FaultPolicy, InjectedFailure

        class AlwaysDieBeforeRename(FaultPolicy):
            def __init__(self):
                self.injected = set()

            def on_probe(self, ctx, label):
                if label == "s2v:phase5_before_rename":
                    self.injected.add((ctx.partition_id, ctx.attempt_number))
                    raise InjectedFailure("dies at the rename, every time")

        policy = AlwaysDieBeforeRename()
        spark.scheduler.fault_policy = policy

        df = spark.create_dataframe(ROWS, SCHEMA, num_partitions=8)
        writer = S2VWriter(spark, mode, {"db": vc, "table": "dest",
                                         "numpartitions": 8}, df)
        vc.run(writer._setup(), name="setup")
        rdd, num_tasks = writer._partitioned_rdd()
        thunks = [writer._make_task(rdd, i) for i in range(num_tasks)]
        job = spark.scheduler.submit(thunks, writer.job_name)
        vc.env.run(job.done)  # the job still completes: retries return early
        assert policy.injected  # the entitled committer really died

        # Mid-crash state: status says SUCCESS, old target is dropped, and
        # the staging table is the only copy of the data.
        session = vc.db.connect()
        status = session.execute(
            f"SELECT status FROM {FINAL_STATUS_TABLE} "
            f"WHERE job_name = '{writer.job_name}'"
        ).scalar()
        session.close()
        assert status == "SUCCESS"
        assert not vc.db.catalog.has_table("DEST")
        assert vc.db.catalog.has_table(writer.staging.upper())

        result = vc.run(writer._finalize(job), name="finalize")
        assert result.status == "SUCCESS"
        assert result.rows_loaded == 200
        assert result.rows_rejected == 0
        assert table_rows(vc) == sorted(ROWS)
        assert not vc.db.catalog.has_table(writer.staging.upper())

    def test_total_spark_failure_leaves_target_untouched(self):
        """§3.2.1: 'in the worst case of total Spark failure the target
        table will not be affected', and the final status table records
        the unfinished job."""
        vc, spark = make_fabric()
        save(vc, spark, rows=[(1, 1.0)])  # target now exists with one row

        df = spark.create_dataframe(ROWS, SCHEMA, num_partitions=8)
        from repro.connector.s2v import S2VWriter

        writer = S2VWriter(spark, "overwrite", {"db": vc, "table": "dest",
                                                "numpartitions": 8}, df)
        vc.run(writer._setup(), name="setup")
        rdd, num_tasks = writer._partitioned_rdd()
        thunks = [writer._make_task(rdd, i) for i in range(num_tasks)]
        job = spark.scheduler.submit(thunks, writer.job_name)

        def crash():
            yield vc.env.timeout(0.0)
            job.cancel("total Spark failure")

        vc.env.process(crash())
        with pytest.raises(JobFailedError):
            vc.env.run(job.done)
        vc.env.run()
        # Target untouched; final status still records the job in progress.
        assert table_rows(vc) == [(1, 1.0)]
        session = vc.db.connect()
        status = session.execute(
            f"SELECT status FROM {FINAL_STATUS_TABLE} "
            f"WHERE job_name = '{writer.job_name}'"
        ).scalar()
        assert status == "IN_PROGRESS"


class TestSpeculativeExecution:
    def test_duplicate_attempts_do_not_duplicate_data(self):
        """Speculative duplicates run their side effects to completion;
        the staging-table protocol must dedupe them."""
        vc, spark = make_fabric(speculation=True, kill_losers=False)
        result = save(vc, spark)
        vc.env.run()  # drain zombie duplicates
        assert table_rows(vc) == sorted(ROWS)
        assert result.rows_loaded == 200

    def test_duplicates_with_killed_losers(self):
        vc, spark = make_fabric(speculation=True, kill_losers=True)
        save(vc, spark)
        vc.env.run()
        assert table_rows(vc) == sorted(ROWS)


class TestRejectedRows:
    def oversized_rows(self):
        # varchar_length=5 below; these values overflow and get rejected.
        good = [(i, float(i)) for i in range(90)]
        return good

    def test_tolerance_allows_rejections(self):
        vc, spark = make_fabric()
        schema = StructType([StructField("id", "long"), StructField("tag", "string")])
        rows = [(i, "ok") for i in range(90)] + [(i, "waaaay too long") for i in range(10)]
        df = spark.create_dataframe(rows, schema, num_partitions=4)
        df.write.format("vertica").options(
            db=vc, table="tolerant", numpartitions=4, varchar_length=5,
            failed_rows_percent_tolerance=0.2,
        ).mode("overwrite").save()
        result = DefaultSource.last_save_result
        assert result.status == "SUCCESS"
        assert result.rows_loaded == 90
        assert result.rows_rejected == 10
        assert len(table_rows(vc, "tolerant")) == 90

    def test_tolerance_exceeded_fails_job(self):
        vc, spark = make_fabric()
        schema = StructType([StructField("id", "long"), StructField("tag", "string")])
        rows = [(i, "ok") for i in range(50)] + [(i, "far too long") for i in range(50)]
        df = spark.create_dataframe(rows, schema, num_partitions=4)
        with pytest.raises(JobFailedError):
            df.write.format("vertica").options(
                db=vc, table="strict", numpartitions=4, varchar_length=5,
                failed_rows_percent_tolerance=0.1,
            ).mode("overwrite").save()
        # Job recorded as FAILURE, target never created.
        session = vc.db.connect()
        statuses = session.execute(
            f"SELECT status FROM {FINAL_STATUS_TABLE}"
        ).rows
        assert ("FAILURE",) in statuses
        assert not vc.db.catalog.has_table("strict")


class TestPrehashPartitioning:
    def test_prehash_eliminates_internal_traffic(self):
        """§5 future work: pre-hashed partitions load node-locally."""
        vc, spark = make_fabric()
        save(vc, spark, table="prehashed", prehash_partitioning=True)
        assert table_rows(vc, "prehashed") == sorted(ROWS)
        assert vc.internal_bytes() == 0.0

    def test_default_mode_has_internal_traffic(self):
        vc, spark = make_fabric()
        cm = vc.cost_model
        # give the payload real weight so redistribution is visible
        save(vc, spark, table="plain")
        assert vc.internal_bytes() > 0.0


class TestSetupErrorNarrowing:
    """Regression: save_process wrapped _setup in a bare ``except
    Exception`` — a programming error (TypeError in option plumbing) ran
    the teardown path and re-raised with cleanup noise in between.  The
    handler is narrowed to the fabric's own error types."""

    def _writer(self):
        vc, spark = make_fabric()
        from repro.connector.s2v import S2VWriter

        df = spark.create_dataframe([(1, 1.0)], SCHEMA, num_partitions=2)
        writer = S2VWriter(
            spark, "overwrite",
            {"db": vc, "table": "dest", "numpartitions": 2}, df,
        )
        return vc, writer

    def _recording_cleanup(self, writer, monkeypatch, calls):
        def fake_cleanup(job):
            calls.append(job)
            return
            yield  # pragma: no cover - keeps this a generator function

        monkeypatch.setattr(writer, "_safe_cleanup", fake_cleanup)

    def test_programming_error_in_setup_skips_cleanup(self, monkeypatch):
        vc, writer = self._writer()
        calls = []
        self._recording_cleanup(writer, monkeypatch, calls)

        def broken_setup():
            raise TypeError("bad option plumbing")

        monkeypatch.setattr(writer, "_setup", broken_setup)
        with pytest.raises(TypeError, match="bad option plumbing"):
            next(writer.save_process())
        assert calls == []  # teardown must not run (and must not mask)

    def test_vertica_error_in_setup_still_cleans_up(self, monkeypatch):
        from repro.vertica.errors import CatalogError

        vc, writer = self._writer()
        calls = []
        self._recording_cleanup(writer, monkeypatch, calls)

        def conflicted_setup():
            raise CatalogError("simulated catalog conflict")

        monkeypatch.setattr(writer, "_setup", conflicted_setup)
        with pytest.raises(CatalogError, match="catalog conflict"):
            next(writer.save_process())
        assert calls == [None]  # cleanup ran before the re-raise

    def test_spark_error_in_setup_still_cleans_up(self, monkeypatch):
        from repro.spark.errors import SparkError

        vc, writer = self._writer()
        calls = []
        self._recording_cleanup(writer, monkeypatch, calls)

        def faulted_setup():
            raise SparkError("simulated fabric fault")

        monkeypatch.setattr(writer, "_setup", faulted_setup)
        with pytest.raises(SparkError, match="fabric fault"):
            next(writer.save_process())
        assert calls == [None]
