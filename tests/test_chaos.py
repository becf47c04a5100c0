"""Chaos subsystem tests: schedules, controller, invariants, bugfix sweep."""

import dataclasses

import pytest

from repro import telemetry
from repro.bench.areas import AREAS, chaos
from repro.bench.fabric import LIGHT_COST_MODEL, Fabric
from repro.chaos import (
    ChaosError,
    ChaosSchedule,
    ExecutorCrash,
    InvariantChecker,
    LinkDegrade,
    LockStorm,
    ProbeRule,
    StatementRule,
    VerticaRestart,
)
from repro.connector import SimVerticaCluster
from repro.connector.jobs import temp_tables_of
from repro.connector.s2v import FINAL_STATUS_TABLE, S2VWriter
from repro.sim import Environment, trace
from repro.sim.network import Link, Network
from repro.spark import SparkSession
from repro.spark.errors import JobFailedError
from repro.spark.faults import ProbeFailurePolicy
from repro.spark.row import StructField, StructType
from repro.spark.scheduler import ExecutorLost
from repro.vertica.errors import (
    LockContention,
    RetriesExhausted,
    SqlError,
)
from repro.vertica.txn import ABORTED

SCHEMA = StructType([StructField("id", "long"), StructField("v", "double")])
ROWS = [(i, float(i)) for i in range(120)]


def chaos_fabric(speculation=False):
    return Fabric(
        num_vertica=3,
        num_spark=4,
        cost_model=LIGHT_COST_MODEL,
        speculation=speculation,
    )


def save_under_chaos(fabric, schedule, mode="overwrite", prior=(),
                     partitions=4):
    checker = InvariantChecker(fabric.vertica)
    if prior:
        session = fabric.vertica.db.connect()
        session.execute("CREATE TABLE tgt (id INTEGER, v FLOAT)")
        values = ", ".join(f"({i}, {v})" for i, v in prior)
        session.execute(f"INSERT INTO tgt VALUES {values}")
        session.close()
    controller = fabric.attach_chaos(schedule)
    df = fabric.spark.create_dataframe(ROWS, SCHEMA, num_partitions=partitions)
    writer = S2VWriter(
        fabric.spark, mode,
        {"db": fabric.vertica, "table": "tgt", "numpartitions": partitions,
         "scale_factor": 40.0},
        df,
    )
    raised = None
    try:
        writer.save()
    except Exception as exc:  # noqa: BLE001 - audited below
        raised = exc
    fabric.env.run()
    report = checker.check_s2v_save(
        writer.job_name, "tgt", ROWS, mode=mode,
        prior_rows=list(prior), raised=raised,
    )
    return writer, raised, report, controller


class TestScheduleValidation:
    def test_degrade_factor_and_duration_validated(self):
        with pytest.raises(ChaosError):
            LinkDegrade("l", 1.0, factor=1.0, duration=1.0)
        with pytest.raises(ChaosError):
            LinkDegrade("l", 1.0, factor=0.5, duration=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ChaosError):
            ExecutorCrash("spark0", -1.0)

    def test_restart_and_downtime_validated(self):
        with pytest.raises(ChaosError):
            ExecutorCrash("spark0", 1.0, restart_after=0.0)
        with pytest.raises(ChaosError):
            VerticaRestart("node0001", 1.0, downtime=-1.0)

    def test_statement_rule_point_validated(self):
        with pytest.raises(ChaosError):
            StatementRule("COPY", point="during")

    def test_probe_rule_rate_validated(self):
        with pytest.raises(ChaosError):
            ProbeRule(rate=1.5)

    def test_random_schedule_is_seed_deterministic(self):
        kwargs = dict(
            spark_nodes=["spark0", "spark1"],
            vertica_nodes=["node0001", "node0002"],
            link_names=["a.tx", "b.rx"],
            horizon=5.0,
            events=6,
        )
        first = ChaosSchedule.random(42, **kwargs)
        second = ChaosSchedule.random(42, **kwargs)
        other = ChaosSchedule.random(43, **kwargs)
        assert first.describe() == second.describe()
        assert first.describe() != other.describe()

    def test_actions_sorted_by_time(self):
        schedule = ChaosSchedule(0, [
            ExecutorCrash("b", 2.0), ExecutorCrash("a", 1.0),
        ])
        assert [a.at for a in schedule.actions] == [1.0, 2.0]


class TestExecutorCrash:
    def test_crash_mid_save_relaunches_and_commits_exactly_once(self):
        fabric = chaos_fabric()
        node = fabric.spark.workers[0].name
        schedule = ChaosSchedule(7, actions=[
            ExecutorCrash(node, at=1.5, restart_after=1.0),
        ])
        writer, raised, report, controller = save_under_chaos(fabric, schedule)
        assert raised is None
        assert report.ok, report.describe()
        assert controller.summary().get("executor_crash") == 1

    def test_executor_loss_does_not_consume_failure_budget(self):
        env = Environment()
        spark = SparkSession(env=env, num_workers=2, max_failures=1)
        executor = spark.scheduler.executors[0]

        def thunk(ctx):
            yield env.timeout(1.0)
            return ctx.partition_id

        def crash():
            yield env.timeout(0.5)
            spark.scheduler.crash_executor(executor)

        env.process(crash())
        # With max_failures=1 a counted failure would cancel the job, so
        # completion proves ExecutorLost relaunches are free.
        job = spark.scheduler.submit([thunk, thunk, thunk], name="crashy")
        results = env.run(job.done)
        assert sorted(results) == [0, 1, 2]
        assert [task.failures for task in job.tasks] == [0, 0, 0]
        assert sum(task.attempts_started for task in job.tasks) > 3

    def test_a_crash_interrupts_only_live_jobs_attempts(self):
        """Three concurrent jobs; the crash lands after job 1 finished,
        while jobs 2 and 3 run: only their attempts on the crashed
        executor are lost, and job 1's results are intact."""
        env = Environment()
        spark = SparkSession(env=env, num_workers=2, max_failures=1)
        scheduler = spark.scheduler
        executor = scheduler.executors[0]

        def task(duration):
            def thunk(ctx):
                yield env.timeout(duration)
                return (ctx.job.name, ctx.partition_id)
            return thunk

        jobs = [scheduler.submit([task(duration)] * 2, name=f"job{number}")
                for number, duration in ((1, 1.0), (2, 5.0), (3, 9.0))]
        killed = []

        def crash():
            yield env.timeout(2.0)
            assert scheduler.jobs == jobs[1:]
            killed.append(scheduler.crash_executor(executor))

        env.process(crash())
        results = [env.run(job.done) for job in jobs]
        assert killed == [2]  # one attempt each of jobs 2 and 3
        assert results == [[(f"job{n}", 0), (f"job{n}", 1)] for n in (1, 2, 3)]
        assert [task.attempts_started for task in jobs[0].tasks] == [1, 1]
        assert jobs[0].tasks[0].finish_time == pytest.approx(1.0)
        for job in jobs[1:]:
            assert sum(task.attempts_started for task in job.tasks) == 3
            assert [task.failures for task in job.tasks] == [0, 0]
        assert scheduler.jobs == []

    def test_down_executor_excluded_from_placement(self):
        env = Environment()
        spark = SparkSession(env=env, num_workers=3)
        down = spark.scheduler.executors[1]
        spark.scheduler.crash_executor(down)
        for __ in range(12):
            assert spark.scheduler._next_executor() is not down
        spark.scheduler.restart_executor(down)
        chosen = {spark.scheduler._next_executor() for __ in range(12)}
        assert down in chosen


class TestConnectionSever:
    def test_severed_copy_retries_to_exactly_once(self):
        fabric = chaos_fabric()
        schedule = ChaosSchedule(11, statement_rules=[
            StatementRule("COPY", rate=1.0, point="before", max_severs=2),
        ])
        writer, raised, report, controller = save_under_chaos(fabric, schedule)
        assert raised is None
        assert report.ok, report.describe()
        assert controller.summary().get("connection_sever") == 2

    def test_commit_ack_ambiguity_stays_exactly_once(self):
        # Sever *after* the server executed a COMMIT: the client cannot
        # know the outcome, yet the staged data must land exactly once.
        fabric = chaos_fabric()
        schedule = ChaosSchedule(13, statement_rules=[
            StatementRule("COMMIT", rate=1.0, point="after", max_severs=2),
        ])
        writer, raised, report, controller = save_under_chaos(fabric, schedule)
        assert raised is None
        assert report.ok, report.describe()
        assert controller.summary().get("connection_sever") == 2

    def test_severed_connection_refuses_reuse(self):
        cluster = SimVerticaCluster(num_nodes=1)
        conn = cluster.connect()
        conn.sever()
        from repro.connector.jdbc import ConnectionSevered

        def driver():
            with pytest.raises(ConnectionSevered):
                yield from conn.execute("SELECT 1 FROM v_catalog.nodes")

        cluster.run(driver())


class TestLockStorm:
    def test_storm_on_status_table_is_survived(self):
        fabric = chaos_fabric()
        schedule = ChaosSchedule(17, actions=[
            LockStorm(FINAL_STATUS_TABLE, at=1.3, duration=1.0),
            LockStorm("TGT", at=1.8, duration=0.8),
        ])
        writer, raised, report, controller = save_under_chaos(
            fabric, schedule, mode="append", prior=[(900, 9.0)],
        )
        assert raised is None
        assert report.ok, report.describe()
        assert controller.summary().get("lock_storm") == 2

    def test_storm_on_the_jobs_own_status_table_is_retried_and_counted(self):
        """Phase 1's conditional done-flag update is the one statement that
        takes an X lock on the job's own task-status table; a storm there
        must be retried *and* show up in ``vertica.lock.retries``.  One
        task, so no committer race adds retries of its own, and the storm
        is confined to the tail of phase 1 (setup's INSERT and teardown's
        DROP on the same table run outside it)."""
        fabric = chaos_fabric()
        schedule = ChaosSchedule(17, actions=[
            LockStorm("S2V_JOB_1_TASK_STATUS", at=2.0, duration=0.39,
                      hold=0.05, gap=0.001),
        ])
        writer, raised, report, controller = save_under_chaos(
            fabric, schedule, partitions=1,
        )
        # job ids count per database, so the table name is predictable
        assert writer.status_table == "S2V_JOB_1_TASK_STATUS"
        assert raised is None
        assert report.ok, report.describe()
        counters = fabric.metrics_snapshot().counters
        assert counters["vertica.lock.contention"] > 0
        assert counters["vertica.lock.retries"] > 0


class TestVerticaRestart:
    def test_restart_with_failover_keeps_invariants(self):
        fabric = chaos_fabric()
        schedule = ChaosSchedule(19, actions=[
            VerticaRestart("node0002", at=1.4, downtime=1.0),
        ])
        writer, raised, report, controller = save_under_chaos(fabric, schedule)
        assert report.ok, report.describe()
        assert controller.summary().get("vertica_restart", 0) >= 1
        # the node must be recovered by drain time
        assert fabric.vertica.db.node_states["node0002"] == "UP"

    def test_never_downs_the_last_node(self):
        fabric = chaos_fabric()
        db = fabric.vertica.db
        db.fail_node("node0001")
        db.fail_node("node0002")
        schedule = ChaosSchedule(23, actions=[
            VerticaRestart("node0003", at=0.1, downtime=0.5),
        ])
        controller = fabric.attach_chaos(schedule)
        fabric.env.run()
        assert db.node_states["node0003"] == "UP"
        assert controller.summary().get("vertica_restart") is None


class TestLinkDegrade:
    def test_partition_stalls_then_heals(self):
        env = Environment()
        network = Network(env)
        link = Link(env, "wire", 100.0)
        done = network.transfer([link], 1000.0)

        def partition():
            yield env.timeout(2.0)
            network.set_link_capacity(link, 0.0)
            yield env.timeout(3.0)
            network.set_link_capacity(link, link.nominal_capacity)

        env.process(partition())
        env.run(done)
        # 2s at 100 B/s, 3s stalled, then 800 bytes at 100 B/s
        assert env.now == pytest.approx(13.0)

    def test_degrade_through_fabric_chaos(self):
        fabric = chaos_fabric()
        name = f"{fabric.vertica.node_names[0]}.external.rx"
        assert name in fabric.all_links()
        schedule = ChaosSchedule(29, actions=[
            LinkDegrade(name, at=1.5, factor=0.0, duration=0.8),
        ])
        writer, raised, report, controller = save_under_chaos(fabric, schedule)
        assert report.ok, report.describe()
        assert controller.summary().get("link_degrade") == 1

    def test_rate_log_is_bounded(self, monkeypatch):
        monkeypatch.setattr(trace, "LOG_LIMIT", 4)
        env = Environment()
        network = Network(env)
        link = Link(env, "wire", 100.0)
        for __ in range(60):
            network.transfer([link], 10.0)
            env.run()
        assert len(link.rate_log) <= 8


class TestProbeRules:
    def test_probe_kills_are_budgeted_and_survivable(self):
        fabric = chaos_fabric()
        schedule = ChaosSchedule(31, probe_rules=[
            ProbeRule(label="s2v:", rate=1.0, max_kills=3),
        ])
        writer, raised, report, controller = save_under_chaos(fabric, schedule)
        assert raised is None
        assert report.ok, report.describe()
        assert controller.summary().get("task_kill") == 3


class TestFailureCleanup:
    def make_failing_writer(self):
        env = Environment()
        schedule = {(0, attempt): "s2v:phase1_data_staged"
                    for attempt in range(4)}
        vertica = SimVerticaCluster(env=env, num_nodes=3)
        spark = SparkSession(
            env=env, cluster=vertica.sim_cluster, num_workers=4,
            fault_policy=ProbeFailurePolicy(schedule), max_failures=4,
        )
        session = vertica.db.connect()
        session.execute("CREATE TABLE dest (id INTEGER, v FLOAT)")
        session.execute("INSERT INTO dest VALUES (999, 9.9)")
        session.close()
        df = spark.create_dataframe(ROWS, SCHEMA, num_partitions=4)
        writer = S2VWriter(
            spark, "overwrite",
            {"db": vertica, "table": "dest", "numpartitions": 4}, df,
        )
        return env, vertica, writer

    def test_failed_save_drops_temp_tables_but_keeps_record(self):
        env, vertica, writer = self.make_failing_writer()
        checker = InvariantChecker(vertica)
        with pytest.raises(JobFailedError) as excinfo:
            writer.save()
        env.run()
        # Temp tables are gone, the permanent record and target remain.
        assert temp_tables_of(vertica.db, writer.job_name) == []
        session = vertica.db.connect()
        status = session.scalar(
            f"SELECT status FROM {FINAL_STATUS_TABLE} "
            f"WHERE job_name = '{writer.job_name}'"
        )
        assert status == "IN_PROGRESS"
        assert session.execute("SELECT * FROM dest").rows == [(999, 9.9)]
        session.close()
        report = checker.check_s2v_save(
            writer.job_name, "dest", ROWS,
            prior_rows=[(999, 9.9)], raised=excinfo.value,
        )
        assert report.ok, report.describe()


class TestRetryBugfixes:
    def test_retries_exhausted_is_distinct_and_carries_cause(self):
        cluster = SimVerticaCluster(num_nodes=1)
        blocker = cluster.db.connect()
        blocker.execute("CREATE TABLE t (id INTEGER)")
        blocker.execute("BEGIN")
        blocker.execute("INSERT INTO t VALUES (1)")  # holds an I lock
        conn = cluster.connect()

        def driver():
            with pytest.raises(RetriesExhausted) as excinfo:
                yield from conn.execute_with_retry(
                    "UPDATE t SET id = 2", max_retries=3
                )
            assert excinfo.value.attempts == 4
            assert isinstance(excinfo.value.last_error, LockContention)

        cluster.run(driver())
        blocker.close()

    def test_non_lock_errors_are_not_retried(self):
        cluster = SimVerticaCluster(num_nodes=1)
        conn = cluster.connect()

        def driver():
            with pytest.raises(SqlError):
                yield from conn.execute_with_retry("SELEKT broken", max_retries=50)

        started = cluster.env.now
        cluster.run(driver())
        assert cluster.env.now == started  # no backoff sleeps happened

    def test_retry_delay_is_deterministic_and_jittered(self):
        cluster = SimVerticaCluster(num_nodes=1)
        conn = cluster.connect()
        first = [conn.retry_delay(attempt) for attempt in range(1, 6)]
        again = [conn.retry_delay(attempt) for attempt in range(1, 6)]
        assert first == again
        other = cluster.connect()
        assert first != [other.retry_delay(a) for a in range(1, 6)]


class TestTransactionLockRelease:
    def test_failed_commit_releases_locks_and_aborts(self):
        cluster = SimVerticaCluster(num_nodes=1)
        db = cluster.db
        txn = db.begin()
        txn.lock("T", "X")
        txn.post_commit.append(lambda epoch: None)  # force the write path

        def boom():
            raise RuntimeError("mid-commit crash")

        txn._epochs.advance = boom
        with pytest.raises(RuntimeError):
            txn.commit(db.storage)
        assert txn.status == ABORTED
        assert db.locks.held_tables() == {}

    def test_abort_releases_locks_even_if_clear_fails(self):
        cluster = SimVerticaCluster(num_nodes=1)
        db = cluster.db
        txn = db.begin()
        txn.lock("T", "X")
        txn.abort()
        assert db.locks.held_tables() == {}


class TestV2SEpochSnapshot:
    def test_scan_ignores_concurrent_s2v_append(self):
        from repro.connector.v2s import VerticaRelation
        from repro.spark.rdd import materialize

        fabric = chaos_fabric()
        session = fabric.vertica.db.connect()
        session.execute(
            "CREATE TABLE shared (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)"
        )
        values = ", ".join(f"({i}, {v})" for i, v in ROWS)
        session.execute(f"INSERT INTO shared VALUES {values}")
        session.close()
        checker = InvariantChecker(fabric.vertica)
        # Mild chaos on top: one executor dies while both jobs run.
        schedule = ChaosSchedule(37, actions=[
            ExecutorCrash(fabric.spark.workers[1].name, at=1.6,
                          restart_after=1.0),
        ])
        fabric.attach_chaos(schedule)

        relation = VerticaRelation(fabric.spark, {
            "db": fabric.vertica, "table": "shared", "numpartitions": 4,
            "scale_factor": 40.0,
        })
        rdd = relation.build_scan()

        def make_thunk(split):
            def thunk(ctx):
                rows = yield from materialize(rdd, split, ctx)
                return rows
            return thunk

        v2s_job = fabric.spark.scheduler.submit(
            [make_thunk(i) for i in range(rdd.num_partitions)], name="v2s"
        )
        # The S2V append drives the shared clock, so the scan's tasks
        # interleave with the writer advancing the epoch under them.
        extra = [(5000 + i, 1.0) for i in range(60)]
        df = fabric.spark.create_dataframe(extra, SCHEMA, num_partitions=4)
        S2VWriter(
            fabric.spark, "append",
            {"db": fabric.vertica, "table": "shared", "numpartitions": 4,
             "scale_factor": 40.0},
            df,
        ).save()
        results = fabric.env.run(v2s_job.done)
        fabric.env.run()
        rows = [row for partition in results for row in partition]
        # The pinned epoch predates the append: exactly the original rows.
        assert sorted(rows) == sorted(ROWS)
        report = checker.check_v2s_scan("shared", rdd.epoch, rows)
        assert report.ok, report.describe()
        # ... and the append itself landed exactly once at the latest epoch.
        session = fabric.vertica.db.connect()
        final = session.execute("SELECT * FROM shared").rows
        session.close()
        assert sorted(final) == sorted(ROWS + extra)


class TestExecutorLostCause:
    def test_repr_and_fields(self):
        cause = ExecutorLost("spark3", "chaos")
        assert cause.node_name == "spark3"
        assert "spark3" in repr(cause)


class TestCleanupFailureSurfacing:
    """Swallowed S2V teardown errors must be visible, never fatal."""

    def test_warn_is_visible_but_does_not_flip_ok(self):
        from repro.chaos.invariants import InvariantReport

        report = InvariantReport("cleanup")
        report.warn("cleanup-failures-surfaced", "2 errors swallowed")
        assert report.ok
        text = report.describe()
        assert "1 warnings" in text
        assert "WARN cleanup-failures-surfaced" in text

    def test_checker_warns_when_cleanup_errors_were_swallowed(self):
        # A fresh telemetry-enabled fabric zeroes the global counter.
        fabric = chaos_fabric()
        checker = InvariantChecker(fabric.vertica)
        clean = checker.check_cleanup_failures()
        assert clean.ok and not clean.warnings

        telemetry.counter("s2v.cleanup_failures").inc()
        dirty = checker.check_cleanup_failures()
        assert dirty.ok, dirty.describe()  # a warning, not a violation
        assert [w.name for w in dirty.warnings] == ["cleanup-failures-surfaced"]
        assert "1 S2V cleanup error(s)" in dirty.describe()

    def test_chaos_cell_metrics_carry_cleanup_failures(self, monkeypatch):
        area = AREAS["chaos"]
        cell = {"seed": 0, "workload": "s2v"}
        assert area.run_cell(cell)["cleanup_failures"] == 0

        def audit_after_two_swallowed(run, checker, raised, report):
            telemetry.counter("s2v.cleanup_failures").inc(2)
            chaos._audit_save(run, checker, raised, report)

        monkeypatch.setitem(chaos.TRIALS, "s2v", dataclasses.replace(
            chaos.TRIALS["s2v"], audit=audit_after_two_swallowed))
        # surfaced as a metric (and a warning), never as a failed cell
        assert area.run_cell(cell)["cleanup_failures"] == 2
