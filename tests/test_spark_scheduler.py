"""Tests for the task scheduler: retries, speculation, cancellation."""

import gc
import weakref

import pytest

from repro.sim import Environment, SimCluster
from repro.spark import JobFailedError, SparkSession
from repro.spark.faults import (
    FailOncePerTaskPolicy,
    FailureRatePolicy,
    InjectedFailure,
    ProbeFailurePolicy,
)
from repro.spark.scheduler import Executor, TaskScheduler


def make_scheduler(cores=2, workers=2, **kwargs):
    env = Environment()
    cluster = SimCluster(env)
    executors = [
        Executor(env, cluster.add_node(f"w{i}", cores=cores), cores)
        for i in range(workers)
    ]
    return env, TaskScheduler(env, executors, **kwargs)


def simple_task(value, duration=1.0):
    def thunk(ctx):
        yield ctx.env.timeout(duration)
        return value

    return thunk


class TestBasicExecution:
    def test_results_in_task_order(self):
        env, scheduler = make_scheduler()
        results = scheduler.run([simple_task(i) for i in range(6)])
        assert results == list(range(6))

    def test_slots_limit_concurrency(self):
        env, scheduler = make_scheduler(cores=1, workers=1)
        scheduler.run([simple_task(i, duration=2.0) for i in range(3)])
        assert env.now == pytest.approx(6.0)  # strictly serial

    def test_parallel_execution_across_slots(self):
        env, scheduler = make_scheduler(cores=4, workers=2)
        scheduler.run([simple_task(i, duration=2.0) for i in range(8)])
        assert env.now == pytest.approx(2.0)  # 8 slots, all parallel

    def test_plain_value_thunks(self):
        env, scheduler = make_scheduler()
        assert scheduler.run([lambda ctx: 42]) == [42]

    def test_task_context_fields(self):
        env, scheduler = make_scheduler()
        seen = {}

        def thunk(ctx):
            seen["partition"] = ctx.partition_id
            seen["attempt"] = ctx.attempt_number
            seen["total"] = ctx.num_partitions
            return None
            yield

        scheduler.run([thunk])
        assert seen == {"partition": 0, "attempt": 0, "total": 1}


class TestRetries:
    def test_failed_task_is_retried(self):
        env, scheduler = make_scheduler(
            fault_policy=FailOncePerTaskPolicy("work_done")
        )
        attempts = []

        def thunk(ctx):
            yield ctx.env.timeout(1.0)
            attempts.append(ctx.attempt_number)
            ctx.probe("work_done")
            return "ok"

        assert scheduler.run([thunk]) == ["ok"]
        assert attempts == [0, 1]

    def test_side_effects_repeat_on_retry(self):
        """A task that fails after a side effect repeats it — the hazard
        S2V's status table defends against."""
        env, scheduler = make_scheduler(
            fault_policy=ProbeFailurePolicy({(0, 0): "after_write"})
        )
        writes = []

        def thunk(ctx):
            yield ctx.env.timeout(1.0)
            writes.append(ctx.attempt_number)
            ctx.probe("after_write")
            return len(writes)

        scheduler.run([thunk])
        assert writes == [0, 1]  # the write happened twice

    def test_job_fails_after_max_failures(self):
        env, scheduler = make_scheduler(max_failures=3)

        def always_fails(ctx):
            yield ctx.env.timeout(1.0)
            raise InjectedFailure("boom")

        with pytest.raises(JobFailedError):
            scheduler.run([always_fails])

    def test_other_tasks_unaffected_by_one_retry(self):
        env, scheduler = make_scheduler(
            fault_policy=ProbeFailurePolicy({(1, 0): "p"})
        )

        def make(i):
            def thunk(ctx):
                yield ctx.env.timeout(1.0)
                ctx.probe("p")
                return i

            return thunk

        assert scheduler.run([make(i) for i in range(4)]) == [0, 1, 2, 3]

    def test_failure_rate_policy_is_deterministic(self):
        policy_a = FailureRatePolicy(0.5)
        policy_b = FailureRatePolicy(0.5)
        env, sched_a = make_scheduler(fault_policy=policy_a)
        env, sched_b = make_scheduler(fault_policy=policy_b)

        def make(i):
            def thunk(ctx):
                yield ctx.env.timeout(1.0)
                ctx.probe("point")
                return i

            return thunk

        assert sched_a.run([make(i) for i in range(16)]) == list(range(16))
        sched_b.run([make(i) for i in range(16)])
        assert policy_a.injected == policy_b.injected
        assert policy_a.injected  # some failures actually happened


class TestSpeculation:
    def test_straggler_gets_duplicate_attempt(self):
        env, scheduler = make_scheduler(cores=8, workers=2, speculation=True)
        attempts = {"straggler": 0}

        def fast(i):
            def thunk(ctx):
                yield ctx.env.timeout(1.0)
                return i

            return thunk

        def straggler(ctx):
            attempts["straggler"] += 1
            if ctx.speculative:
                yield ctx.env.timeout(1.0)  # the duplicate is fast
            else:
                yield ctx.env.timeout(100.0)
            return "slow"

        thunks = [fast(i) for i in range(7)] + [straggler]
        results = scheduler.run(thunks)
        assert results[-1] == "slow"
        assert attempts["straggler"] == 2  # original + speculative duplicate
        assert env.now < 100.0  # the duplicate won

    def test_duplicate_side_effects_both_run(self):
        """Without killing losers, both attempts execute their effects."""
        env, scheduler = make_scheduler(
            cores=8, workers=2, speculation=True, kill_speculative_losers=False
        )
        effects = []

        def fast(i):
            def thunk(ctx):
                yield ctx.env.timeout(1.0)
                return i

            return thunk

        def straggler(ctx):
            yield ctx.env.timeout(5.0 if ctx.speculative else 8.0)
            effects.append(ctx.speculative)
            return "done"

        scheduler.run([fast(i) for i in range(7)] + [straggler])
        env.run()  # let the zombie loser finish
        assert len(effects) == 2

    def test_failed_speculative_duplicate_does_not_relaunch(self):
        """Regression: a speculative duplicate that fails while the
        original attempt is still running must not trigger a retry — the
        original is the retry.  Previously the driver relaunched, spawning
        a third concurrent copy of the task."""
        env, scheduler = make_scheduler(
            cores=8, workers=2, speculation=True,
            fault_policy=ProbeFailurePolicy({(7, 1): "speculative_work"}),
        )

        def fast(i):
            def thunk(ctx):
                yield ctx.env.timeout(1.0)
                return i

            return thunk

        def straggler(ctx):
            yield ctx.env.timeout(1.0 if ctx.speculative else 10.0)
            ctx.probe("speculative_work")
            return "slow"

        job = scheduler.submit([fast(i) for i in range(7)] + [straggler])
        results = env.run(job.done)
        assert results[-1] == "slow"
        task = job.tasks[7]
        assert task.failures == 1  # the duplicate's failure is recorded
        assert task.attempts_started == 2  # original + duplicate, no third

    def test_flaky_speculative_duplicate_cannot_cancel_healthy_job(self):
        """Regression: with max_failures=1, a failed speculative duplicate
        used to count against the task and cancel the whole job even
        though the healthy original was still running."""
        env, scheduler = make_scheduler(
            cores=8, workers=2, speculation=True, max_failures=1,
            fault_policy=ProbeFailurePolicy({(7, 1): "speculative_work"}),
        )

        def fast(i):
            def thunk(ctx):
                yield ctx.env.timeout(1.0)
                return i

            return thunk

        def straggler(ctx):
            yield ctx.env.timeout(1.0 if ctx.speculative else 10.0)
            ctx.probe("speculative_work")
            return "slow"

        results = scheduler.run([fast(i) for i in range(7)] + [straggler])
        assert results == [0, 1, 2, 3, 4, 5, 6, "slow"]
        assert env.now == pytest.approx(10.0)  # the original finished

    def test_losers_killed_when_configured(self):
        env, scheduler = make_scheduler(
            cores=8, workers=2, speculation=True, kill_speculative_losers=True
        )
        effects = []

        def fast(i):
            def thunk(ctx):
                yield ctx.env.timeout(1.0)
                return i

            return thunk

        def straggler(ctx):
            yield ctx.env.timeout(2.0 if ctx.speculative else 50.0)
            effects.append(ctx.speculative)
            return "done"

        scheduler.run([fast(i) for i in range(7)] + [straggler])
        env.run()
        assert effects == [True]  # only the winner's effect


class TestCancellation:
    def test_cancel_kills_running_tasks(self):
        env, scheduler = make_scheduler()
        completed = []

        def thunk(ctx):
            yield ctx.env.timeout(100.0)
            completed.append(ctx.partition_id)
            return ctx.partition_id

        job = scheduler.submit([thunk, thunk], "doomed")

        def canceller():
            yield env.timeout(5.0)
            job.cancel("total Spark failure")

        env.process(canceller())
        with pytest.raises(JobFailedError):
            env.run(job.done)
        assert env.now == pytest.approx(5.0)  # job failed at cancellation time
        env.run()  # drain any orphan timers
        assert completed == []  # killed tasks never ran their effects


class Payload:
    """A task result that can be weakly referenced."""


class TestFinishedJobsAreForgotten:
    """``scheduler.jobs`` holds live jobs only: a finished job, and the rows
    its tasks returned, belong to whoever holds the ``Job`` or the results,
    so a long-lived session does not keep every job it ever ran."""

    def test_a_successful_job_leaves_the_list(self):
        env, scheduler = make_scheduler()
        job = scheduler.submit([simple_task(i) for i in range(3)])
        assert scheduler.jobs == [job]
        assert env.run(job.done) == [0, 1, 2]
        assert scheduler.jobs == []

    def test_a_job_cancelled_by_max_failures_leaves_the_list(self):
        env, scheduler = make_scheduler(max_failures=2)

        def broken(ctx):
            raise ValueError("always")

        job = scheduler.submit([broken, simple_task(1, duration=50.0)])
        with pytest.raises(JobFailedError, match="failed 2 times"):
            env.run(job.done)
        assert scheduler.jobs == []

    def test_a_cancelled_job_leaves_the_list(self):
        env, scheduler = make_scheduler()
        job = scheduler.submit([simple_task(0, duration=100.0)])

        def canceller():
            yield env.timeout(5.0)
            job.cancel("total Spark failure")

        env.process(canceller())
        with pytest.raises(JobFailedError):
            env.run(job.done)
        assert scheduler.jobs == []

    def test_a_speculative_loser_outlives_its_job_off_the_list(self):
        env, scheduler = make_scheduler(cores=8, workers=2, speculation=True)
        finished = []

        def straggler(ctx):
            yield ctx.env.timeout(2.0 if ctx.speculative else 8.0)
            finished.append(ctx.speculative)
            return "slow"

        job = scheduler.submit([simple_task(i) for i in range(7)] + [straggler])
        assert env.run(job.done)[-1] == "slow"
        assert job.tasks[7].live_attempts  # the original is still running
        assert scheduler.jobs == []
        env.run()
        assert finished == [True, False]
        assert scheduler.jobs == []

    @pytest.mark.parametrize("entry", ["run", "submit"])
    def test_results_are_freed_once_the_caller_drops_them(self, entry):
        env, scheduler = make_scheduler()
        refs = []

        def thunk(ctx):
            yield ctx.env.timeout(1.0)
            payload = Payload()
            refs.append(weakref.ref(payload))
            return payload

        if entry == "run":
            results = scheduler.run([thunk, thunk])
        else:
            job = scheduler.submit([thunk, thunk])
            results = env.run(job.done)
            assert job.tasks[0].result is results[0]
            del job
        assert len(refs) == 2 and all(ref() is not None for ref in refs)
        del results
        # The next job steps the kernel past the finished driver's event.
        assert scheduler.run([simple_task("next")]) == ["next"]
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestSparkSessionIntegration:
    def test_session_runs_jobs_with_faults(self):
        spark = SparkSession(
            num_workers=2,
            cores_per_worker=2,
            fault_policy=FailOncePerTaskPolicy("compute"),
        )

        def job(ctx):
            yield ctx.env.timeout(1.0)
            ctx.probe("compute")
            return ctx.partition_id

        assert spark.run_thunks([job, job]) == [0, 1]

    def test_rdd_recomputed_from_lineage_after_failure(self):
        policy = FailOncePerTaskPolicy("task_start")

        class StartFailPolicy(FailOncePerTaskPolicy):
            def on_task_start(self, ctx):
                self.on_probe(ctx, "task_start")

        spark = SparkSession(
            num_workers=2, cores_per_worker=2,
            fault_policy=StartFailPolicy("task_start"),
        )
        rdd = spark.parallelize(range(10), 4).map(lambda x: x * 2)
        assert sorted(rdd.collect()) == [x * 2 for x in range(10)]
