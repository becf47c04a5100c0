"""The batch task scheduler.

Jobs are sets of independent, stateless tasks (§2.1.2): the scheduler
assigns attempts to executor slots, retries failed tasks up to
``max_failures`` total attempts, optionally launches *speculative*
duplicate attempts of stragglers once most of the job has finished, and
supports whole-job cancellation (modelling total Spark failure).

Two behaviours matter for the paper's protocol and are modelled
faithfully:

- a task that fails *after* performing side effects is re-run in full —
  the new attempt repeats the side effects;
- by default, speculative losers are **not** killed: both duplicate
  attempts run to completion with their side effects, and only one result
  is kept.  S2V's staging-table protocol must make those duplicates
  harmless.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from repro import telemetry
from repro.sim import Environment, Event, Interrupt
from repro.sim.cluster import SimNode
from repro.sim.resources import Resource, Store
from repro.spark.errors import JobFailedError
from repro.spark.faults import FaultPolicy, InjectedFailure

#: Spark's spark.task.maxFailures default
DEFAULT_MAX_FAILURES = 4
#: fraction of finished tasks before speculation kicks in
SPECULATION_THRESHOLD = 0.75

TaskThunk = Callable[["TaskContext"], Any]


class ExecutorLost:
    """Interrupt cause delivered to attempts when their executor crashes.

    Unlike a plain kill (speculative-loser cleanup, job cancellation), an
    executor loss is not the task's fault: the driver relaunches the
    attempt elsewhere without charging it against ``max_failures`` —
    mirroring Spark's handling of executor loss.
    """

    def __init__(self, node_name: str, reason: str = "executor crashed"):
        self.node_name = node_name
        self.reason = reason

    def __repr__(self) -> str:
        return f"ExecutorLost({self.node_name!r}, {self.reason!r})"


class Executor:
    """One executor: a node, a pool of task slots, and a block store."""

    def __init__(
        self,
        env: Environment,
        node: SimNode,
        cores: int,
        cache_budget_bytes: Optional[int] = None,
    ):
        from repro.cache.blocks import DEFAULT_EXECUTOR_CACHE_BYTES, BlockManager

        self.env = env
        self.node = node
        self.slots = Resource(env, cores, name=f"{node.name}.slots")
        #: set while crashed; a down executor receives no new attempts
        self.down = False
        #: cached RDD partition blocks (columnar, byte-accounted LRU);
        #: soft state — emptied when the executor crashes
        self.block_manager = BlockManager(
            f"{node.name}.blocks",
            budget_bytes=(
                cache_budget_bytes
                if cache_budget_bytes is not None
                else DEFAULT_EXECUTOR_CACHE_BYTES
            ),
        )

    def __repr__(self) -> str:
        return f"Executor({self.node.name}, {self.slots.capacity} slots)"


class TaskContext:
    """What a running task attempt knows about itself."""

    def __init__(
        self,
        scheduler: "TaskScheduler",
        job: "Job",
        task: "_Task",
        attempt_number: int,
        speculative: bool,
        executor: Executor,
    ):
        self.scheduler = scheduler
        self.env = scheduler.env
        self.job = job
        self.partition_id = task.index
        self.num_partitions = len(job.tasks)
        self.attempt_number = attempt_number
        self.attempt_id = next(scheduler._attempt_ids)
        self.speculative = speculative
        self.executor = executor

    @property
    def node(self) -> SimNode:
        return self.executor.node

    def probe(self, label: str) -> None:
        """A named failure-injection point; production no-op."""
        self.scheduler.fault_policy.on_probe(self, label)

    def __repr__(self) -> str:
        spec = " (speculative)" if self.speculative else ""
        return (
            f"TaskContext(partition={self.partition_id}, "
            f"attempt={self.attempt_number}{spec})"
        )


class _Task:
    __slots__ = (
        "index",
        "thunk",
        "completed",
        "result",
        "failures",
        "attempts_started",
        "speculated",
        "live_attempts",
        "finish_time",
    )

    def __init__(self, index: int, thunk: TaskThunk):
        self.index = index
        self.thunk = thunk
        self.completed = False
        self.result: Any = None
        self.failures = 0
        self.attempts_started = 0
        self.speculated = False
        #: attempt_id -> (TaskContext, Process) for every in-flight attempt
        self.live_attempts: Dict[int, Any] = {}
        self.finish_time: Optional[float] = None


class Job:
    """A submitted job; ``done`` fires with the list of task results."""

    def __init__(self, env: Environment, job_id: int, name: str,
                 tasks: List[_Task]):
        self.job_id = job_id
        self.name = name or f"job-{self.job_id}"
        self.tasks = tasks
        self.mailbox = Store(env, name=f"{self.name}.mailbox")
        self.done: Optional[Event] = None  # the driver process
        self.cancelled = False
        self.submit_time = env.now

    def cancel(self, reason: str = "job cancelled") -> None:
        """Total Spark failure: kill every live attempt, fail the job."""
        self.cancelled = True
        self.mailbox.put(("cancelled", None, None, reason))
        for task in self.tasks:
            for __, process in list(task.live_attempts.values()):
                process.interrupt(reason)


class TaskScheduler:
    """Schedules task attempts onto executors."""

    def __init__(
        self,
        env: Environment,
        executors: List[Executor],
        max_failures: int = DEFAULT_MAX_FAILURES,
        speculation: bool = False,
        speculation_threshold: float = SPECULATION_THRESHOLD,
        kill_speculative_losers: bool = False,
        fault_policy: Optional[FaultPolicy] = None,
        job_launch_overhead: float = 0.0,
        task_launch_overhead: float = 0.0,
    ):
        if not executors:
            raise JobFailedError("a scheduler requires at least one executor")
        if max_failures < 1:
            raise JobFailedError(f"max_failures must be >= 1: {max_failures}")
        self.env = env
        self.executors = executors
        self.max_failures = max_failures
        self.speculation = speculation
        self.speculation_threshold = speculation_threshold
        self.kill_speculative_losers = kill_speculative_losers
        self.fault_policy = fault_policy or FaultPolicy()
        #: fixed latency to submit/launch a job (driver/JVM overheads)
        self.job_launch_overhead = job_launch_overhead
        #: per-attempt scheduling/serialisation latency
        self.task_launch_overhead = task_launch_overhead
        self._round_robin = 0
        #: the jobs whose driver is still running (chaos walks this to find
        #: live attempts); a finished job and its results belong only to
        #: whoever holds the ``Job`` or the returned results
        self.jobs: List[Job] = []
        #: attempt ids name staged files (whose bytes are charged), so they
        #: and job ids count per scheduler, not per process
        self._attempt_ids = itertools.count(1)
        self._job_ids = itertools.count(1)

    # -- public API -----------------------------------------------------------
    def submit(self, thunks: List[TaskThunk], name: str = "") -> Job:
        """Submit one task per thunk; returns the Job (await ``job.done``)."""
        tasks = [_Task(i, thunk) for i, thunk in enumerate(thunks)]
        job = Job(self.env, next(self._job_ids), name, tasks)
        telemetry.counter("spark.jobs_submitted").inc()
        self.jobs.append(job)
        job.done = self.env.process(self._driver(job), name=f"{job.name}.driver")
        return job

    def crash_executor(self, executor: Executor, reason: str = "chaos") -> int:
        """Kill an executor: interrupt its live attempts, stop placement.

        Every attempt running (or queued) on the executor dies with an
        :class:`ExecutorLost` cause, which the driver relaunches elsewhere
        without counting toward ``max_failures``.  Returns the number of
        attempts killed.  The executor takes no new attempts until
        :meth:`restart_executor`.
        """
        executor.down = True
        # Cached blocks are soft state in executor memory: a crash loses
        # them all, and lineage recompute rebuilds partitions on demand.
        executor.block_manager.drop_all()
        lost = ExecutorLost(executor.node.name, reason)
        killed = 0
        for job in self.jobs:
            for task in job.tasks:
                for ctx, process in list(task.live_attempts.values()):
                    if ctx.executor is executor:
                        process.interrupt(lost)
                        killed += 1
        telemetry.counter("spark.executor_crashes").inc()
        telemetry.counter("spark.attempts_lost").inc(killed)
        return killed

    def restart_executor(self, executor: Executor) -> None:
        """Bring a crashed executor back into the placement rotation."""
        executor.down = False

    # -- internals --------------------------------------------------------------
    def _next_executor(self, exclude: Optional[Executor] = None) -> Executor:
        up = [e for e in self.executors if not e.down]
        if not up:
            # Everything crashed at once: keep scheduling (the simulated
            # processes still run); placement realism resumes on restart.
            up = self.executors
        for __ in range(len(self.executors)):
            executor = self.executors[self._round_robin % len(self.executors)]
            self._round_robin += 1
            if executor not in up:
                continue
            if executor is not exclude or len(up) == 1:
                return executor
        return up[0]

    def _launch(self, job: Job, task: _Task, speculative: bool = False,
                exclude: Optional[Executor] = None) -> None:
        executor = self._next_executor(exclude=exclude)
        ctx = TaskContext(
            self, job, task, task.attempts_started, speculative, executor
        )
        task.attempts_started += 1
        telemetry.counter("spark.attempts_launched").inc()
        if speculative:
            telemetry.counter("spark.attempts_speculative").inc()
        process = self.env.process(
            self._attempt(job, task, ctx), name=f"{job.name}.t{task.index}.a{ctx.attempt_number}"
        )
        task.live_attempts[ctx.attempt_id] = (ctx, process)

    def _attempt(self, job: Job, task: _Task, ctx: TaskContext) -> Generator:
        executor = ctx.executor
        request = executor.slots.request()
        slot_wait_started = self.env.now
        try:
            yield request
            telemetry.histogram("spark.slot_wait_seconds").observe(
                self.env.now - slot_wait_started
            )
            if self.task_launch_overhead:
                yield self.env.timeout(self.task_launch_overhead)
            self.fault_policy.on_task_start(ctx)
            body = task.thunk(ctx)
            if hasattr(body, "__next__"):
                result = yield from body
            else:
                result = body
            job.mailbox.put(("ok", task, ctx, result))
        except Interrupt as interrupt:
            job.mailbox.put(("killed", task, ctx, interrupt))
        except Exception as exc:  # noqa: BLE001 - reported to the driver
            if isinstance(exc, InjectedFailure):
                # Counted here, not in the driver: zombie duplicates can
                # fail after the job finished, when nothing drains the
                # mailbox, and each injection must still be visible.
                telemetry.counter("spark.task_failures_injected").inc()
            job.mailbox.put(("fail", task, ctx, exc))
        finally:
            # Deregister here too: after the driver has returned, nothing
            # reads the mailbox, but liveness tracking must stay accurate
            # (S2V's finalisation quiesces on it).
            task.live_attempts.pop(ctx.attempt_id, None)
            executor.slots.release(request)

    def _driver(self, job: Job) -> Generator:
        try:
            return (yield from self._drive(job))
        finally:
            self.jobs.remove(job)

    def _drive(self, job: Job) -> Generator:
        if self.job_launch_overhead:
            yield self.env.timeout(self.job_launch_overhead)
        for task in job.tasks:
            self._launch(job, task)
        total = len(job.tasks)
        completed = 0
        while completed < total:
            message = yield job.mailbox.get()
            kind = message[0]
            if kind == "cancelled":
                raise JobFailedError(f"{job.name}: {message[3]}")
            kind, task, ctx, payload = message
            task.live_attempts.pop(ctx.attempt_id, None)
            if kind == "ok":
                if task.completed:
                    continue  # a duplicate finished later; result discarded
                task.completed = True
                task.result = payload
                task.finish_time = self.env.now
                completed += 1
                telemetry.counter("spark.tasks_completed").inc()
                if self.kill_speculative_losers:
                    for __, process in list(task.live_attempts.values()):
                        process.interrupt("task already completed")
                if self.speculation:
                    self._maybe_speculate(job, completed, total)
            elif kind == "fail":
                if task.completed:
                    continue  # duplicate failed after success; irrelevant
                task.failures += 1
                telemetry.counter("spark.task_failures").inc()
                if task.live_attempts:
                    # Another attempt of this task — typically the original
                    # of a failed speculative duplicate — is still running;
                    # relaunching here would spawn a third concurrent copy,
                    # and counting toward max_failures would let a flaky
                    # duplicate cancel an otherwise-healthy job.
                    continue
                if task.failures >= self.max_failures:
                    job.cancel(
                        f"task {task.index} failed {task.failures} times: {payload}"
                    )
                    # the cancelled message arrives next iteration
                    continue
                self._launch(job, task, exclude=ctx.executor)
            elif kind == "killed":
                cause = getattr(payload, "cause", None)
                if (
                    isinstance(cause, ExecutorLost)
                    and not task.completed
                    and not task.live_attempts
                ):
                    # Executor loss is not the task's fault: relaunch on a
                    # surviving executor without consuming a failure.
                    self._launch(job, task, exclude=ctx.executor)
                # other kills (speculative losers, cancellation) are
                # deliberate; nothing to do
        return [t.result for t in job.tasks]

    def _maybe_speculate(self, job: Job, completed: int, total: int) -> None:
        if completed < self.speculation_threshold * total or completed == total:
            return
        for task in job.tasks:
            if task.completed or task.speculated or not task.live_attempts:
                continue
            task.speculated = True
            self._launch(job, task, speculative=True)

    # convenience used by tests and the bench harness ----------------------------
    def run(self, thunks: List[TaskThunk], name: str = "") -> List[Any]:
        """Submit and run to completion (drives the sim clock)."""
        job = self.submit(thunks, name)
        return self.env.run(job.done)
