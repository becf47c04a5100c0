"""Tests for the telemetry layer: registry, spans, snapshots — and the
acceptance scenario: an S2V save under random failures plus speculation
whose counters must equal the scheduler's ground truth exactly.
"""

import pytest

from repro import telemetry
from repro.sim import Environment
from repro.telemetry import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_SPAN,
)


@pytest.fixture
def registry():
    reg = telemetry.install(MetricsRegistry(enabled=True))
    yield reg
    telemetry.reset()


class TestDisabledRegistry:
    def test_global_registry_starts_disabled(self):
        telemetry.reset()
        assert not telemetry.enabled()

    def test_disabled_instruments_are_shared_nulls(self):
        telemetry.reset()
        assert telemetry.counter("x") is NULL_COUNTER
        assert telemetry.span("x") is NULL_SPAN

    def test_null_instruments_are_inert(self):
        telemetry.reset()
        counter = telemetry.counter("x")
        counter.inc()
        counter.inc(100)
        assert counter.value == 0.0
        gauge = telemetry.gauge("g")
        gauge.set(5)
        gauge.inc()
        assert gauge.value == 0.0 and gauge.peak == 0.0

    def test_null_span_is_reentrant(self):
        telemetry.reset()
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                assert outer is inner  # one shared null object
        snapshot = telemetry.get_registry().snapshot()
        assert snapshot.spans == []
        assert snapshot.counters == {}

    def test_disabled_snapshot_renders(self):
        telemetry.reset()
        text = telemetry.get_registry().snapshot().render()
        assert "no instruments recorded" in text


class TestInstruments:
    def test_counter_accumulates(self, registry):
        telemetry.counter("events").inc()
        telemetry.counter("events").inc(4)
        assert telemetry.counter("events").value == 5.0
        assert telemetry.counter("events") is registry.counter("events")

    def test_gauge_tracks_peak(self, registry):
        gauge = telemetry.gauge("depth")
        gauge.inc(3)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 1.0
        assert gauge.peak == 5.0

    def test_histogram_summary(self, registry):
        hist = telemetry.histogram("lat")
        for value in (1.0, 3.0, 8.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(4.0)
        summary = hist.summary()
        assert summary["min"] == 1.0 and summary["max"] == 8.0

    def test_unbound_clock_is_monotonic(self, registry):
        first = telemetry.now()
        second = telemetry.now()
        assert second > first


class TestSpans:
    def test_nesting_sets_parent(self, registry):
        with telemetry.span("parent"):
            with telemetry.span("child"):
                pass
        child, parent = registry.spans[0], registry.spans[1]
        assert child.name == "child"  # inner closes first
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_tags_are_recorded(self, registry):
        with telemetry.span("s2v.phase1", task=3, attempt=0):
            pass
        record = registry.spans[0]
        assert record.tag_dict == {"attempt": 0, "task": 3}

    def test_error_is_captured_and_not_suppressed(self, registry):
        with pytest.raises(ValueError):
            with telemetry.span("doomed"):
                raise ValueError("boom")
        record = registry.spans[0]
        assert record.error == "ValueError: boom"

    def test_durations_use_sim_clock(self, registry):
        env = Environment()
        registry.bind(env)

        def proc():
            with telemetry.span("work"):
                yield env.timeout(4.0)

        env.process(proc())
        env.run()
        assert registry.spans[0].duration == pytest.approx(4.0)

    def test_interleaved_processes_keep_separate_ancestry(self, registry):
        """Two sim processes opening spans concurrently must not become
        each other's parents — ancestry is per logical thread."""
        env = Environment()
        registry.bind(env)

        def worker(name, delay):
            with telemetry.span(name):
                yield env.timeout(delay)
                with telemetry.span(name + ".child"):
                    yield env.timeout(delay)

        env.process(worker("a", 1.0))
        env.process(worker("b", 1.5))
        env.run()
        by_name = {record.name: record for record in registry.spans}
        assert by_name["a.child"].parent_id == by_name["a"].span_id
        assert by_name["b.child"].parent_id == by_name["b"].span_id
        assert by_name["a"].parent_id is None
        assert by_name["b"].parent_id is None


class TestSnapshot:
    def test_snapshot_freezes_state(self, registry):
        telemetry.counter("c").inc(2)
        telemetry.gauge("g").set(7)
        telemetry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        telemetry.counter("c").inc(100)  # after the freeze
        assert snapshot.counter("c") == 2.0
        assert snapshot.counter("missing", default=-1) == -1
        assert snapshot.gauges["g"] == (7.0, 7.0)
        assert snapshot.histograms["h"]["count"] == 1

    def test_kernel_stats_included_when_bound(self, registry):
        env = Environment()
        registry.bind(env)

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        snapshot = registry.snapshot()
        assert snapshot.kernel["processes_started"] == 1
        assert snapshot.kernel["events_processed"] >= 1

    def test_span_summary(self, registry):
        env = Environment()
        registry.bind(env)

        def proc(delay):
            with telemetry.span("op"):
                yield env.timeout(delay)

        env.process(proc(1.0))
        env.process(proc(3.0))
        env.run()
        snapshot = registry.snapshot()
        summary = snapshot.span_summary()["op"]
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(2.0)
        assert snapshot.span_names() == ["op"]
        assert len(snapshot.spans_named("op")) == 2

    def test_render_contains_sections(self, registry):
        telemetry.counter("spark.jobs_submitted").inc()
        with telemetry.span("s2v.phase1", task=0):
            pass
        text = registry.snapshot().render()
        assert "telemetry" in text
        assert "spark.jobs_submitted" in text
        assert "s2v.phase1" in text

    def test_clear_drops_state(self, registry):
        telemetry.counter("c").inc()
        with telemetry.span("s"):
            pass
        registry.clear()
        snapshot = registry.snapshot()
        assert snapshot.counters == {}
        assert snapshot.spans == []


class TestFabricIntegration:
    def test_each_fabric_installs_a_fresh_registry(self):
        from repro.bench.fabric import Fabric

        try:
            first = Fabric()
            telemetry.counter("c").inc()
            assert telemetry.counter("c").value == 1
            second = Fabric()
            assert telemetry.enabled()
            assert telemetry.get_registry().env is second.env
            assert second.env is not first.env
            assert telemetry.counter("c").value == 0
        finally:
            telemetry.reset()

    def test_fabric_installs_bound_registry(self):
        from repro.bench.fabric import Fabric

        fabric = Fabric()
        try:
            assert telemetry.enabled()
            assert telemetry.get_registry().env is fabric.env
        finally:
            telemetry.reset()

    def test_fabric_snapshot_includes_nic_traces(self):
        from repro.bench.fabric import Fabric
        from repro.workloads.datasets import load_direct, make_d1

        fabric = Fabric()
        try:
            dataset = make_d1(real_rows=500, virtual_rows=500)
            load_direct(fabric.vertica, dataset, "src")
            elapsed, rows = fabric.load("vertica", "src", dataset.scale,
                                        numpartitions=4)
            assert rows == 500
            snapshot = fabric.metrics_snapshot(trace_buckets=20)
            assert snapshot.counter("v2s.rows_fetched") == 500
            assert "v2s.range_query" in snapshot.span_names()
            assert snapshot.traces  # one per Vertica node
            assert all(len(t.values) >= 20 for t in snapshot.traces)
        finally:
            telemetry.reset()


class TestS2VAcceptance:
    """The PR's acceptance scenario: S2V under FailureRatePolicy(0.2) with
    speculation must produce a snapshot whose counters equal the
    scheduler's per-task ground truth and whose spans cover all five
    phases."""

    def _run_save(self):
        from repro.connector import SimVerticaCluster
        from repro.connector.s2v import S2VWriter
        from repro.spark import SparkSession, StructField, StructType
        from repro.spark.faults import FailureRatePolicy

        env = Environment()
        registry = telemetry.install(MetricsRegistry(enabled=True).bind(env))
        policy = FailureRatePolicy(0.2)
        vc = SimVerticaCluster(env=env, num_nodes=4)
        spark = SparkSession(
            env=env,
            cluster=vc.sim_cluster,
            num_workers=8,
            fault_policy=policy,
            speculation=True,
        )
        schema = StructType(
            [StructField("id", "long"), StructField("val", "double")]
        )
        rows = [(i, float(i) * 0.25) for i in range(200)]
        df = spark.create_dataframe(rows, schema, num_partitions=8)
        writer = S2VWriter(
            spark, "overwrite",
            {"db": vc, "table": "dest", "numpartitions": 8}, df,
        )
        vc.run(writer._setup(), name="setup")
        rdd, num_tasks = writer._partitioned_rdd()
        thunks = [writer._make_task(rdd, i) for i in range(num_tasks)]
        job = spark.scheduler.submit(thunks, writer.job_name)
        env.run(job.done)
        result = vc.run(writer._finalize(job), name="finalize")
        env.run()  # drain any zombie duplicates completely
        return registry, policy, job, result

    def test_counters_match_scheduler_ground_truth(self):
        registry, policy, job, result = self._run_save()
        try:
            snapshot = registry.snapshot()
            assert result.status == "SUCCESS"
            assert result.rows_loaded == 200
            assert policy.injected  # the 20% rate actually fired
            assert snapshot.counter("spark.attempts_launched") == sum(
                task.attempts_started for task in job.tasks
            )
            assert snapshot.counter("spark.task_failures") == sum(
                task.failures for task in job.tasks
            )
            assert snapshot.counter("spark.attempts_speculative") == sum(
                1 for task in job.tasks if task.speculated
            )
            assert snapshot.counter("spark.task_failures_injected") == len(
                policy.injected
            )
        finally:
            telemetry.reset()

    def test_spans_cover_all_five_phases(self):
        registry, policy, job, result = self._run_save()
        try:
            names = registry.snapshot().span_names()
            for phase in ("s2v.phase1", "s2v.phase2", "s2v.phase3",
                          "s2v.phase4", "s2v.phase5"):
                assert phase in names, f"missing span for {phase}"
        finally:
            telemetry.reset()
