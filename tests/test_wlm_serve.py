"""End-to-end tests for the multi-tenant concurrent serving driver."""

from repro.bench.concurrent_serve import run_serve


class TestConcurrentServe:
    def test_shared_run_is_clean_and_queues(self):
        report = run_serve(tenants=4, ops=6, premium=False)
        assert report.ok, report.describe()
        # every tenant made progress and nobody silently lost work
        for stats in report.tenants:
            assert stats.completed + stats.rejections + stats.failures == 6
        assert sum(s.completed for s in report.tenants) > 0
        # the congested GENERAL pool made statements actually queue, and
        # the wait is visible in telemetry
        waits = report.snapshot.histograms["wlm.queue_wait_seconds"]
        assert waits["count"] > 0
        assert waits["max"] > 0.0
        assert report.snapshot.counters["wlm.admissions"] > 0
        # the session pool was exercised (reuse, not just fresh connects)
        assert report.snapshot.counters["wlm.sessions.reused"] > 0
        # per-node active-session gauges were sampled into the snapshot
        active = [name for name in report.snapshot.gauges
                  if name.startswith("db.sessions.active.")]
        assert active
        assert "no-leaked-pool-slots" in report.report.checks

    def test_premium_pool_isolates_tenant_zero(self):
        reports = {"shared": run_serve(tenants=4, ops=6, premium=False),
                   "pools": run_serve(tenants=4, ops=6, premium=True)}
        assert reports["shared"].ok, reports["shared"].describe()
        assert reports["pools"].ok, reports["pools"].describe()
        shared_p95 = reports["shared"].tenant(0).p95
        premium_p95 = reports["pools"].tenant(0).p95
        assert reports["pools"].tenant(0).pool == "PREMIUM"
        assert premium_p95 < shared_p95, (
            f"premium p95 {premium_p95:.3f}s should beat shared "
            f"{shared_p95:.3f}s"
        )

    def test_runs_are_deterministic(self):
        first = run_serve(tenants=3, ops=3)
        again = run_serve(tenants=3, ops=3)
        assert first.elapsed == again.elapsed
        for a, b in zip(first.tenants, again.tenants):
            assert a.latencies == b.latencies
            assert a.rejections == b.rejections
