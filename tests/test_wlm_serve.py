"""End-to-end tests for the multi-tenant serving run behind the ``wlm`` area."""

from repro.bench.areas.wlm import run_serve


class TestConcurrentServe:
    def test_shared_run_is_clean_and_queues(self):
        run = run_serve(tenants=4, ops=6, premium=False)
        assert run.ok, run.describe()
        # every tenant made progress and nobody silently lost work
        for stats in run.clients:
            assert stats.completed + stats.rejections + stats.failures == 6
        assert sum(s.completed for s in run.clients) > 0
        # the congested GENERAL pool made statements actually queue, and
        # the wait is visible in telemetry
        waits = run.snapshot.histograms["wlm.queue_wait_seconds"]
        assert waits["count"] > 0
        assert waits["max"] > 0.0
        assert run.snapshot.counters["wlm.admissions"] > 0
        # the session pool was exercised (reuse, not just fresh connects)
        assert run.snapshot.counters["wlm.sessions.reused"] > 0
        # per-node active-session gauges were sampled into the snapshot
        active = [name for name in run.snapshot.gauges
                  if name.startswith("db.sessions.active.")]
        assert active
        assert "no-leaked-pool-slots" in run.report.checks

    def test_premium_pool_isolates_tenant_zero(self):
        runs = {"shared": run_serve(tenants=4, ops=6, premium=False),
                "pools": run_serve(tenants=4, ops=6, premium=True)}
        assert runs["shared"].ok, runs["shared"].describe()
        assert runs["pools"].ok, runs["pools"].describe()
        shared_p95 = runs["shared"].clients[0].percentile(0.95)
        premium_p95 = runs["pools"].clients[0].percentile(0.95)
        assert runs["pools"].clients[0].pool == "PREMIUM"
        assert premium_p95 < shared_p95, (
            f"premium p95 {premium_p95:.3f}s should beat shared "
            f"{shared_p95:.3f}s"
        )

    def test_runs_are_deterministic(self):
        first = run_serve(tenants=3, ops=3)
        again = run_serve(tenants=3, ops=3)
        assert first.elapsed == again.elapsed
        for a, b in zip(first.clients, again.clients):
            assert a.ops == b.ops
            assert a.rejections == b.rejections
