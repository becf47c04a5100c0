"""Tests for repro.wlm: resource pools, admission control, session pooling."""

import pytest

from repro import telemetry
from repro.connector import SimVerticaCluster
from repro.connector.costmodel import VerticaCostModel
from repro.sim import Environment
from repro.sim.resources import PriorityResource
from repro.vertica import VerticaDatabase
from repro.vertica.errors import (
    AdmissionTimeout,
    CatalogError,
    ConnectionLimitError,
    SqlError,
)
from repro.vertica.settings import PlanContext
from repro.wlm import (
    AdmissionController,
    GENERAL,
    ResourcePool,
    SessionPool,
    general_pool,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def db():
    return VerticaDatabase(num_nodes=3)


def run_process(env, gen):
    return env.run(env.process(gen))


# --------------------------------------------------------------- PriorityResource
class TestPriorityResource:
    def test_fifo_within_equal_priority(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def worker(name):
            req = res.request()
            yield req
            order.append(name)
            yield env.timeout(1)
            res.release(req)

        for name in "abcd":
            env.process(worker(name))
        env.run()
        assert order == list("abcd")

    def test_higher_priority_jumps_queue(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def worker(name, priority, delay):
            yield env.timeout(delay)
            req = res.request(priority=priority)
            yield req
            order.append(name)
            yield env.timeout(10)
            res.release(req)

        # "a" holds the resource; "low" queues first but "high" (arriving
        # later, higher priority) is granted ahead of it.
        env.process(worker("a", 0, 0))
        env.process(worker("low", 0, 1))
        env.process(worker("high", 5, 2))
        env.run()
        assert order == ["a", "high", "low"]

    def test_cancel_while_queued_returns_nothing(self, env):
        res = PriorityResource(env, capacity=1)
        hold = res.request()
        env.run()
        queued = res.request(priority=3)
        assert res.queue_length == 1
        res.release(queued)  # cancellation: never granted
        assert res.queue_length == 0
        res.release(hold)
        assert res.in_use == 0


# --------------------------------------------------------------- pool definitions
class TestResourcePool:
    def test_names_are_uppercased(self):
        pool = ResourcePool("ingest", cascade="general")
        assert pool.name == "INGEST"
        assert pool.cascade == "GENERAL"

    def test_memory_per_query_grant(self):
        pool = ResourcePool("p", memory_mb=4096, planned_concurrency=4,
                            max_concurrency=8)
        assert pool.memory_per_query_mb == 1024

    def test_validation(self):
        with pytest.raises(CatalogError):
            ResourcePool("p", memory_mb=0)
        with pytest.raises(CatalogError):
            ResourcePool("p", planned_concurrency=0)
        with pytest.raises(CatalogError):
            ResourcePool("p", planned_concurrency=8, max_concurrency=4)
        with pytest.raises(CatalogError):
            ResourcePool("p", queue_timeout=-1.0)
        with pytest.raises(CatalogError):
            ResourcePool("p", cascade="P")

    def test_catalog_crud_and_system_table(self, db):
        assert db.catalog.resource_pool(GENERAL) == general_pool()
        db.create_resource_pool(ResourcePool("etl", priority=5,
                                             cascade=GENERAL))
        with pytest.raises(CatalogError):
            db.create_resource_pool(ResourcePool("etl"))
        db.create_resource_pool(ResourcePool("etl", priority=7,
                                             cascade=GENERAL),
                                or_replace=True)
        assert db.catalog.resource_pool("ETL").priority == 7
        with pytest.raises(CatalogError):
            db.create_resource_pool(ResourcePool("bad", cascade="nosuch"))
        session = db.connect()
        result = session.execute(
            "SELECT pool_name, priority FROM v_catalog.resource_pools"
        )
        session.close()
        assert [row[0] for row in result.rows] == ["ETL", "GENERAL"]
        # GENERAL is undropable; a cascade target cannot be dropped
        with pytest.raises(CatalogError):
            db.catalog.drop_resource_pool(GENERAL)
        db.create_resource_pool(ResourcePool("leaf", cascade="ETL"))
        with pytest.raises(CatalogError):
            db.catalog.drop_resource_pool("ETL")
        db.catalog.drop_resource_pool("LEAF")
        db.catalog.drop_resource_pool("ETL")
        with pytest.raises(CatalogError):
            db.catalog.drop_resource_pool("ETL")
        db.catalog.drop_resource_pool("ETL", if_exists=True)

    def test_set_resource_pool_statement(self, db):
        db.create_resource_pool(ResourcePool("premium", priority=10))
        session = db.connect()
        assert session.resource_pool == GENERAL
        session.execute("SET RESOURCE_POOL = premium")
        assert session.resource_pool == "PREMIUM"
        with pytest.raises(CatalogError):
            session.execute("SET RESOURCE_POOL = nosuch")
        session.reset()
        assert session.resource_pool == GENERAL
        session.close()


# --------------------------------------------------------------- admission control
class TestAdmission:
    def _controller(self, env, db, pool):
        db.create_resource_pool(pool)
        return AdmissionController(env, db.catalog)

    def test_admit_and_release(self, env, db):
        wlm = self._controller(
            env, db, ResourcePool("p", memory_mb=100, planned_concurrency=2,
                                  max_concurrency=2))

        def go():
            ticket = yield from wlm.admit("p")
            assert ticket.pool_name == "P"
            assert ticket.queue_wait == 0.0
            assert wlm.state("P").slots.in_use == 1
            assert wlm.state("P").memory.in_use == 50
            ticket.release()
            ticket.release()  # idempotent
            assert wlm.leaked() == {}

        run_process(env, go())

    def test_fifo_within_priority_under_contention(self, env, db):
        wlm = self._controller(
            env, db, ResourcePool("p", memory_mb=64, planned_concurrency=1,
                                  max_concurrency=1, queue_timeout=None))
        order = []

        def worker(name, delay):
            yield env.timeout(delay)
            ticket = yield from wlm.admit("p")
            order.append((name, env.now))
            yield env.timeout(5)
            ticket.release()

        for index, name in enumerate("abc"):
            env.process(worker(name, index * 0.1))
        env.run()
        assert [name for name, __ in order] == ["a", "b", "c"]
        assert wlm.leaked() == {}

    def test_queue_timeout_returns_slots_and_memory(self, env, db):
        wlm = self._controller(
            env, db, ResourcePool("p", memory_mb=64, planned_concurrency=1,
                                  max_concurrency=1, queue_timeout=2.0))
        outcome = {}

        def holder():
            ticket = yield from wlm.admit("p")
            yield env.timeout(10)
            ticket.release()

        def waiter():
            yield env.timeout(0.5)
            try:
                yield from wlm.admit("p")
            except AdmissionTimeout as exc:
                outcome["exc"] = exc
                outcome["at"] = env.now
                # the timed-out claims were fully cancelled: only the
                # holder's grant is outstanding, nothing is queued
                outcome["leaked"] = wlm.leaked()

        env.process(holder())
        env.process(waiter())
        env.run()
        exc = outcome["exc"]
        assert exc.pool == "p"
        assert exc.tried == ("P",)
        assert exc.waited == pytest.approx(2.0)
        assert outcome["at"] == pytest.approx(2.5)
        assert outcome["leaked"] == {"P": (1, 64, 0)}
        # ... and once the holder releases, nothing is held at all
        assert wlm.leaked() == {}

    def test_cascade_overflow(self, env, db):
        db.create_resource_pool(ResourcePool(
            "small", memory_mb=64, planned_concurrency=1, max_concurrency=1,
            queue_timeout=1.0, cascade=GENERAL))
        wlm = AdmissionController(env, db.catalog)
        pools = []

        def holder():
            ticket = yield from wlm.admit("small")
            yield env.timeout(10)
            ticket.release()

        def overflower():
            yield env.timeout(0.1)
            ticket = yield from wlm.admit("small")
            pools.append((ticket.pool_name, ticket.tried))
            ticket.release()

        env.process(holder())
        env.process(overflower())
        env.run()
        assert pools == [("GENERAL", ("SMALL", "GENERAL"))]
        assert wlm.leaked() == {}

    def test_cascade_cycle_raises_instead_of_spinning(self, env, db):
        db.create_resource_pool(ResourcePool(
            "b", memory_mb=64, planned_concurrency=1, max_concurrency=1,
            queue_timeout=0.5))
        db.create_resource_pool(ResourcePool(
            "a", memory_mb=64, planned_concurrency=1, max_concurrency=1,
            queue_timeout=0.5, cascade="b"))
        # close the loop: B now cascades back to A
        db.create_resource_pool(ResourcePool(
            "b", memory_mb=64, planned_concurrency=1, max_concurrency=1,
            queue_timeout=0.5, cascade="a"), or_replace=True)
        wlm = AdmissionController(env, db.catalog)

        def hold_both():
            one = yield from wlm.admit("a")
            two = yield from wlm.admit("b")
            yield env.timeout(10)
            one.release()
            two.release()

        outcome = {}

        def victim():
            yield env.timeout(0.1)
            try:
                yield from wlm.admit("a")
            except AdmissionTimeout as exc:
                outcome["tried"] = exc.tried

        env.process(hold_both())
        env.process(victim())
        env.run()
        assert outcome["tried"] == ("A", "B")


# --------------------------------------------------------------- session pooling
class TestSessionPool:
    def test_checkout_reuses_checked_in_sessions(self, db):
        pool = SessionPool(db, max_idle_per_node=2)
        session, reused = pool.checkout("node0001")
        assert not reused
        pool.checkin(session)
        assert pool.idle_count("node0001") == 1
        again, reused = pool.checkout("node0001")
        assert reused and again is session
        pool.checkin(again)
        pool.close_all()
        assert db.session_count("node0001") == 0

    def test_checkin_resets_session_state(self, db):
        db.create_resource_pool(ResourcePool("premium"))
        pool = SessionPool(db, max_idle_per_node=2)
        session, __ = pool.checkout("node0001", resource_pool="premium")
        session.execute("SET RESULT_CACHE = 'on'")
        assert session.context == PlanContext(True, "PREMIUM")
        pool.checkin(session)
        again, reused = pool.checkout("node0001")
        # the next tenant gets the same connection with every setting reset
        assert reused and again.context == PlanContext()
        pool.close_all()

    def test_idle_cap_evicts_overflow(self, db):
        pool = SessionPool(db, max_idle_per_node=1)
        first, __ = pool.checkout("node0001")
        second, __ = pool.checkout("node0001")
        pool.checkin(first)
        pool.checkin(second)
        assert pool.idle_count("node0001") == 1
        assert db.session_count("node0001") == 1
        pool.close_all()

    def test_down_node_idles_are_evicted(self, db):
        pool = SessionPool(db, max_idle_per_node=2, failover=True)
        session, __ = pool.checkout("node0001")
        pool.checkin(session)
        db.fail_node("node0001")
        replacement, reused = pool.checkout("node0001")
        assert not reused
        assert replacement.node != "node0001"
        assert pool.idle_count("node0001") == 0
        pool.checkin(replacement)
        pool.close_all()

    def test_failover_checkout_on_connection_limit(self):
        db = VerticaDatabase(num_nodes=2, max_client_sessions=1)
        pool = SessionPool(db, max_idle_per_node=2, failover=False)
        near = db.connect("node0001")  # saturate the target node
        far, __ = pool.checkout("node0002")
        pool.checkin(far)
        # node0001 is full and unpoolable, but node0002 has an idle session
        session, reused = pool.checkout("node0001")
        assert reused and session.node == "node0002"
        pool.checkin(session)
        pool.close_all()
        near.close()

    def test_unknown_resource_pool_frees_its_slot(self):
        db = VerticaDatabase(num_nodes=1, max_client_sessions=2)
        pool = SessionPool(db, max_idle_per_node=2)
        reused, __ = pool.checkout()
        pool.checkin(reused)
        # a reused idle session and two fresh ones: none keeps its slot
        for __ in range(3):
            with pytest.raises(CatalogError):
                pool.checkout(resource_pool="nosuchpool")
        assert db.session_count("node0001") == 0
        first, __ = pool.checkout()
        second, __ = pool.checkout()
        assert first.node == second.node == "node0001"
        first.close()
        second.close()

    def test_connect_failover_when_node_full(self):
        db = VerticaDatabase(num_nodes=2, max_client_sessions=1)
        first = db.connect("node0001")
        with pytest.raises(ConnectionLimitError):
            db.connect("node0001")
        session = db.connect("node0001", failover=True)
        assert session.node == "node0002"
        session.close()
        first.close()


# --------------------------------------------------------------- bridge integration
BRIDGE_COST_MODEL = VerticaCostModel(
    connect_latency=0.01,
    query_latency=0.5,
    query_plan_cpu=0.0,
)


class TestBridgeAdmission:
    def _cluster(self, env):
        cluster = SimVerticaCluster(
            env=env, num_nodes=2, cost_model=BRIDGE_COST_MODEL, wlm=True,
            session_pool_size=2,
        )
        cluster.db.create_resource_pool(
            ResourcePool(GENERAL, memory_mb=64, planned_concurrency=1,
                         max_concurrency=1, queue_timeout=30.0),
            or_replace=True,
        )
        session = cluster.db.connect()
        session.execute("CREATE TABLE t (id INTEGER)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.close()
        return cluster

    def test_queue_wait_charged_into_cost_report(self, env):
        cluster = self._cluster(env)
        results = []

        def query():
            with cluster.connect("node0001") as conn:
                result = yield from conn.execute("SELECT * FROM t")
                results.append(result)

        env.process(query())
        env.process(query())
        env.run()
        assert len(results) == 2
        waits = sorted(r.cost.queue_wait_seconds for r in results)
        assert waits[0] == 0.0
        # the second statement queued behind the single-slot pool for
        # roughly the first one's execution time
        assert waits[1] == pytest.approx(0.5, abs=0.1)
        assert {r.cost.resource_pool for r in results} == {GENERAL}
        assert cluster.wlm.leaked() == {}
        snapshot = telemetry.get_registry().snapshot()
        # telemetry is disabled by default: instruments exist only when a
        # fabric installs an enabled registry
        assert snapshot.counters.get("wlm.admissions", 0) == 0

    def test_profile_is_admitted_like_the_query_it_runs(self, env):
        """PROFILE executes the whole query, so it takes a slot too; EXPLAIN
        executes nothing and does not."""
        cluster = self._cluster(env)
        results = {}

        def statement(sql, delay):
            yield env.timeout(delay)
            with cluster.connect("node0001") as conn:
                results[sql.split()[0]] = yield from conn.execute(sql)

        # the SELECT holds the only slot when the other two arrive
        env.process(statement("SELECT * FROM t", 0.0))
        env.process(statement("EXPLAIN SELECT * FROM t", 0.1))
        env.process(statement("PROFILE SELECT * FROM t", 0.1))
        env.run()
        assert results["EXPLAIN"].cost.queue_wait_seconds == 0.0
        profile = results["PROFILE"].cost
        assert profile.queue_wait_seconds > 0
        assert profile.resource_pool == GENERAL
        assert cluster.wlm.leaked() == {}

    def test_a_leading_comment_changes_nothing(self, env):
        """The bridge classifies a statement from its parse, so a leading
        comment skips neither WLM admission nor plan CPU (classifying by
        ``sql.split()[0]`` let ``/* x */ SELECT …`` past both).  Text that
        does not parse raises before admission: it never holds a slot it
        cannot use."""
        model = VerticaCostModel(query_latency=0.002, query_plan_cpu=0.002)
        cluster = SimVerticaCluster(
            env=env, num_nodes=2, cost_model=model, wlm=True
        )
        cluster.db.create_resource_pool(
            ResourcePool(GENERAL, memory_mb=64, planned_concurrency=1,
                         max_concurrency=1, queue_timeout=30.0),
            or_replace=True,
        )
        session = cluster.db.connect()
        session.execute("CREATE TABLE t (id INTEGER)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.close()
        admits = []
        real_admit = cluster.wlm.admit
        cluster.wlm.admit = lambda pool: admits.append(pool) or real_admit(pool)
        plain = "SELECT COUNT(*) FROM t"
        spellings = [plain, "/* x */ " + plain, "-- x\n" + plain]
        seconds = []

        def client():
            with cluster.connect("node0001") as conn:
                yield from conn.execute(plain)  # pays the connect latency
                for sql in spellings:
                    started = env.now
                    yield from conn.execute(sql)
                    seconds.append(env.now - started)
                started = env.now
                with pytest.raises(SqlError):
                    yield from conn.execute("/* x */ SELEC COUNT(*) FROM t")
                assert env.now == started

        env.process(client())
        env.run()
        assert len(seconds) == 3
        assert admits == [GENERAL] * 4  # the unparsable text asked for none
        # every other charge of this model is zero: latency + plan CPU, each time
        assert seconds == [pytest.approx(0.004)] * 3
        assert cluster.wlm.leaked() == {}

    def test_a_malformed_number_raises_before_admission(self, env):
        """``1e`` lexes as a number but has no value: the parse raises
        :class:`SqlError` naming it (not a bare ``ValueError``), before the
        statement asks for a slot or spends a simulated second."""
        cluster = self._cluster(env)
        admits = []
        real_admit = cluster.wlm.admit
        cluster.wlm.admit = lambda pool: admits.append(pool) or real_admit(pool)
        errors = []

        def client():
            with cluster.connect("node0001") as conn:
                yield from conn.execute("SELECT COUNT(*) FROM t")
                for sql in ("SELECT 1e", "INSERT INTO t VALUES (1.5E-)",
                            "SELECT id FROM t WHERE id > ²"):
                    started = env.now
                    with pytest.raises(SqlError) as raised:
                        yield from conn.execute(sql)
                    assert env.now == started
                    errors.append(str(raised.value))

        env.process(client())
        env.run()
        assert errors == [
            "malformed number '1e' at offset 7",
            "malformed number '1.5E-' at offset 22",
            "malformed number '²' at offset 28",
        ]
        assert admits == [GENERAL]  # the COUNT(*) only
        assert cluster.wlm.leaked() == {}

    def test_telemetry_counts_admissions(self):
        env = Environment()
        telemetry.install(telemetry.MetricsRegistry(enabled=True).bind(env))
        try:
            cluster = self._cluster(env)

            def query():
                with cluster.connect("node0001") as conn:
                    yield from conn.execute("SELECT * FROM t")

            env.process(query())
            env.process(query())
            env.run()
            snapshot = telemetry.get_registry().snapshot()
            assert snapshot.counters["wlm.admissions"] == 2.0
            waits = snapshot.histograms["wlm.queue_wait_seconds"]
            assert waits["count"] == 2
            assert waits["max"] > 0.0
            active = [name for name in snapshot.gauges
                      if name.startswith("db.sessions.active.")]
            assert active
        finally:
            telemetry.reset()

    def test_rejection_surfaces_as_admission_timeout(self, env):
        cluster = self._cluster(env)
        cluster.db.create_resource_pool(
            ResourcePool(GENERAL, memory_mb=64, planned_concurrency=1,
                         max_concurrency=1, queue_timeout=0.1),
            or_replace=True,
        )
        outcome = {}

        def slow():
            with cluster.connect("node0001") as conn:
                yield from conn.execute("SELECT * FROM t")

        def rejected():
            yield env.timeout(0.01)
            with cluster.connect("node0001") as conn:
                try:
                    yield from conn.execute("SELECT * FROM t")
                except AdmissionTimeout as exc:
                    outcome["exc"] = exc

        env.process(slow())
        env.process(rejected())
        env.run()
        assert "exc" in outcome
        assert cluster.wlm.leaked() == {}
