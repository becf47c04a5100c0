"""Tier-1 tests for the epoch-keyed server-side result cache.

The cache memoises SELECT answers under (canonical statement, snapshot
epoch, catalog version).  The contract under test is the differential
one: a warm execution must be byte-identical to a cold one — same
columns, same rows, same CostReport fields — and every write path
(epoch-advancing DML, version-bumping DDL/TRUNCATE/ANALYZE, staged
transaction state) must invalidate or bypass before a stale answer can
escape.  A final hypothesis matrix interleaves reads with random
DML/DDL/ANALYZE and compares a caching session against a cache-off
session statement by statement.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cache import ResultCache, canonical_sql
from repro.sim import Environment
from repro.telemetry import MetricsRegistry
from repro.vertica import VerticaDatabase
from repro.vertica.engine import COST_COUNTERS, CostReport
from repro.vertica.errors import SqlError
from repro.wlm import AdmissionController, ResourcePool
from tests.udx_adapter import per_row

# Identical to the plan-differential matrix: any drift in these fields
# would silently change every benchmark via the JDBC cost bridge.
COST_FIELDS = [name for pair in COST_COUNTERS for name in pair]
#: CostReport attributes a cache hit does not add, and why
NOT_REPLAYED = {
    "queue_wait_seconds": "this execution's own admission wait",
    "resource_pool": "this execution's own pool",
    "cache_hit": "set by the hit itself",
}

QUERY = "SELECT grp, COUNT(*), SUM(v) FROM metrics GROUP BY grp ORDER BY grp"


@pytest.fixture
def registry():
    reg = telemetry.install(MetricsRegistry(enabled=True))
    yield reg
    telemetry.reset()


def make_db(num_nodes=3, rows=40):
    db = VerticaDatabase(num_nodes=num_nodes)
    db.result_cache_default = True
    session = db.connect()
    session.execute(
        "CREATE TABLE metrics (id INTEGER, grp INTEGER, v FLOAT) "
        "SEGMENTED BY HASH(id) ALL NODES"
    )
    values = ", ".join(f"({i}, {i % 5}, {float(i % 7)})" for i in range(rows))
    session.execute(f"INSERT INTO metrics VALUES {values}")
    return db, session


def assert_same_result(warm, cold):
    assert warm.columns == cold.columns
    assert warm.rows == cold.rows
    for field in COST_FIELDS:
        assert getattr(warm.cost, field) == getattr(cold.cost, field), field


def test_cost_report_fields_are_declared():
    """A counter added to CostReport but not to COST_COUNTERS would be
    charged cold and silently dropped warm; its author must declare it
    (added on a hit) or exempt it here with the reason."""
    assert set(vars(CostReport())) == set(COST_FIELDS) | set(NOT_REPLAYED)
    report = CostReport()
    report.output("n1", 8.0, rows=2)
    report.scanned("n1", 3)
    report.aggregated("n2", 3)
    report.wrote("n2")
    report.shuffled("n2", 4)
    report.shuffled("n1")
    added = CostReport().add(report)
    assert {f: getattr(added, f) for f in COST_FIELDS} == {
        f: getattr(report, f) for f in COST_FIELDS}
    assert list(added.node_rows_shuffled) == ["n2", "n1"]
    added.add(report)
    assert added.rows_shuffled == 10
    assert added.node_rows_shuffled == {"n2": 8, "n1": 2}
    assert report.rows_shuffled == 5  # the added report is left as it was


class TestHitPath:
    def test_warm_execution_identical_to_cold(self):
        db, session = make_db()
        cold = session.execute(QUERY)
        assert cold.cost.cache_hit is False
        warm = session.execute(QUERY)
        assert warm.cost.cache_hit is True
        assert_same_result(warm, cold)
        assert warm.snapshot_epoch == cold.snapshot_epoch

    def test_spelling_variants_share_one_entry(self):
        db, session = make_db()
        session.execute(QUERY)
        restyled = session.execute(
            "select GRP, count(*), sum(V)  from metrics group by grp order by grp"
        )
        assert restyled.cost.cache_hit is True
        assert len(db.result_cache) == 1

    def test_different_literals_are_different_entries(self):
        db, session = make_db()
        a = session.execute("SELECT COUNT(*) FROM metrics WHERE grp = 1")
        b = session.execute("SELECT COUNT(*) FROM metrics WHERE grp = 2")
        assert a.cost.cache_hit is False
        assert b.cost.cache_hit is False
        assert len(db.result_cache) == 2

    def test_hit_and_store_counters(self, registry):
        db, session = make_db()
        session.execute(QUERY)
        session.execute(QUERY)
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.hits"] >= 1
        assert counters["vertica.cache.result.stores"] >= 1


class TestSessionToggle:
    def test_set_result_cache_off_disables(self):
        db, session = make_db()
        session.execute("SET RESULT_CACHE = 'off'")
        start = len(db.result_cache)
        session.execute(QUERY)
        second = session.execute(QUERY)
        assert second.cost.cache_hit is False
        assert len(db.result_cache) == start

    def test_set_result_cache_back_on(self):
        db, session = make_db()
        session.execute("SET RESULT_CACHE = 'off'")
        session.execute(QUERY)
        session.execute("SET RESULT_CACHE = 'on'")
        miss = session.execute(QUERY)
        assert miss.cost.cache_hit is False
        assert session.execute(QUERY).cost.cache_hit is True

    def test_invalid_value_rejected(self):
        db, session = make_db()
        with pytest.raises(SqlError):
            session.execute("SET RESULT_CACHE = 'maybe'")

    def test_database_default_off(self):
        db = VerticaDatabase(num_nodes=2)
        assert db.result_cache_default is False
        session = db.connect()
        session.execute("CREATE TABLE t (id INTEGER)")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("SELECT id FROM t")
        repeat = session.execute("SELECT id FROM t")
        assert repeat.cost.cache_hit is False
        assert len(db.result_cache) == 0


class TestInvalidation:
    def test_insert_advances_epoch_and_invalidates(self):
        db, session = make_db()
        before = session.execute(QUERY)
        session.execute("INSERT INTO metrics VALUES (1000, 0, 1.0)")
        after = session.execute(QUERY)
        assert after.cost.cache_hit is False
        assert after.rows != before.rows
        assert session.execute(QUERY).cost.cache_hit is True

    def test_at_epoch_pins_the_old_answer(self):
        db, session = make_db()
        base = session.execute(QUERY)
        epoch = base.snapshot_epoch
        session.execute("INSERT INTO metrics VALUES (1000, 0, 1.0)")
        pinned = session.execute(f"AT EPOCH {epoch} {QUERY}")
        assert pinned.rows == base.rows
        again = session.execute(f"AT EPOCH {epoch} {QUERY}")
        assert again.cost.cache_hit is True
        assert again.rows == base.rows

    def test_truncate_bumps_catalog_version(self):
        # TRUNCATE discards rows without advancing an epoch — the catalog
        # version bump is the only thing keeping the old answer out.
        db, session = make_db()
        full = session.execute(QUERY)
        assert full.rows
        version = db.catalog.version
        session.execute("TRUNCATE TABLE metrics")
        assert db.catalog.version > version
        empty = session.execute(QUERY)
        assert empty.cost.cache_hit is False
        assert empty.rows == []

    def test_unrelated_ddl_invalidates(self):
        db, session = make_db()
        session.execute(QUERY)
        session.execute("CREATE TABLE bystander (id INTEGER)")
        miss = session.execute(QUERY)
        assert miss.cost.cache_hit is False
        assert session.execute(QUERY).cost.cache_hit is True

    def test_analyze_invalidates(self):
        # New statistics change plan choice without an epoch; the version
        # bump re-keys both caches.
        db, session = make_db()
        session.execute(QUERY)
        version = db.catalog.version
        session.execute("ANALYZE metrics")
        assert db.catalog.version > version
        assert session.execute(QUERY).cost.cache_hit is False


class TestOneEntryPerStatement:
    """The cache holds each statement's newest snapshot only: a write moves
    the epoch, so the next reader's store replaces the answer no new
    reader would ask for again."""

    def test_interleaved_writes_leave_one_entry_per_statement(self):
        db, session = make_db()
        for k in range(6):
            for sql in READS:
                session.execute(sql)
            session.execute(f"INSERT INTO metrics VALUES ({1000 + k}, {k % 5}, 1.0)")
        for sql in READS:
            session.execute(sql)
        assert len(db.result_cache) == len(READS)

    def test_a_newer_snapshot_displaces_the_older_entry(self):
        db, session = make_db()
        old = session.execute(QUERY)
        session.execute("INSERT INTO metrics VALUES (1000, 0, 1.0)")
        new = session.execute(QUERY)
        assert new.cost.cache_hit is False
        assert new.snapshot_epoch > old.snapshot_epoch
        key, version = canonical_sql(QUERY), db.catalog.version
        assert (key, new.snapshot_epoch, version) in db.result_cache
        assert (key, old.snapshot_epoch, version) not in db.result_cache
        assert len(db.result_cache) == 1

        pinned = session.execute(f"AT EPOCH {old.snapshot_epoch} {QUERY}")
        assert pinned.cost.cache_hit is False
        assert pinned.rows == old.rows
        assert (key, new.snapshot_epoch, version) in db.result_cache
        assert session.execute(QUERY).cost.cache_hit is True

    def test_an_older_snapshot_never_displaces_a_newer_entry(self):
        db, pinned = make_db()
        other = db.connect()
        pinned.execute("BEGIN")
        old = pinned.execute(QUERY)  # pins the snapshot and caches at it
        other.execute("INSERT INTO metrics VALUES (1000, 0, 1.0)")
        new = other.execute(QUERY)  # a newer snapshot's answer displaces it
        assert new.cost.cache_hit is False
        assert new.rows != old.rows
        digest = canonical_sql(QUERY)
        line = TestExplainAgreesWithTheSelect.cache_line
        assert line(pinned).startswith("RESULT CACHE: miss")
        assert line(pinned).endswith(f"epoch {old.snapshot_epoch})")
        assert line(other).startswith("RESULT CACHE: hit")
        assert line(other).endswith(f"epoch {new.snapshot_epoch})")

        again = pinned.execute(QUERY)
        assert again.cost.cache_hit is False
        assert again.rows == old.rows
        # the pinned reader's store is refused; the newer entry stays
        version = db.catalog.version
        assert (digest, new.snapshot_epoch, version) in db.result_cache
        assert (digest, old.snapshot_epoch, version) not in db.result_cache
        assert line(pinned).startswith("RESULT CACHE: miss")
        assert other.execute(QUERY).cost.cache_hit is True
        pinned.execute("COMMIT")

    def test_newest_orders_by_catalog_version_then_epoch(self):
        cache = ResultCache()
        assert cache.store("q", 5, 1, ["x"], [(1,)], None) is True
        assert cache.store("q", 4, 1, ["x"], [(2,)], None) is False
        assert cache.lookup("q", 5, 1).rows == [(1,)]
        assert cache.lookup("q", 4, 1) is None
        # a later catalog version is newer whatever its epoch
        assert cache.store("q", 3, 2, ["x"], [(3,)], None) is True
        assert cache.lookup("q", 5, 1) is None
        assert cache.lookup("q", 3, 2).rows == [(3,)]
        assert len(cache) == 1
        assert cache.used_bytes == cache.lookup("q", 3, 2).nbytes


class TestBypass:
    def test_staged_transaction_writes_bypass(self, registry):
        db, session = make_db()
        entries = len(db.result_cache)
        session.execute("BEGIN")
        session.execute("INSERT INTO metrics VALUES (5000, 1, 2.0)")
        result = session.execute(QUERY)
        session.execute("ROLLBACK")
        # Read-your-writes: the staged row is visible but never cached.
        assert any(row[0] == 1 and row[1] == 9 for row in result.rows)
        assert len(db.result_cache) == entries
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.bypass.txn_writes"] >= 1

    def test_system_tables_bypass(self, registry):
        db, session = make_db()
        entries = len(db.result_cache)
        session.execute("SELECT table_name FROM V_CATALOG.TABLES")
        session.execute("SELECT table_name FROM V_CATALOG.TABLES")
        assert len(db.result_cache) == entries
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.bypass.system_table"] >= 2


    def test_system_table_under_a_view_bypasses(self, registry):
        """What a statement reads is asked of its parse and of every view
        body beneath it; sniffing the outer text for ``V_CATALOG`` served
        a node's old state from the cache after it failed."""
        db, session = make_db(num_nodes=3)
        session.execute(
            "CREATE VIEW nodes_v AS "
            "SELECT node_name, node_state FROM v_catalog.nodes"
        )
        session.execute("CREATE VIEW nodes_vv AS SELECT * FROM nodes_v")
        for view in ("nodes_v", "nodes_vv"):
            query = f"SELECT node_name, node_state FROM {view} ORDER BY node_name"
            before = session.execute(query)
            assert [state for __, state in before.rows] == ["UP"] * 3
            db.fail_node(db.node_names[2])
            after = session.execute(query)
            direct = session.execute(
                "SELECT node_name, node_state FROM v_catalog.nodes "
                "ORDER BY node_name"
            )
            assert after.cost.cache_hit is False
            assert after.rows == direct.rows
            assert after.rows[2][1] == "DOWN"
            db.recover_node(db.node_names[2])
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.bypass.system_table"] == 6
        assert len(db.result_cache) == 0

    def test_udx_bypasses_directly_and_under_a_view(self, registry):
        db, session = make_db()
        factor = [2.0]
        db.udx.register("scaled", per_row(lambda args, params: args[0] * factor[0]))
        session.execute(
            "CREATE VIEW scaled_v AS SELECT id, scaled(v) AS s FROM metrics"
        )
        session.execute("CREATE VIEW scaled_vv AS SELECT id, s FROM scaled_v")
        queries = [
            "SELECT scaled(v) AS s FROM metrics WHERE id = 3",
            "SELECT s FROM scaled_v WHERE id = 3",
            "SELECT s FROM scaled_vv WHERE id = 3",
        ]
        for query in queries:
            assert session.execute(query).rows == [(6.0,)]
        factor[0] = 10.0  # the function's answer changes with no epoch
        for query in queries:
            result = session.execute(query)
            assert result.rows == [(30.0,)] and result.cost.cache_hit is False
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.bypass.udx"] == 6
        assert "vertica.cache.result.bypass.system_table" not in counters

    def test_names_that_only_look_special_are_cached(self, registry):
        """A literal or a user table merely containing ``V_CATALOG``, or a
        column named like a registered UDx, is an ordinary statement."""
        db, session = make_db()
        db.udx.register("grp", per_row(lambda args, params: None))
        session.execute(
            "CREATE TABLE my_v_catalog_copy (id INTEGER, note VARCHAR(40))"
        )
        session.execute(
            "INSERT INTO my_v_catalog_copy VALUES (1, 'from V_CATALOG.NODES')"
        )
        for query in (
            "SELECT id FROM my_v_catalog_copy",
            "SELECT id FROM metrics WHERE id = 1 AND 'V_MONITOR.x' = 'V_MONITOR.x'",
            "SELECT grp FROM metrics WHERE id = 1",
        ):
            assert session.execute(query).cost.cache_hit is False
            assert session.execute(query).cost.cache_hit is True, query
        assert "vertica.cache.result.bypass" not in registry.snapshot().counters


class TestEviction:
    def test_lru_eviction_under_byte_pressure(self, registry):
        db, session = make_db()
        session.execute(QUERY)
        one_entry = db.result_cache.used_bytes
        assert one_entry > 0
        db.result_cache = ResultCache(budget_bytes=int(one_entry * 2.5))
        for floor in range(1, 5):
            # Same full answer each time (every grp is >= -floor), so each
            # distinct literal stores an entry the size of the first one.
            session.execute(
                f"SELECT grp, COUNT(*), SUM(v) FROM metrics "
                f"WHERE grp >= -{floor} GROUP BY grp ORDER BY grp"
            )
        cache = db.result_cache
        assert 1 <= len(cache) <= 2
        assert cache.used_bytes <= cache.budget_bytes
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.evictions"] >= 2

    def test_oversized_result_refused(self, registry):
        db, session = make_db()
        db.result_cache = ResultCache(budget_bytes=16)
        session.execute(QUERY)
        repeat = session.execute(QUERY)
        assert repeat.cost.cache_hit is False
        assert len(db.result_cache) == 0
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.rejected"] >= 2


class TestWlmAccounting:
    def test_store_charges_pool_and_clear_releases(self):
        env = Environment()
        db, session = make_db()
        wlm = AdmissionController(env, db.catalog)
        db.result_cache.attach_account(wlm.cache_account("GENERAL"))
        session.execute(QUERY)
        state = wlm.state("GENERAL")
        assert db.result_cache.reserved_mb >= 1
        assert state.cache_mb == db.result_cache.reserved_mb
        # Cache residency is not a leak: tickets were all released.
        assert wlm.leaked() == {}
        db.result_cache.clear()
        assert db.result_cache.reserved_mb == 0
        assert state.cache_mb == 0

    def test_grow_denied_when_pool_is_full(self, registry):
        env = Environment()
        db = VerticaDatabase(num_nodes=2)
        db.catalog.create_resource_pool(
            ResourcePool(
                "TINY", memory_mb=2, planned_concurrency=1, max_concurrency=1
            )
        )
        wlm = AdmissionController(env, db.catalog)
        account = wlm.cache_account("TINY")
        assert account.grow(2) is True
        assert account.grow(1) is False
        assert account.reserved_mb == 2
        account.shrink(1)
        assert account.reserved_mb == 1
        counters = registry.snapshot().counters
        assert counters["wlm.pool.TINY.cache_grow_denied"] >= 1
        account.shrink(1)
        assert wlm.leaked() == {}

    def test_store_refused_when_pool_cannot_grant(self):
        env = Environment()
        db, session = make_db()
        db.catalog.create_resource_pool(
            ResourcePool(
                "CRAMPED", memory_mb=1, planned_concurrency=1, max_concurrency=1
            )
        )
        wlm = AdmissionController(env, db.catalog)
        account = wlm.cache_account("CRAMPED")
        # Exhaust the pool so the cache's first MB grant must fail.
        filler = wlm.cache_account("CRAMPED")
        assert filler.grow(1) is True
        db.result_cache.attach_account(account)
        repeat_a = session.execute(QUERY)
        repeat_b = session.execute(QUERY)
        assert repeat_a.cost.cache_hit is False
        assert repeat_b.cost.cache_hit is False
        assert len(db.result_cache) == 0
        filler.shrink(1)


class TestExplainAndProfile:
    def test_explain_reports_miss_then_hit(self):
        db, session = make_db()
        plan = session.execute(f"EXPLAIN {QUERY}")
        assert plan.columns == ["QUERY_PLAN"]
        lines = [row[0] for row in plan.rows]
        assert any(line.startswith("RESULT CACHE: miss") for line in lines)
        # EXPLAIN itself must not populate or warm the cache.
        assert len(db.result_cache) == 0
        session.execute(QUERY)
        plan = session.execute(f"EXPLAIN {QUERY}")
        lines = [row[0] for row in plan.rows]
        assert any(line.startswith("RESULT CACHE: hit") for line in lines)

    def test_explain_silent_when_cache_off(self):
        db, session = make_db()
        session.execute("SET RESULT_CACHE = 'off'")
        plan = session.execute(f"EXPLAIN {QUERY}")
        assert not any("RESULT CACHE" in row[0] for row in plan.rows)

    def test_profile_hit_replays_cost(self):
        db, session = make_db()
        cold = session.execute(QUERY)
        report = session.execute(f"PROFILE {QUERY}")
        lines = [row[0] for row in report.rows]
        assert lines[0].startswith("RESULT CACHE: hit")
        assert report.query_result.rows == cold.rows
        assert report.cost.cache_hit is True
        for field in COST_FIELDS:
            assert getattr(report.cost, field) == getattr(cold.cost, field)

    def test_hit_and_miss_profiles_print_one_cost_line(self):
        db, session = make_db()
        miss = [row[0] for row in session.execute(f"PROFILE {QUERY}").rows]
        hit = [row[0] for row in session.execute(f"PROFILE {QUERY}").rows]
        assert hit[0].startswith("RESULT CACHE: hit")
        assert not any(line.startswith("RESULT CACHE") for line in miss)
        (cost_line,) = [line for line in miss if line.startswith("COST: ")]
        assert [line for line in hit if line.startswith("COST: ")] == [cost_line]
        assert cost_line == (
            "COST: rows scanned: 40, rows aggregated: 40, rows output: 5, "
            "bytes output: 120, rows written: 0, rows shuffled: 0"
        )

    def test_a_hit_keeps_the_joins_shuffle(self):
        db, session = make_db(num_nodes=4)
        session.execute(
            "CREATE TABLE t (a INTEGER) SEGMENTED BY HASH(a) ALL NODES"
        )
        session.execute(
            "INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(40))
        )
        session.execute(
            "CREATE TABLE u (a2 INTEGER, z INTEGER) SEGMENTED BY HASH(z) ALL NODES"
        )
        session.execute(
            "INSERT INTO u VALUES "
            + ", ".join(f"({i}, {100 - i})" for i in range(10))
        )
        sql = "PROFILE SELECT a, z FROM t JOIN u ON a = a2"
        miss = [row[0] for row in session.execute(sql).rows]
        hit_report = session.execute(sql)
        hit = [row[0] for row in hit_report.rows]
        assert hit[0].startswith("RESULT CACHE: hit")
        (cost_line,) = [line for line in miss if line.startswith("COST: ")]
        assert [line for line in hit if line.startswith("COST: ")] == [cost_line]
        assert cost_line.endswith(", rows shuffled: 30")
        assert hit_report.cost.rows_shuffled == 30
        assert sum(hit_report.cost.node_rows_shuffled.values()) == 30


class TestExplainAgreesWithTheSelect:
    """EXPLAIN's RESULT CACHE line is the decision the SELECT it describes
    would take in the same transaction: at the transaction's snapshot, and
    bypassed when the transaction has staged writes."""

    @staticmethod
    def cache_line(session):
        plan = session.execute(f"EXPLAIN {QUERY}")
        (line,) = [r[0] for r in plan.rows if r[0].startswith("RESULT CACHE")]
        return line

    def test_staged_writes_bypass_in_explain_too(self):
        db, session = make_db()
        cached = session.execute(QUERY)
        session.execute("BEGIN")
        session.execute("INSERT INTO metrics VALUES (100, 1, 50.0)")
        assert self.cache_line(session) == "RESULT CACHE: bypass (txn_writes)"
        staged = session.execute(QUERY)
        assert staged.cost.cache_hit is False
        assert staged.rows != cached.rows
        session.execute("ROLLBACK")

    def test_a_pinned_snapshot_is_probed_at_its_epoch(self):
        db, session = make_db()
        other = db.connect()
        session.execute("BEGIN")
        session.execute(QUERY)  # pins the snapshot and caches at it
        pinned = db.epochs.current
        other.execute("INSERT INTO metrics VALUES (100, 1, 50.0)")
        assert db.epochs.current > pinned
        line = self.cache_line(session)
        assert line.startswith("RESULT CACHE: hit")
        assert line.endswith(f"epoch {pinned})")
        assert session.execute(QUERY).cost.cache_hit is True
        session.execute("COMMIT")

    def test_explain_pins_no_snapshot(self):
        db, session = make_db()
        other = db.connect()
        session.execute("BEGIN")
        before = db.epochs.current
        assert self.cache_line(session).endswith(f"epoch {before})")
        other.execute("INSERT INTO metrics VALUES (100, 1, 50.0)")
        # the transaction's first read fixes the snapshot, after the insert
        rows = session.execute("SELECT COUNT(*) FROM metrics").rows
        assert rows == [(41,)]
        session.execute("COMMIT")

    def test_an_uncacheable_statement_says_why(self):
        db, session = make_db()
        plan = session.execute("EXPLAIN SELECT * FROM v_catalog.nodes")
        lines = [row[0] for row in plan.rows]
        assert lines[-1] == "RESULT CACHE: bypass (system_table)"


# ----------------------------------------------------------------- hypothesis
READS = (
    QUERY,
    "SELECT COUNT(*) FROM metrics WHERE grp = 2",
    "SELECT SUM(v) FROM metrics",
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    ops=st.lists(
        st.sampled_from(
            ["read0", "read1", "read2", "insert", "analyze", "ddl", "truncate"]
        ),
        min_size=2,
        max_size=12,
    )
)
def test_random_interleavings_match_cache_off(ops):
    """Differential matrix: a caching session and a cache-off session run
    the same DML/DDL/ANALYZE interleaving and must agree on every read."""
    cached_db, cached = make_db(rows=24)
    cold_db, cold = make_db(rows=24)
    cold.execute("SET RESULT_CACHE = 'off'")
    next_id = 24
    ddl_n = 0
    for op in ops:
        if op.startswith("read"):
            sql = READS[int(op[-1])]
            a = cached.execute(sql)
            b = cold.execute(sql)
            assert_same_result(a, b)
            continue
        if op == "insert":
            sql = f"INSERT INTO metrics VALUES ({next_id}, {next_id % 5}, 1.5)"
            next_id += 1
        elif op == "analyze":
            sql = "ANALYZE metrics"
        elif op == "truncate":
            sql = "TRUNCATE TABLE metrics"
        else:
            sql = f"CREATE TABLE scratch_{ddl_n} (id INTEGER)"
            ddl_n += 1
        cached.execute(sql)
        cold.execute(sql)
    # Final sweep: every read agrees after the dust settles, twice (the
    # second pass reads through whatever the first pass populated).
    for __ in range(2):
        for sql in READS:
            assert_same_result(cached.execute(sql), cold.execute(sql))
