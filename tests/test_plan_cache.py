"""Tier-1 tests for the plan/prepared-statement cache.

Two levels under test: the *parse* cache (canonical SQL text → shared
AST, skipping the lexer/parser on repeats) and the *plan* cache
(canonical statement + database versions + the session's PlanContext
fingerprint → optimized plan, skipping bind/optimize).  Invalidation is
by catalog version: DDL and ANALYZE bump it, so a cached plan can never
outlive the schema or statistics it was optimized against.
"""

import dataclasses

import pytest

from repro import telemetry
from repro.cache import PlanCache, canonical_sql, statement_digest, statement_shape
from repro.telemetry import MetricsRegistry
from repro.vertica import VerticaDatabase
from repro.vertica.plan import optimized_plan
from repro.vertica.settings import PlanContext
from repro.vertica.sql.parser import parse_statement

QUERY = "SELECT grp, COUNT(*) FROM events GROUP BY grp ORDER BY grp"


@pytest.fixture
def registry():
    reg = telemetry.install(MetricsRegistry(enabled=True))
    yield reg
    telemetry.reset()


def make_db():
    db = VerticaDatabase(num_nodes=3)
    session = db.connect()
    session.execute(
        "CREATE TABLE events (id INTEGER, grp INTEGER, v FLOAT) "
        "SEGMENTED BY HASH(id) ALL NODES"
    )
    values = ", ".join(f"({i}, {i % 4}, {float(i)})" for i in range(24))
    session.execute(f"INSERT INTO events VALUES {values}")
    return db, session


class TestKeys:
    def test_canonical_ignores_whitespace_and_case(self):
        assert canonical_sql("select  id , v\nfrom T where v = 5") == canonical_sql(
            "SELECT id, v FROM t WHERE v = 5"
        )

    def test_canonical_preserves_literals(self):
        assert canonical_sql("SELECT * FROM t WHERE id = 5") != canonical_sql(
            "SELECT * FROM t WHERE id = 6"
        )

    def test_shape_groups_literal_variants(self):
        assert statement_shape("SELECT * FROM t WHERE id = 5") == statement_shape(
            "SELECT * FROM t WHERE id = 99"
        )

    def test_digest_is_stable_and_short(self):
        canonical = canonical_sql(QUERY)
        assert statement_digest(canonical) == statement_digest(canonical)
        assert len(statement_digest(canonical)) == 16


class TestParseCache:
    def test_repeat_skips_the_parser(self, registry):
        db, session = make_db()
        session.execute(QUERY)
        hits_before = registry.counter("vertica.cache.plan.parse_hits").value
        session.execute(QUERY)
        assert registry.counter("vertica.cache.plan.parse_hits").value > hits_before

    def test_spelling_variants_share_one_ast(self):
        db, session = make_db()
        parsed_before = db.plan_cache.parsed_count
        session.execute(QUERY)
        session.execute("select GRP, count(*) from events group by grp order by grp")
        assert db.plan_cache.parsed_count == parsed_before + 1

    def test_literal_variants_share_one_shape(self):
        db, session = make_db()
        shapes_before = db.plan_cache.shape_count
        session.execute("SELECT COUNT(*) FROM events WHERE grp = 1")
        session.execute("SELECT COUNT(*) FROM events WHERE grp = 3")
        assert db.plan_cache.shape_count == shapes_before + 1
        assert db.plan_cache.parsed_count >= 2


class TestPlanCacheHits:
    def test_repeat_skips_bind_and_optimize(self, registry):
        db, session = make_db()
        session.execute(QUERY)
        hits_before = registry.counter("vertica.cache.plan.hits").value
        session.execute(QUERY)
        assert registry.counter("vertica.cache.plan.hits").value > hits_before

    def test_ddl_bumps_version_and_misses(self, registry):
        db, session = make_db()
        session.execute(QUERY)
        session.execute(QUERY)
        version = db.catalog.version
        session.execute("CREATE TABLE bystander (id INTEGER)")
        assert db.catalog.version > version
        misses_before = registry.counter("vertica.cache.plan.misses").value
        session.execute(QUERY)
        assert registry.counter("vertica.cache.plan.misses").value > misses_before

    def test_analyze_bumps_version_and_misses(self, registry):
        db, session = make_db()
        session.execute(QUERY)
        session.execute("ANALYZE events")
        misses_before = registry.counter("vertica.cache.plan.misses").value
        session.execute(QUERY)
        assert registry.counter("vertica.cache.plan.misses").value > misses_before

    def test_plan_context_fields_rekey_iff_plan_relevant(self, registry):
        # A PlanContext field added without a flipped value here fails the
        # lookup below: its author must declare whether it shapes plans.
        flipped = {
            "join_strategy": "merge",
            "result_cache": True,
            "resource_pool": "PREMIUM",
        }
        db, __ = make_db()
        statement = db.plan_cache.parse(QUERY, parse_statement)
        optimized_plan(db.engine, statement, PlanContext())
        misses = registry.counter("vertica.cache.plan.misses")
        for field in dataclasses.fields(PlanContext):
            context = PlanContext(**{field.name: flipped[field.name]})
            before = misses.value
            optimized_plan(db.engine, statement, context)
            assert (misses.value > before) == field.metadata["plan"], field.name

    def test_cached_plan_answers_are_identical(self):
        db, session = make_db()
        cold = session.execute(QUERY)
        warm = session.execute(QUERY)
        assert warm.columns == cold.columns
        assert warm.rows == cold.rows


class TestPlanCacheUnit:
    def test_lru_eviction_at_capacity(self, registry):
        cache = PlanCache(capacity=2, name="test.plan")

        class Stub:
            def __init__(self, key):
                self.cache_key = key

        for n in range(3):
            cache.store_plan(Stub(f"Q{n}"), 1, "auto", object())
        assert cache.plan_count == 2
        assert cache.lookup_plan(Stub("Q0"), 1, "auto") is None
        assert cache.lookup_plan(Stub("Q2"), 1, "auto") is not None
        assert registry.counter("test.plan.evictions").value >= 1

    def test_unstamped_statement_is_never_cached(self):
        cache = PlanCache(capacity=4, name="test.plan")

        class Bare:
            pass

        assert cache.store_plan(Bare(), 1, "auto", object()) is False
        assert cache.lookup_plan(Bare(), 1, "auto") is None
        assert cache.plan_count == 0

    def test_explain_shares_the_inner_query_key(self):
        cache = PlanCache(name="test.plan")
        plain = cache.parse(QUERY, parse_statement)
        explain = cache.parse(f"EXPLAIN {QUERY}", parse_statement)
        assert explain.query.cache_key == plain.cache_key
        assert explain.query.cache_shape == plain.cache_shape
