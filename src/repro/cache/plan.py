"""The prepared-statement / plan cache.

Two levels, both bounded LRU:

- **Parse cache** — canonical statement text → parsed AST, shared by
  every session of a database.  A repeated statement skips the lexer
  and parser entirely; the parsed statement is stamped with its
  canonical key (``cache_key``) and literal-normalized shape
  (``cache_shape``) so downstream tiers key off the same normalization.
- **Plan cache** — (canonical text, database versions, the issuing
  session's ``PlanContext.fingerprint``) → optimized
  :class:`~repro.vertica.plan.logical.LogicalPlan`.
  A repeated SELECT skips bind → optimize.  The versions are the
  catalog's (bumped by DDL, TRUNCATE, and ANALYZE) and the feedback
  corrections'; estimation reads nothing else, so a cached plan is
  bit-identical to a fresh optimize at the same key.  The fingerprint
  holds every plan-relevant session setting, so a plan built under one
  session's settings is never served to a session with different ones.

Literals stay in the plan key on purpose: constant folding, predicate
pushdown, and hash-range segment pruning bake them into the plan, so a
parameterized plan would not be exact.  The literal-normalized *shape*
is still tracked for telemetry (``vertica.cache.plan.shapes``), which is
what a prepared-statement workload shows up as.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from repro import telemetry
from repro.cache.keys import canonical_sql, canonical_tokens, statement_shape

#: default entry cap for each level (parsed statements, optimized plans)
DEFAULT_PLAN_CACHE_ENTRIES = 256

PlanKey = Tuple[str, Hashable, Hashable]


class PlanCache:
    """LRU caches for parsed statements and optimized logical plans."""

    def __init__(
        self,
        capacity: int = DEFAULT_PLAN_CACHE_ENTRIES,
        name: str = "vertica.cache.plan",
    ):
        self.capacity = capacity
        self.name = name
        self._parsed: "OrderedDict[str, Any]" = OrderedDict()
        self._plans: "OrderedDict[PlanKey, Any]" = OrderedDict()
        self._shapes: Dict[str, int] = {}

    # -- parse level ------------------------------------------------------------
    def parse(self, sql: str, parser: Any) -> Any:
        """Parse ``sql`` through the cache; stamps normalization keys.

        ``parser`` is the real parser entry point
        (:func:`~repro.vertica.sql.parser.parse_statement`), injected so
        this package stays import-light.
        """
        canonical = canonical_sql(sql)
        statement = self._parsed.get(canonical)
        if statement is not None:
            self._parsed.move_to_end(canonical)
            telemetry.counter(f"{self.name}.parse_hits").inc()
            return statement
        telemetry.counter(f"{self.name}.parse_misses").inc()
        statement = parser(sql)
        self._stamp(statement, canonical, statement_shape(sql))
        self._parsed[canonical] = statement
        while len(self._parsed) > self.capacity:
            self._parsed.popitem(last=False)
        return statement

    def _stamp(self, statement: Any, canonical: str, shape: str) -> None:
        # Imported lazily: repro.vertica.database imports this package, so a
        # module-level ast import would make ``import repro.cache``
        # order-dependent.
        from repro.vertica.sql import ast_nodes as ast

        statement.cache_key = canonical
        statement.cache_shape = shape
        shape_count = self._shapes.get(shape, 0) + 1
        self._shapes[shape] = shape_count
        telemetry.gauge(f"{self.name}.shapes").set(len(self._shapes))
        if isinstance(statement, (ast.Explain, ast.Profile)):
            # The wrapped query shares the outer statement's normalization
            # minus the leading EXPLAIN/PROFILE keyword, so a profiled
            # query and its plain form hit the same cache entries.
            tokens = canonical_tokens(canonical)
            statement.query.cache_key = " ".join(tokens[1:])
            statement.query.cache_shape = shape.split(" ", 1)[-1]

    # -- plan level --------------------------------------------------------------
    def lookup_plan(
        self, statement: Any, versions: Hashable, fingerprint: Hashable
    ) -> Optional[Any]:
        """The cached optimized plan for ``statement``, or None.

        ``versions`` is the database state the plan was optimized
        against (catalog version, stats-corrections version) and
        ``fingerprint`` the session's plan-relevant settings.  The plan
        optimized before any feedback landed stays cached and pristine,
        while plans optimized against later correction factors get their
        own entries — replans never poison an earlier key.
        """
        canonical = getattr(statement, "cache_key", None)
        if canonical is None:
            return None
        key = (canonical, versions, fingerprint)
        plan = self._plans.get(key)
        if plan is None:
            telemetry.counter(f"{self.name}.misses").inc()
            return None
        self._plans.move_to_end(key)
        telemetry.counter(f"{self.name}.hits").inc()
        return plan

    def store_plan(
        self, statement: Any, versions: Hashable, fingerprint: Hashable,
        plan: Any,
    ) -> bool:
        canonical = getattr(statement, "cache_key", None)
        if canonical is None:
            return False
        self._plans[(canonical, versions, fingerprint)] = plan
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            telemetry.counter(f"{self.name}.evictions").inc()
        return True

    # -- introspection -----------------------------------------------------------
    @property
    def parsed_count(self) -> int:
        return len(self._parsed)

    @property
    def plan_count(self) -> int:
        return len(self._plans)

    @property
    def shape_count(self) -> int:
        return len(self._shapes)

    def clear(self) -> None:
        self._parsed.clear()
        self._plans.clear()
        self._shapes.clear()
