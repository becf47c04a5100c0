"""The prepared-statement / plan cache.

Two levels, both bounded LRU:

- **Parse cache** — canonical statement text → parsed AST, shared by
  every session of a database.  :meth:`PlanCache.parse` is the front
  door of a statement: the text is lexed once (``lexer.lex``), its
  canonical key looked up, and on a miss the parser reads the same
  token list and stamps the AST with that key (``cache_key``), which the
  plan and result tiers then key off.  A repeated statement skips the
  parser entirely.
- **Plan cache** — (canonical text, catalog version) → optimized
  :class:`~repro.vertica.plan.logical.LogicalPlan`.
  A repeated SELECT skips bind → optimize.  The catalog version is
  bumped by DDL, TRUNCATE, and ANALYZE — the only writer of the
  statistics estimation reads — and no session setting reaches the
  optimizer, so a cached plan is what a fresh optimize at the same key
  builds, with one known seam: an *unanalyzed* table's estimate reads
  its container row counts, which loads change without moving the
  version (docs/CACHING.md).

Literals stay in the key on purpose: constant folding, predicate
pushdown, and hash-range segment pruning bake them into the plan, so a
parameterized plan would not be exact.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro import telemetry
from repro.cache.lru import BoundedLru

#: default entry cap for each level (parsed statements, optimized plans)
DEFAULT_PLAN_CACHE_ENTRIES = 256


class PlanCache:
    """LRU caches for parsed statements and optimized logical plans."""

    def __init__(
        self,
        capacity: int = DEFAULT_PLAN_CACHE_ENTRIES,
        name: str = "vertica.cache.plan",
    ):
        self.capacity = capacity
        self.name = name
        self._parsed = BoundedLru(capacity)
        self._plans = BoundedLru(capacity)

    # -- parse level ------------------------------------------------------------
    def parse(self, sql: str, parser: Any) -> Any:
        """The parsed statement for ``sql``: one lexing, at most one parse.

        ``parser`` is the real parser entry point
        (:func:`~repro.vertica.sql.parser.parse_statement`), injected so
        this package stays import-light.
        """
        # Imported lazily: the lexer lives under repro.vertica, whose
        # database module imports this package — a module-level import
        # here would make ``import repro.cache`` order-dependent.
        from repro.vertica.sql.lexer import lex

        lexed = lex(sql)
        statement = self._parsed.get(lexed[1])
        if statement is not None:
            telemetry.counter(f"{self.name}.parse_hits").inc()
            return statement
        telemetry.counter(f"{self.name}.parse_misses").inc()
        statement = parser(sql, lexed)
        self._parsed.put(statement.cache_key, statement)
        return statement

    # -- plan level --------------------------------------------------------------
    def lookup_plan(self, statement: Any, version: Hashable) -> Optional[Any]:
        """The cached optimized plan for ``statement``, or None.

        ``version`` is the catalog version the plan was optimized
        against.  A statement built in code (``cache_key`` None) is never
        cached.
        """
        if statement.cache_key is None:
            return None
        plan = self._plans.get((statement.cache_key, version))
        if plan is None:
            telemetry.counter(f"{self.name}.misses").inc()
            return None
        telemetry.counter(f"{self.name}.hits").inc()
        return plan

    def store_plan(self, statement: Any, version: Hashable, plan: Any) -> bool:
        if statement.cache_key is None:
            return False
        evicted = self._plans.put((statement.cache_key, version), plan)
        if evicted:
            telemetry.counter(f"{self.name}.evictions").inc(evicted)
        return True

    # -- introspection -----------------------------------------------------------
    @property
    def parsed_count(self) -> int:
        return len(self._parsed)

    @property
    def plan_count(self) -> int:
        return len(self._plans)
