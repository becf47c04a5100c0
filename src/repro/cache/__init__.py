"""Epoch-keyed caching tiers (result cache, plan cache, columnar blocks).

Three cooperating tiers, all made *exact* by machinery the system already
has:

- :class:`~repro.cache.result.ResultCache` — completed SELECT results
  keyed on (normalized statement digest, snapshot epoch, catalog
  version).  A new epoch is a new key, so invalidation is free and a
  stale read is structurally impossible.
- :class:`~repro.cache.plan.PlanCache` — parsed statements and optimized
  logical plans keyed on the canonical statement text plus a catalog
  version bumped by DDL and ANALYZE.
- :class:`~repro.cache.blocks.BlockManager` — per-executor byte-accounted
  LRU store of columnar partition blocks (Shark-style), recomputed from
  lineage when an executor crashes.

See ``docs/CACHING.md`` for the tier-by-tier design.
"""

from repro.cache.blocks import BlockManager, ColumnBlock
from repro.cache.keys import canonical_sql, statement_digest
from repro.cache.plan import PlanCache
from repro.cache.result import CachedResult, ResultCache

__all__ = [
    "BlockManager",
    "CachedResult",
    "ColumnBlock",
    "PlanCache",
    "ResultCache",
    "canonical_sql",
    "statement_digest",
]
