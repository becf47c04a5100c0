"""The layered query pipeline: bind → optimize → execute.

The Vertica execution path is three explicit layers (Shark-style):

1. :mod:`repro.vertica.plan.binder` resolves a parsed
   :class:`~repro.vertica.sql.ast_nodes.Select` against the catalog into a
   tree of typed **logical nodes** (:mod:`repro.vertica.plan.logical`).
2. :mod:`repro.vertica.plan.optimizer` runs a fixed sequence of rewrite
   **rules** over the logical tree — constant folding, hash-range
   tightening (reusing ``extract_hash_range``), predicate pushdown into
   the scan, projection pruning — recording which rules fired.
3. :mod:`repro.vertica.plan.physical` turns the optimized tree into
   **physical operators** executing over columnar batches
   (column name → list-of-values chunks), each recording rows/bytes/time
   stats that feed :class:`~repro.vertica.engine.CostReport` and
   :mod:`repro.telemetry` uniformly.

:mod:`repro.vertica.plan.pipeline` glues the layers together and renders
``EXPLAIN`` (the real optimized operator tree) and ``PROFILE`` (the tree
annotated with per-operator execution stats).
See ``docs/ENGINE.md``.
"""

from repro.vertica.plan.binder import bind_dml_scan, bind_select
from repro.vertica.plan.logical import LogicalPlan
from repro.vertica.plan.optimizer import optimize
from repro.vertica.plan.pipeline import (
    PlanProfile,
    dml_matching_rows,
    execute_select,
    explain_lines,
    optimized_plan,
)

__all__ = [
    "LogicalPlan",
    "PlanProfile",
    "bind_dml_scan",
    "bind_select",
    "dml_matching_rows",
    "execute_select",
    "explain_lines",
    "optimize",
    "optimized_plan",
]
