"""Runtime replanning for join operators (adaptive query execution).

A plan is optimized against *estimates*; by the time a join has
materialized its inputs the executor holds *observed* row counts, and
the two can disagree by orders of magnitude when statistics are stale.
Each equi-join operator therefore pauses at a checkpoint — after both
inputs are materialized but before the join algorithm (the unstarted
subtree of its work) has begun — and consults the query's
:class:`AdaptiveContext`, which may revise the build side or the join
algorithm for the remainder of that operator:

- ``swap-build`` — the planned build side came in at least
  :data:`MISESTIMATE_FACTOR` times over its estimate and the other side
  is observably smaller, so the hash table is built on the smaller side.
- ``demote-merge`` — the (possibly swapped) build side overflows
  ``JOIN_BUILD_MEMORY_ROWS`` and the keys are sortable, so the hash join
  becomes a merge join instead of building an over-budget table.
- ``promote-hash`` — a merge join planned for an overflow that never
  happened (observed build fits in memory at a fraction of its
  estimate) runs as a hash join.

Decisions never mutate the logical plan — cached plans stay pristine —
and each operator checkpoints exactly once, so replanning is bounded by
the number of joins in the query.  Every decision is recorded as a
:class:`ReplanEvent` that PROFILE renders and tests assert on.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro import telemetry
from repro.vertica.plan.optimizer import JOIN_BUILD_MEMORY_ROWS

#: observed/estimated ratio that counts as an order-of-magnitude miss
MISESTIMATE_FACTOR = 10


class ReplanEvent:
    """One recorded mid-query replan decision."""

    def __init__(self, join_label: str, trigger: str, action: str,
                 estimated_rows: Optional[int], observed_rows: int):
        self.join_label = join_label
        self.trigger = trigger
        self.action = action
        self.estimated_rows = estimated_rows
        self.observed_rows = observed_rows

    def describe(self) -> str:
        estimated = ("unknown" if self.estimated_rows is None
                     else str(self.estimated_rows))
        return (f"{self.join_label}: {self.action} ({self.trigger}: "
                f"estimated {estimated} rows, observed {self.observed_rows})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplanEvent({self.describe()!r})"


class AdaptiveContext:
    """Per-query adaptive-execution state threaded through the operators.

    One context is created per executed SELECT; it carries whether the
    session's ``SET JOIN_STRATEGY`` override pins the algorithm
    (overrides are always respected — the executor never second-guesses
    an explicit strategy) and the list of replan events the query
    accumulated.
    """

    def __init__(self, strategy_override: str = "auto",
                 memory_rows: int = JOIN_BUILD_MEMORY_ROWS,
                 misestimate_factor: int = MISESTIMATE_FACTOR):
        self.strategy_override = strategy_override
        self.memory_rows = memory_rows
        self.misestimate_factor = misestimate_factor
        self.events: List[ReplanEvent] = []

    @property
    def active(self) -> bool:
        """Replanning applies only while the strategy is free."""
        return self.strategy_override == "auto"

    def record(self, join: Any, trigger: str, action: str,
               estimated_rows: Optional[int], observed_rows: int) -> None:
        label = getattr(join, "label", lambda: "join")()
        self.events.append(
            ReplanEvent(label, trigger, action, estimated_rows, observed_rows)
        )
        telemetry.counter("vertica.plan.adaptive.replans").inc()

    # -- operator checkpoints ---------------------------------------------------
    def _sides(self, join: Any, observed_left: int,
               observed_right: int) -> Tuple[dict, dict]:
        observed = {"left": observed_left, "right": observed_right}
        estimated = {
            "left": getattr(join.left, "estimated_rows", None),
            "right": getattr(join.right, "estimated_rows", None),
        }
        return observed, estimated

    def checkpoint(self, join: Any, observed_left: int,
                   observed_right: int) -> Tuple[str, str]:
        """The runtime (build side, algorithm) for a planned equi-join."""
        revise = (self.checkpoint_merge if join.strategy == "merge"
                  else self.checkpoint_hash)
        return revise(join, observed_left, observed_right)

    def checkpoint_hash(self, join: Any, observed_left: int,
                        observed_right: int) -> Tuple[str, str]:
        """Revise a hash join's (build side, algorithm) from observed rows."""
        build = join.build_side or "right"
        if not self.active:
            return build, "hash"
        observed, estimated = self._sides(join, observed_left, observed_right)
        probe = "left" if build == "right" else "right"
        build_estimate = estimated[build]
        if (build_estimate is not None
                and observed[build] >= self.misestimate_factor
                * max(1, build_estimate)
                and observed[probe] < observed[build]):
            self.record(join, "misestimate", "swap-build",
                        build_estimate, observed[build])
            build, probe = probe, build
        strategy = "hash"
        if (observed[build] > self.memory_rows
                and getattr(join, "keys_sortable", False)):
            self.record(join, "build-overflow", "demote-merge",
                        estimated[build], observed[build])
            strategy = "merge"
        return build, strategy

    def checkpoint_merge(self, join: Any, observed_left: int,
                         observed_right: int) -> Tuple[str, str]:
        """Revise a merge join planned around an overflow that never came."""
        build = join.build_side or "right"
        if not self.active:
            return build, "merge"
        observed, estimated = self._sides(join, observed_left, observed_right)
        build_estimate = estimated[build]
        if (build_estimate is not None
                and build_estimate > self.memory_rows
                and observed[build] <= self.memory_rows):
            self.record(join, "misestimate", "promote-hash",
                        build_estimate, observed[build])
            return build, "hash"
        return build, "merge"
