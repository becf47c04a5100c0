"""Chaos engineering for the fabric: seeded fault injection + auditing.

The paper's §3 protocols (S2V exactly-once, V2S snapshot reads) claim
correctness under arbitrary task failure, duplication and restart.  This
package turns that claim into an executable property:

- :mod:`~repro.chaos.schedule` — declarative, seed-reproducible fault
  plans (executor crashes, link partitions, Vertica node restarts, lock
  storms, connection severing, probe kills);
- :mod:`~repro.chaos.controller` — interprets a schedule against a live
  fabric, recording every injection into telemetry;
- :mod:`~repro.chaos.invariants` — audits the database afterwards:
  exactly-once data, truthful job status, no leaked locks / sessions /
  temp tables, single-epoch V2S snapshots.

See ``docs/CHAOS.md`` for the operator guide and
:mod:`repro.bench.areas.chaos` for the many-seed soak (the grid's
``chaos`` area).
"""

from repro.chaos.controller import ChaosController, InjectionRecord
from repro.chaos.invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
)
from repro.chaos.schedule import (
    ALL_FAMILIES,
    ChaosAction,
    ChaosError,
    ChaosSchedule,
    ExecutorCrash,
    FAMILIES,
    LinkDegrade,
    LockStorm,
    PoolStorm,
    ProbeRule,
    StatementRule,
    VerticaRestart,
)

__all__ = [
    "ALL_FAMILIES",
    "ChaosAction",
    "ChaosController",
    "ChaosError",
    "ChaosSchedule",
    "ExecutorCrash",
    "FAMILIES",
    "InjectionRecord",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "LinkDegrade",
    "LockStorm",
    "PoolStorm",
    "ProbeRule",
    "StatementRule",
    "VerticaRestart",
]
