"""Workload management: resource pools, admission control, session pooling.

The paper's connector assumes it owns the Vertica cluster; the fabric's
north star — serving many concurrent V2S/S2V/MD jobs from shared nodes —
needs the mediation layer real Vertica provides through resource pools.
This package supplies the simulated equivalent:

- :mod:`repro.wlm.pools` — catalog-persisted :class:`ResourcePool`
  definitions (memory budget, PLANNED/MAXCONCURRENCY, priority,
  QUEUETIMEOUT, CASCADE TO) with the built-in ``GENERAL`` default;
- :mod:`repro.wlm.admission` — the :class:`AdmissionController` that
  gates statements through slot + memory grants on the sim clock,
  queueing FIFO-within-priority and raising
  :class:`~repro.vertica.errors.AdmissionTimeout` past QUEUETIMEOUT;
- :mod:`repro.wlm.sessionpool` — the connector-side :class:`SessionPool`
  of reusable node-bound sessions with health-checked checkout/checkin.

Admission is opt-in per cluster (``SimVerticaCluster(wlm=True)``); the
multi-tenant serving run is the ``wlm`` grid area
(:mod:`repro.bench.areas.wlm`) and ``docs/WLM.md`` describes the knobs and telemetry.
"""

from __future__ import annotations

from repro.wlm.admission import AdmissionController, AdmissionTicket
from repro.wlm.pools import GENERAL, ResourcePool, general_pool
from repro.wlm.sessionpool import SessionPool

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "GENERAL",
    "ResourcePool",
    "SessionPool",
    "general_pool",
]
