"""Discrete-event simulation substrate.

This package provides the "cluster hardware" that the rest of the
reproduction runs on: a generator-based discrete-event kernel
(:mod:`repro.sim.kernel`), queued resources (:mod:`repro.sim.resources`),
a max-min fair-share flow network (:mod:`repro.sim.network`), node/cluster
topologies (:mod:`repro.sim.cluster`) and utilisation tracing
(:mod:`repro.sim.trace`).

Protocol code in :mod:`repro.connector` executes *inside* this simulator:
Spark tasks are kernel processes, JDBC transfers are network flows, and
query execution charges CPU time on the owning node.  Unit tests run the
same code with near-zero costs; benchmarks run it with costs calibrated to
the paper's testbed (1 GbE NICs, 16-core machines).
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    KernelStats,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Mutex, Resource, Store
from repro.sim.network import Link, Network
from repro.sim.cluster import Compute, Nic, SimCluster, SimNode
from repro.sim.trace import UsageTrace, bucket_series

__all__ = [
    "AllOf",
    "AnyOf",
    "Compute",
    "Environment",
    "Event",
    "Interrupt",
    "KernelStats",
    "Link",
    "Mutex",
    "Network",
    "Nic",
    "Process",
    "Resource",
    "SimCluster",
    "SimNode",
    "SimulationError",
    "Store",
    "Timeout",
    "UsageTrace",
    "bucket_series",
]
