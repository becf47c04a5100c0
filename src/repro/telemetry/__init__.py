"""Fabric telemetry: counters, gauges, histograms and spans.

The paper's claims are quantitative — Table 2's resource utilisation,
Figures 6–12's runtime curves, §3.2's exactly-once behaviour under
retries and speculation — yet measuring *why* the fabric behaves as it
does requires observing connector-internal events: attempts launched,
speculative duplicates, COPY chunks, lock contention, per-phase S2V
latencies.  This package is that observation layer.

Design:

- **Disabled by default, near-zero overhead when off.**  A single global
  :class:`~repro.telemetry.registry.MetricsRegistry` is consulted through
  the module-level helpers below.  While disabled, every helper returns a
  shared no-op instrument, so instrumented code pays only a couple of
  attribute lookups per event and allocates nothing.
- **Sim-time aware.**  A registry is *bound* to a simulation
  :class:`~repro.sim.Environment`; spans read the simulated clock,
  so durations are simulated seconds, not wall time.
- **Hierarchical spans.**  ``with telemetry.span("s2v.phase1", task=i):``
  records a timed interval; nesting is tracked per simulation process, so
  interleaved task attempts do not corrupt each other's ancestry.
- **One reporting path.**  :class:`~repro.telemetry.snapshot.MetricsSnapshot`
  freezes counters, histogram summaries, span records, registered
  :class:`~repro.sim.UsageTrace` series and the kernel's scheduling stats
  into a single object; its ``render()`` is the plain-text telemetry
  section and ``Fabric.metrics_snapshot()`` the way a bench fabric
  produces one (no harness renders it by default).

Typical use (every bench ``Fabric`` does this when it is built)::

    from repro import telemetry

    registry = telemetry.MetricsRegistry(enabled=True)
    registry.bind(env)
    telemetry.install(registry)
    ...            # run the workload
    snapshot = registry.snapshot()
    telemetry.reset()
"""

from __future__ import annotations

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SPAN,
)
from repro.telemetry.snapshot import MetricsSnapshot
from repro.telemetry.spans import Span, SpanRecord

#: the process-global registry; starts disabled so plain unit tests and
#: cost-model runs never pay for metric bookkeeping
_REGISTRY = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The currently installed global registry (possibly disabled)."""
    return _REGISTRY


def install(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the global registry; returns it."""
    global _REGISTRY
    _REGISTRY = registry
    return registry


def reset() -> None:
    """Replace the global registry with a fresh disabled one."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry(enabled=False)


def enabled() -> bool:
    return _REGISTRY.enabled


# -- instrument accessors on the global registry -----------------------------
def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)


def span(name: str, **tags):
    return _REGISTRY.span(name, **tags)


def now() -> float:
    return _REGISTRY.now()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_SPAN",
    "Span",
    "SpanRecord",
    "counter",
    "enabled",
    "gauge",
    "get_registry",
    "histogram",
    "install",
    "now",
    "reset",
    "span",
]
