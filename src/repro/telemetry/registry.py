"""The metrics registry: counters, gauges, histograms and spans.

Instruments are created lazily by name.  A *disabled* registry returns
shared null instruments whose mutators do nothing, so instrumentation
left in production paths costs only the dispatch to this module — the
repo's "disabled-by-default, near-zero overhead" requirement.

Time comes from :meth:`MetricsRegistry.now`: a registry bound to a
simulation :class:`~repro.sim.Environment` reads the simulated clock, so
spans measure simulated seconds.  An unbound registry reads a
monotonically increasing call counter (useful for plain unit tests, where
ordering matters but durations do not).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List

from repro.telemetry.spans import Span, SpanRecord


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that goes up and down (queue depths, live attempts)."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Summary statistics over observed values (latencies, sizes)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument while disabled.

    Reentrant as a context manager, so it can serve as the null span
    (including nested uses).
    """

    __slots__ = ()

    name = "<disabled>"
    value = 0.0
    peak = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def tag(self, **tags: Any) -> "_NullInstrument":
        return self

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


NULL_COUNTER = _NullInstrument()
NULL_GAUGE = _NullInstrument()
NULL_HISTOGRAM = _NullInstrument()
NULL_SPAN = _NullInstrument()


class MetricsRegistry:
    """A named collection of instruments plus the span log."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._env = None
        self._tick = 0
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: finished span records, in completion order
        self.spans: List[SpanRecord] = []
        #: open-span stacks, keyed by the active simulation process (so
        #: interleaved processes each keep a correct ancestry chain)
        self._span_stacks: Dict[Any, List[Span]] = {}
        self._span_ids = itertools.count(1)

    # -- clock ---------------------------------------------------------------
    def bind(self, env: "repro.sim.Environment") -> "MetricsRegistry":  # noqa: F821
        """Read time (and the active process) from a sim environment."""
        self._env = env
        return self

    @property
    def env(self):
        return self._env

    def now(self) -> float:
        if self._env is not None:
            return self._env.now
        self._tick += 1
        return float(self._tick)

    # -- instruments ---------------------------------------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, **tags: Any) -> Span:
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, tags)

    def _track_key(self) -> Any:
        """The key identifying the current logical thread of execution."""
        if self._env is not None and self._env.active_process is not None:
            return self._env.active_process
        return None

    def _open_span(self, span: Span) -> None:
        stack = self._span_stacks.setdefault(self._track_key(), [])
        span.parent = stack[-1] if stack else None
        stack.append(span)

    def _close_span(self, span: Span) -> None:
        key = self._track_key()
        stack = self._span_stacks.get(key)
        if stack and span in stack:
            stack.remove(span)
            if not stack:
                del self._span_stacks[key]
        self.spans.append(span.record())

    # -- export --------------------------------------------------------------
    def snapshot(self) -> "repro.telemetry.snapshot.MetricsSnapshot":  # noqa: F821
        """Freeze the registry's current state into a MetricsSnapshot."""
        from repro.telemetry.snapshot import MetricsSnapshot

        kernel: Dict[str, float] = {}
        if self._env is not None and hasattr(self._env, "stats"):
            kernel = self._env.stats.as_dict()
        return MetricsSnapshot(
            counters={n: c.value for n, c in self._counters.items()},
            gauges={n: (g.value, g.peak) for n, g in self._gauges.items()},
            histograms={n: h.summary() for n, h in self._histograms.items()},
            spans=list(self.spans),
            kernel=kernel,
        )

    def clear(self) -> None:
        """Drop all recorded state but keep the binding and enablement."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.spans.clear()
        self._span_stacks.clear()
