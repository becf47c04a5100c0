"""A frozen copy of the max-min fair-share network.

``Link``/``Flow``/``Network`` of ``repro.sim.network`` as they were before
the rate solver kept per-link counts and ``_reschedule`` folded its passes
into one — progressive filling that recounts every link's unfrozen flows on
every iteration — copied verbatim and kept here as the **differential
oracle**: ``tests/test_sim_network_properties.py`` drives both networks
with the same script and asserts ``==`` on every flow finish time, every
link's ``bytes_total`` and every link's full ``rate_log``.

It runs on the live kernel (``repro.sim.kernel``), as ``reference_copy``
stages into the engine's WOS: the event order is the kernel's to pin
(``tests/test_sim_kernel.py``), the rates are this file's.

Do not "fix" behaviour here; its quirks (a route that crosses one link
twice is charged four times when that link is the bottleneck) are the
specification.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import Environment, Event, SimulationError

_EPS = 1e-9


class Link:
    """A unidirectional, capacity-limited channel (e.g. one NIC direction)."""

    def __init__(
        self,
        env: Environment,
        name: str,
        capacity: float,
        rate_log_limit: Optional[int] = None,
    ):
        if capacity <= 0:
            raise SimulationError(f"link capacity must be positive: {capacity}")
        self.env = env
        self.name = name
        self.capacity = float(capacity)
        #: the designed capacity; ``capacity`` may be lowered temporarily by
        #: fault injection (degraded NIC, partition) and restored to this
        self.nominal_capacity = float(capacity)
        #: total bytes that have crossed this link
        self.bytes_total = 0.0
        #: piecewise-constant (time, aggregate rate) samples for tracing;
        #: bounded to roughly ``rate_log_limit`` entries when set (oldest
        #: samples are compacted away), so long chaos soaks stay in memory
        self.rate_log: List[Tuple[float, float]] = [(env.now, 0.0)]
        self.rate_log_limit = rate_log_limit

    def __repr__(self) -> str:
        return f"Link({self.name!r}, {self.capacity:.0f} B/s)"

    def set_capacity(self, capacity: float) -> None:
        """Change the live capacity (0 models a partitioned/black-holed link).

        Callers that change capacity while flows are active must go through
        :meth:`Network.set_link_capacity` so fair shares are recomputed.
        """
        if capacity < 0:
            raise SimulationError(f"link capacity cannot be negative: {capacity}")
        self.capacity = float(capacity)

    def _log_rate(self, rate: float) -> None:
        last_time, last_rate = self.rate_log[-1]
        if abs(last_rate - rate) < _EPS:
            return
        if last_time == self.env.now:
            self.rate_log[-1] = (last_time, rate)
        else:
            self.rate_log.append((self.env.now, rate))
            limit = self.rate_log_limit
            if limit and len(self.rate_log) > 2 * limit:
                # Amortised O(1): halve in one slice, keeping the newest
                # ``limit`` samples.
                del self.rate_log[: len(self.rate_log) - limit]


class Flow:
    """One in-flight transfer over a route of links."""

    __slots__ = ("name", "route", "remaining", "cap", "rate", "event", "nbytes")

    def __init__(
        self,
        name: str,
        route: Sequence[Link],
        nbytes: float,
        cap: Optional[float],
        event: Event,
    ):
        self.name = name
        self.route = tuple(route)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.cap = cap
        self.rate = 0.0
        self.event = event

    def finish_time(self, now: float) -> float:
        if self.rate <= 0:
            return math.inf
        return now + self.remaining / self.rate


class Network:
    """Tracks active flows and drives their completion events."""

    def __init__(self, env: Environment):
        self.env = env
        #: active flows in arrival order (a dict used as an ordered set):
        #: progressive filling, cap tie-breaks and float accumulation all
        #: iterate it, so they must not follow ``id()``/memory layout
        self._flows: Dict[Flow, None] = {}
        self._last_update = env.now
        self._timer_seq = 0
        self._prev_busy: List[Link] = []

    def transfer(
        self,
        route: Sequence[Link],
        nbytes: float,
        cap: Optional[float] = None,
        name: str = "flow",
    ) -> Event:
        """Start a transfer; the returned event fires with ``nbytes`` when done."""
        if nbytes < 0:
            raise SimulationError(f"cannot transfer a negative byte count: {nbytes}")
        if cap is not None and cap <= 0:
            raise SimulationError(f"flow rate cap must be positive: {cap}")
        event = Event(self.env)
        if nbytes < _EPS or not route:
            # Zero-cost transfers (or transfers with no modelled links, as in
            # unit tests) complete immediately.
            event.succeed(nbytes)
            return event
        flow = Flow(name, route, nbytes, cap, event)
        self._sync_progress()
        self._flows[flow] = None
        self._reschedule()
        return event

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Change ``link``'s capacity mid-simulation, refitting active flows.

        The fault-injection entry point for link degradation: progress up to
        now is settled at the old rates, the capacity changes, and fair
        shares are recomputed.  A capacity of ``0`` stalls every flow on the
        link (a network partition) until a later call restores it.
        """
        self._sync_progress()
        link.set_capacity(capacity)
        self._reschedule()

    # -- internals -----------------------------------------------------------
    def _sync_progress(self) -> None:
        """Advance every flow's remaining bytes to the current time."""
        elapsed = self.env.now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                moved = flow.rate * elapsed
                flow.remaining -= moved
                for link in flow.route:
                    link.bytes_total += moved
        self._last_update = self.env.now

    def _reschedule(self) -> None:
        """Recompute fair-share rates and arm the next completion timer."""
        self._assign_rates()
        self._log_link_rates()
        self._timer_seq += 1
        seq = self._timer_seq
        next_finish = min(
            (flow.finish_time(self.env.now) for flow in self._flows),
            default=math.inf,
        )
        if next_finish is math.inf or math.isinf(next_finish):
            return
        delay = max(0.0, next_finish - self.env.now)
        timeout = self.env.timeout(delay)
        timeout.add_callback(lambda _event: self._on_timer(seq))

    def _on_timer(self, seq: int) -> None:
        if seq != self._timer_seq:
            return  # a newer recompute superseded this timer
        self._sync_progress()
        now = self.env.now
        # A flow is done when its remaining bytes are negligible, or when
        # its residual transfer time is below the clock's float resolution
        # (now + dt == now), which would otherwise starve it forever.
        finished = [
            f
            for f in self._flows
            if f.remaining <= _EPS * max(1.0, f.nbytes)
            or (f.rate > 0 and now + f.remaining / f.rate == now)
        ]
        for flow in finished:
            del self._flows[flow]
            flow.remaining = 0.0
            flow.event.succeed(flow.nbytes)
        self._reschedule()

    def _assign_rates(self) -> None:
        """Progressive-filling max-min fair allocation with per-flow caps.

        Caps are modelled as single-flow virtual links, which folds them
        into the standard bottleneck-freezing algorithm.
        """
        links: Dict[Link, List[Flow]] = {}
        for flow in self._flows:
            flow.rate = 0.0
            for link in flow.route:
                links.setdefault(link, []).append(flow)

        remaining = {link: link.capacity for link in links}
        unfrozen: Dict[Flow, None] = dict(self._flows)

        while unfrozen:
            # Find the bottleneck: the smallest per-flow share over real
            # links (capacity left / unfrozen flows on it) and flow caps.
            bottleneck_rate = math.inf
            bottleneck_link: Optional[Link] = None
            capped_flow: Optional[Flow] = None
            for link, flows in links.items():
                count = sum(1 for f in flows if f in unfrozen)
                if count == 0:
                    continue
                share = remaining[link] / count
                if share < bottleneck_rate - _EPS:
                    bottleneck_rate = share
                    bottleneck_link = link
                    capped_flow = None
            for flow in unfrozen:
                if flow.cap is not None and flow.cap < bottleneck_rate - _EPS:
                    bottleneck_rate = flow.cap
                    bottleneck_link = None
                    capped_flow = flow

            if capped_flow is not None:
                frozen = [capped_flow]
            elif bottleneck_link is not None:
                frozen = [f for f in links[bottleneck_link] if f in unfrozen]
            else:  # pragma: no cover - defensive: no links and no caps
                frozen = list(unfrozen)
                bottleneck_rate = 0.0

            for flow in frozen:
                flow.rate = max(0.0, bottleneck_rate)
                unfrozen.pop(flow, None)
                for link in flow.route:
                    remaining[link] = max(0.0, remaining[link] - flow.rate)

    def _log_link_rates(self) -> None:
        touched: Dict[Link, float] = {}
        for flow in self._flows:
            for link in flow.route:
                touched[link] = touched.get(link, 0.0) + flow.rate
        for link, rate in touched.items():
            link._log_rate(rate)
        # Links that just went idle need an explicit zero sample so traces
        # show the drop to zero rather than a dangling nonzero segment.
        for link in self._prev_busy:
            if link not in touched:
                link._log_rate(0.0)
        self._prev_busy = list(touched)
