"""A max-min fair-share flow network for the simulation kernel.

Data movement in the reproduction — JDBC result streams, COPY loads,
intra-Vertica shuffles, HDFS block reads — is modelled at *flow* level:
each transfer is a flow of ``nbytes`` over a route of :class:`Link` objects
(typically the sender's egress NIC and the receiver's ingress NIC).
Concurrent flows share link capacity max-min fairly via progressive
filling, and a flow may carry its own rate cap (used to model
per-connection producer limits, e.g. a single Vertica query pipeline
cannot saturate a 1 GbE NIC on its own — the effect behind Table 2 of the
paper).

Rates are recomputed whenever a flow starts or finishes, so the simulation
remains event-driven and exact (piecewise-constant rates), not sampled.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import Environment, Event, SimulationError
from repro.sim.trace import ChangeLog

_EPS = 1e-9


class Link:
    """A unidirectional, capacity-limited channel (e.g. one NIC direction)."""

    def __init__(self, env: Environment, name: str, capacity: float):
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
        #: a rate within ``_EPS`` of the last one is not a change
        self.rate_log = ChangeLog(env.now, 0.0, eps=_EPS)

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


class Network:
    """Tracks active flows and drives their completion events."""

    def __init__(self, env: Environment):
        self.env = env
        #: active flows in arrival order (a dict used as an ordered set):
        #: progressive filling, cap tie-breaks and float accumulation all
        #: iterate it, so they must not follow ``id()``/memory layout
        self._flows: Dict[Flow, None] = {}
        self._last_update = env.now
        #: the one live recompute timer; a superseded one finds itself
        #: replaced here when it fires, and does nothing
        self._timer = None
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
        # also returned: each busy link's summed rate, the earliest finish
        loads, next_finish = self._assign_rates()
        now = self.env.now
        for link, rate in loads.items():
            link.rate_log.record(now, rate)
        # Links that just went idle need an explicit zero sample so traces
        # show the drop to zero rather than a dangling nonzero segment.
        for link in self._prev_busy:
            if link not in loads:
                link.rate_log.record(now, 0.0)
        self._prev_busy = list(loads)
        if next_finish == math.inf:
            self._timer = None
            return
        delay = max(0.0, next_finish - self.env.now)
        self._timer = self.env._call(self._on_timer, delay)

    def _on_timer(self, timer) -> None:
        if timer is not self._timer:
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

    def _assign_rates(self) -> Tuple[Dict[Link, float], float]:
        """Progressive-filling max-min fair allocation with per-flow caps.

        Caps are modelled as single-flow virtual links, which folds them
        into the standard bottleneck-freezing algorithm.  Flows are taken in
        arrival order and links in first-seen order — the only order there
        is (docs/TRANSPORT.md, "The rate solver's contract").  Per link the
        capacity left and the number of unfrozen flows are *kept*, not
        recounted: freezing a flow touches its own links only.

        Returns each busy link's aggregate rate (links in first-seen order)
        and the earliest finish time (``inf``: nothing is moving).
        """
        flows = list(self._flows)
        slot: Dict[Link, int] = {}
        remaining: List[float] = []
        count: List[int] = []
        members: List[List[int]] = []
        routes: List[List[int]] = []
        capped: List[Tuple[int, float]] = []
        for k, flow in enumerate(flows):
            flow.rate = 0.0
            route = []
            for link in flow.route:
                i = slot.get(link)
                if i is None:
                    i = slot[link] = len(remaining)
                    remaining.append(link.capacity)
                    count.append(0)
                    members.append([])
                count[i] += 1
                members[i].append(k)
                route.append(i)
            routes.append(route)
            if flow.cap is not None:
                capped.append((k, flow.cap))

        unfrozen = [1] * len(flows)
        left = len(flows)
        while left:
            # Find the bottleneck: the smallest per-flow share over real
            # links (capacity left / unfrozen flows on it), then flow caps.
            best = math.inf
            best_link = best_flow = -1
            for i, n in enumerate(count):
                if n:
                    share = remaining[i] / n
                    if share < best - _EPS:
                        best = share
                        best_link = i
            for k, cap in capped:
                if unfrozen[k] and cap < best - _EPS:
                    best = cap
                    best_flow = k

            if best_flow >= 0:
                batch = [best_flow]
            elif best_link >= 0:
                batch = [k for k in members[best_link] if unfrozen[k]]
            else:  # pragma: no cover - defensive: no finite share, no cap
                batch = [k for k in range(len(flows)) if unfrozen[k]]
                best = 0.0

            rate = max(0.0, best)
            for k in batch:
                flows[k].rate = rate
                # 0 on the repeat visit of a flow whose route crosses the
                # bottleneck link twice (it is listed there twice)
                live = unfrozen[k]
                unfrozen[k] = 0
                left -= live
                for i in routes[k]:
                    spare = remaining[i] - rate
                    remaining[i] = spare if spare > 0.0 else 0.0
                    count[i] -= live

        # One pass in arrival order gives both each link's aggregate rate
        # (the float accumulation order its ``rate_log`` is pinned to) and
        # the earliest finish.
        now = self.env.now
        load = [0.0] * len(slot)
        next_finish = math.inf
        for flow, route in zip(flows, routes):
            rate = flow.rate
            for i in route:
                load[i] += rate
            if rate > 0:
                finish = now + flow.remaining / rate
                if finish < next_finish:
                    next_finish = finish
        return dict(zip(slot, load)), next_finish
