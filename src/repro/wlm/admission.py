"""Admission control: the runtime side of resource pools.

The :class:`AdmissionController` turns catalog
:class:`~repro.wlm.pools.ResourcePool` definitions into live
:class:`~repro.sim.resources.PriorityResource` pairs — one counting
execution slots (MAXCONCURRENCY), one counting memory (the pool budget in
MB) — and gates statements through them on the simulation clock.

A statement admits by claiming one slot plus its pool's per-query memory
grant; both claims queue FIFO-within-priority.  If the pool's
QUEUETIMEOUT elapses first, the queued claims are cancelled and the
statement either cascades into the pool's secondary pool (CASCADE TO) or
fails with :class:`~repro.vertica.errors.AdmissionTimeout`.  The caller
holds an :class:`AdmissionTicket` for the statement's lifetime and
releases it when execution finishes — leaked tickets are exactly what the
chaos ``InvariantChecker`` audits for.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import telemetry
from repro.cache.result import MemoryAccount
from repro.sim.kernel import Environment
from repro.sim.resources import PriorityResource
from repro.vertica.errors import AdmissionTimeout
from repro.wlm.pools import ResourcePool


class AdmissionTicket:
    """Proof of admission: the slot + memory grants one statement holds."""

    def __init__(
        self,
        state: "_PoolState",
        slot_req,
        mem_req,
        queue_wait: float,
        tried: Tuple[str, ...],
    ):
        self._state = state
        self._slot_req = slot_req
        self._mem_req = mem_req
        self.queue_wait = queue_wait
        #: pools the statement queued in, admission pool last
        self.tried = tried
        self._released = False

    @property
    def pool_name(self) -> str:
        """The pool that actually admitted the statement."""
        return self._state.pool.name

    def release(self) -> None:
        """Return the slot and memory grants; idempotent."""
        if self._released:
            return
        self._released = True
        self._state.slots.release(self._slot_req)
        self._state.memory.release(self._mem_req)
        self._state.observe()


class _PoolState:
    """One pool's live resources plus its telemetry instruments."""

    def __init__(self, env: Environment, pool: ResourcePool):
        self.pool = pool
        self.slots = PriorityResource(
            env, pool.max_concurrency, name=f"wlm.{pool.name}.slots"
        )
        self.memory = PriorityResource(
            env, pool.memory_mb, name=f"wlm.{pool.name}.memory_mb"
        )
        #: MB of the memory ledger held by result-cache residency rather
        #: than by an in-flight statement (see :meth:`AdmissionController.
        #: cache_account`) — excluded from leak detection because cached
        #: bytes legitimately outlive every ticket.
        self.cache_mb = 0

    def observe(self) -> None:
        base = f"wlm.pool.{self.pool.name}"
        telemetry.gauge(f"{base}.occupancy").set(self.slots.in_use)
        telemetry.gauge(f"{base}.memory_mb").set(self.memory.in_use)
        telemetry.gauge(f"{base}.cache_mb").set(self.cache_mb)
        telemetry.gauge(f"{base}.queue_depth").set(self.queue_depth)

    @property
    def queue_depth(self) -> int:
        return max(self.slots.queue_length, self.memory.queue_length)

    @property
    def busy(self) -> bool:
        return (
            self.slots.in_use > 0
            or self.memory.in_use - self.cache_mb > 0
            or self.queue_depth > 0
        )


class AdmissionController:
    """Gates statements through named resource pools on the sim clock.

    Pool *definitions* live in the catalog; this controller lazily
    materialises live state per pool on first admission, so pools created
    mid-run (``create_resource_pool``) work without re-wiring.
    """

    def __init__(self, env: Environment, catalog) -> None:
        self.env = env
        self.catalog = catalog
        self._states: Dict[str, _PoolState] = {}

    def state(self, pool_name: str) -> _PoolState:
        """The live state for ``pool_name`` (CatalogError if unknown)."""
        name = pool_name.upper()
        state = self._states.get(name)
        pool = self.catalog.resource_pool(name)
        if state is None or state.pool is not pool:
            # first admission, or the pool was redefined (CREATE OR REPLACE)
            if state is not None and state.busy:
                # keep serving in-flight grants from the old definition
                return state
            state = _PoolState(self.env, pool)
            self._states[name] = state
        return state

    def admit(self, pool_name: str, priority_boost: int = 0):
        """Generator: block until admitted; returns an :class:`AdmissionTicket`.

        Walks the cascade chain: queue in ``pool_name`` until granted or
        its queue timeout fires, then retry in its CASCADE TO pool, and so
        on.  A cycle or chain end without admission raises
        :class:`AdmissionTimeout` with every queued claim returned.
        """
        started = self.env.now
        tried = []
        name = pool_name.upper()
        while True:
            state = self.state(name)
            tried.append(state.pool.name)
            ticket = yield from self._try_pool(state, started, tuple(tried),
                                               priority_boost)
            if ticket is not None:
                return ticket
            cascade = state.pool.cascade
            if cascade is None or cascade in tried:
                waited = self.env.now - started
                telemetry.counter("wlm.rejections").inc()
                telemetry.counter(f"wlm.pool.{state.pool.name}.rejections").inc()
                raise AdmissionTimeout(pool_name, waited, tuple(tried))
            telemetry.counter("wlm.cascades").inc()
            name = cascade

    def _try_pool(self, state: _PoolState, started: float,
                  tried: Tuple[str, ...], priority_boost: int):
        """Queue in one pool; returns a ticket or None on queue timeout."""
        pool = state.pool
        priority = pool.priority + priority_boost
        slot_req = state.slots.request(1, priority=priority)
        mem_req = state.memory.request(
            min(pool.memory_per_query_mb, pool.memory_mb), priority=priority
        )
        state.observe()
        telemetry.gauge("wlm.queue_depth").set(self._total_queue_depth())
        both = self.env.all_of([slot_req, mem_req])
        try:
            if pool.queue_timeout is None:
                yield both
            else:
                yield self.env.any_of([both, self.env.timeout(pool.queue_timeout)])
        except BaseException:
            # interrupted (chaos kill, process teardown) while queued or
            # just granted — give everything back before unwinding
            state.slots.release(slot_req)
            state.memory.release(mem_req)
            state.observe()
            raise
        if not both.triggered:
            state.slots.release(slot_req)
            state.memory.release(mem_req)
            state.observe()
            telemetry.counter(f"wlm.pool.{pool.name}.queue_timeouts").inc()
            return None
        wait = self.env.now - started
        telemetry.counter("wlm.admissions").inc()
        telemetry.histogram("wlm.queue_wait_seconds").observe(wait)
        telemetry.histogram(f"wlm.pool.{pool.name}.queue_wait_seconds").observe(wait)
        state.observe()
        telemetry.gauge("wlm.queue_depth").set(self._total_queue_depth())
        return AdmissionTicket(state, slot_req, mem_req, wait, tried)

    def _total_queue_depth(self) -> int:
        return sum(s.queue_depth for s in self._states.values())

    def cache_account(self, pool_name: str) -> "PoolCacheAccount":
        """A :class:`~repro.cache.result.MemoryAccount` charging a pool.

        Attach it to a :class:`~repro.cache.result.ResultCache` and the
        cache's resident bytes hold real memory grants in ``pool_name``'s
        ledger — cached results genuinely compete with query admission.
        Reservations never *queue*: if the pool cannot grant the MB right
        now, ``grow`` fails and the cache evicts or refuses the store.
        """
        return PoolCacheAccount(self, pool_name)

    def leaked(self) -> Dict[str, Tuple[int, int, int]]:
        """Pools still holding grants: name -> (slots, memory_mb, queued).

        Empty when every ticket was released — the invariant the chaos
        checker asserts after each trial.  Result-cache residency
        (``cache_mb``) is deliberately excluded: cached bytes outlive
        tickets by design.
        """
        return {
            name: (s.slots.in_use, s.memory.in_use - s.cache_mb, s.queue_depth)
            for name, s in sorted(self._states.items())
            if s.busy
        }


class PoolCacheAccount(MemoryAccount):
    """Charges result-cache bytes into one pool's memory ledger.

    Grants are held as 1 MB grants so grow/shrink always align exactly
    with the pool's :class:`~repro.sim.resources.PriorityResource`
    accounting; a grant that cannot be satisfied *immediately* is
    cancelled rather than queued (the cache must never block a query).
    """

    def __init__(self, controller: AdmissionController, pool_name: str):
        self._controller = controller
        self.pool_name = pool_name.upper()
        #: (pool state, granted request) per resident MB, LIFO
        self._grants: List[Tuple[_PoolState, object]] = []

    @property
    def reserved_mb(self) -> int:
        return len(self._grants)

    def grow(self, mb: int) -> bool:
        state = self._controller.state(self.pool_name)
        taken = []
        for __ in range(mb):
            request = state.memory.request(1, priority=state.pool.priority)
            if not request.triggered:
                # No headroom: cancel the queued claim and roll back.
                state.memory.release(request)
                for held in taken:
                    state.memory.release(held)
                state.observe()
                telemetry.counter(
                    f"wlm.pool.{state.pool.name}.cache_grow_denied"
                ).inc()
                return False
            taken.append(request)
        state.cache_mb += mb
        self._grants.extend((state, request) for request in taken)
        state.observe()
        return True

    def shrink(self, mb: int) -> None:
        for __ in range(min(mb, len(self._grants))):
            state, request = self._grants.pop()
            state.memory.release(request)
            state.cache_mb -= 1
            state.observe()
