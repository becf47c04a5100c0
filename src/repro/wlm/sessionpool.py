"""Client-side session pooling for the connector's JDBC bridge.

Each V2S scan task and S2V write task historically opened a fresh
:class:`~repro.vertica.session.Session` per connection and paid the
connect handshake every time.  Under a multi-tenant serving workload
that both wastes latency and churns ``max_client_sessions`` slots.  The
:class:`SessionPool` keeps a bounded per-node free list of idle
sessions: checkout prefers a healthy idle session on the requested node
(skipping the handshake), falls back to opening a new one (with node
failover), and checkin returns the session reset for the next tenant.

Health checks happen at the pool boundary: idle sessions bound to a node
that has gone DOWN are closed and evicted rather than handed out, and a
session checked in while its node is DOWN is discarded instead of
cached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.vertica.errors import ConnectionLimitError, VerticaError
from repro.vertica.session import Session


class SessionPool:
    """A bounded, node-aware free list of idle Vertica sessions."""

    def __init__(
        self,
        db: "repro.vertica.database.VerticaDatabase",  # noqa: F821
        max_idle_per_node: int = 8,
        failover: bool = True,
    ):
        self.db = db
        self.max_idle_per_node = max_idle_per_node
        self.failover = failover
        self._idle: Dict[str, List[Session]] = {}

    # -- checkout ---------------------------------------------------------------
    def checkout(
        self, node: Optional[str] = None, resource_pool: Optional[str] = None
    ) -> Tuple[Session, bool]:
        """Acquire a session for ``node``; returns ``(session, reused)``.

        ``reused=True`` means the session came off the free list, so the
        caller may skip its connect-handshake latency.  When the target
        node cannot take a new connection and has no idle sessions, the
        checkout fails over to any node with an idle session before
        giving up.
        """
        target = node or self.db.node_names[0]
        session = self._reuse(target)
        reused = session is not None
        if session is None:
            try:
                session = self.db.connect(target, failover=self.failover)
                telemetry.counter("wlm.sessions.opened").inc()
            except ConnectionLimitError:
                session = self._reuse_any()
                if session is None:
                    raise
                reused = True
                telemetry.counter("wlm.sessions.failover_checkouts").inc()
        if resource_pool is not None:
            session.set_option("RESOURCE_POOL", resource_pool)
        return session, reused

    def _reuse(self, node: str) -> Optional[Session]:
        """Pop a healthy idle session bound to ``node``, if any."""
        if self.db.node_states.get(node) != "UP":
            self._evict_node(node)
            return None
        idle = self._idle.get(node)
        while idle:
            session = idle.pop()
            if session._closed:
                continue
            telemetry.counter("wlm.sessions.reused").inc()
            return session
        return None

    def _reuse_any(self) -> Optional[Session]:
        """Pop a healthy idle session from any node (failover checkout)."""
        for node in sorted(self._idle):
            session = self._reuse(node)
            if session is not None:
                return session
        return None

    # -- checkin ----------------------------------------------------------------
    def checkin(self, session: Session) -> None:
        """Return a session to the pool (or close it if unpoolable)."""
        if session._closed:
            return
        idle = self._idle.setdefault(session.node, [])
        if (
            self.db.node_states.get(session.node) != "UP"
            or len(idle) >= self.max_idle_per_node
        ):
            session.close()
            telemetry.counter("wlm.sessions.evicted").inc()
            return
        try:
            session.reset()
        except VerticaError:
            session.close()
            telemetry.counter("wlm.sessions.evicted").inc()
            return
        idle.append(session)

    # -- maintenance -------------------------------------------------------------
    def _evict_node(self, node: str) -> None:
        for session in self._idle.pop(node, []):
            if not session._closed:
                session.close()
                telemetry.counter("wlm.sessions.evicted").inc()

    def idle_count(self, node: Optional[str] = None) -> int:
        if node is not None:
            return len(self._idle.get(node, []))
        return sum(len(sessions) for sessions in self._idle.values())

    def close_all(self) -> None:
        """Drain the free list, closing every idle session."""
        for node in list(self._idle):
            for session in self._idle.pop(node):
                if not session._closed:
                    session.close()
