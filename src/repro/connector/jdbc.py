"""JDBC-like connections that charge simulated time.

A :class:`SimVerticaConnection` wraps one database session bound to one
Vertica node.  ``execute`` is a *generator* (run inside a simulation
process — e.g. a Spark task): the statement executes synchronously against
the database, the cost model prices what it touched (``price`` /
``price_copy``), and the connection only schedules the charges:

- round-trip latency and query planning CPU on the contacted node;
- scan/aggregate/marshal CPU on every node that did the work;
- result bytes flowing node-locally to the contacted node over the
  *internal* network (the shuffle the paper's locality-aware queries
  eliminate), then out to the client over the *external* network, capped
  at the per-connection producer rate;
- for COPY: the payload flowing in over the external network, then
  redistributing to segment owners internally, plus parse CPU.

``weight`` scales byte/CPU charges — the virtual scale factor that lets
protocols move small real row sets while the clock sees paper-sized data.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Union

from repro import telemetry
from repro.sim.cluster import Compute, SimNode
from repro.vertica.catalog import SYSTEM_TABLES
from repro.vertica.engine import ResultSet
from repro.vertica.errors import LockContention, RetriesExhausted, VerticaError
from repro.vertica.hashring import vertica_hash
from repro.vertica.session import DDL_NODES, Session
from repro.vertica.sql import ast

#: statement classes that execute a query plan: gated through WLM
#: admission and charged planning CPU.  PROFILE runs the whole query it
#: wraps; EXPLAIN executes nothing and ANALYZE plans nothing: both stay out.
PLANNED_NODES = (
    ast.Select, ast.InsertValues, ast.InsertSelect, ast.Update, ast.Delete,
    ast.CopyStatement, ast.Profile,
)


def shipped_weight(statement: ast.Statement, weight: float) -> float:
    """The scale ``statement``'s result ships at: ``weight`` for data, the
    rows a SELECT (alone or in INSERT … SELECT) reads from a table or view
    without aggregating; else 1 — an aggregate or GROUP BY, a SELECT
    without FROM, a system table, EXPLAIN's plan, PROFILE's report."""
    query = statement.query if isinstance(statement, ast.InsertSelect) else statement
    data = (isinstance(query, ast.Select) and not query.group_by
            and not any(item.aggregate for item in query.items)
            and any(name.upper() not in SYSTEM_TABLES for name in query.relations))
    return weight if data else 1.0


#: attempts before a lock-retry loop gives up (on the job, for S2V's
#: task-side loops)
MAX_LOCK_RETRIES = 50


class ConnectionSevered(VerticaError):
    """The (simulated) TCP connection died under this statement.

    Raised by the chaos layer mid-protocol.  ``acked=True`` means the
    statement had already executed server-side when the link dropped — the
    classic "did my COMMIT land?" ambiguity the S2V protocol must absorb.
    """

    def __init__(self, node_name: str, sql: str, acked: bool):
        when = "after server execution" if acked else "before reaching the server"
        super().__init__(
            f"connection to {node_name} severed {when}: {sql.strip()[:60]!r}"
        )
        self.node_name = node_name
        self.acked = acked


class SimVerticaConnection:
    """One client connection, with cost accounting."""

    def __init__(
        self,
        cluster: "SimVerticaCluster",  # noqa: F821
        session: Session,
        node_name: str,
        client_node: Optional[SimNode],
    ):
        self.cluster = cluster
        self.session = session
        self.node_name = node_name
        self.client_node = client_node
        self._connected = False
        self._severed = False
        #: per-connection salt decorrelating retry backoff across tasks
        self._retry_salt = next(cluster.connection_salts)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Close the connection, or return its session to the cluster pool.

        With a cluster-level :class:`~repro.wlm.sessionpool.SessionPool`
        installed, a healthy session goes back on the free list for the
        next checkout instead of tearing down; severed connections always
        close for real.
        """
        pool = self.cluster.session_pool
        if pool is not None and not self._severed:
            pool.checkin(self.session)
        else:
            self.session.close()

    def __enter__(self) -> "SimVerticaConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def sever(self) -> None:
        """Kill the connection: abort any open transaction, refuse reuse."""
        self._severed = True
        self.session.close()

    @property
    def env(self):
        return self.cluster.env

    @property
    def cost_model(self):
        return self.cluster.cost_model

    # -- execution ------------------------------------------------------------
    def execute(
        self,
        sql: str,
        copy_data: Union[bytes, str, None] = None,
        weight: float = 1.0,
        output_weight: Optional[float] = None,
    ) -> Generator:
        """Generator: run one statement, charging simulated time.

        Use as ``result = yield from conn.execute(...)`` inside a task.
        ``output_weight``, when given, replaces :func:`shipped_weight` as
        the scale of the result-side charges (marshal CPU and wire bytes).
        """
        model = self.cost_model
        env = self.env
        contact = self.cluster.sim_nodes[self.node_name]
        chaos = self.cluster.chaos
        if self._severed:
            raise ConnectionSevered(self.node_name, sql, acked=False)
        # The one parse: everything below asks the statement, never its
        # text, what it is.  Text that does not parse raises here, before
        # admission, so it never holds a slot it cannot use.
        statement = self.session.prepare(sql)
        if chaos is not None:
            chaos.on_statement(self, statement, sql, point="before")
        if not self._connected:
            if model.connect_latency:
                yield env.timeout(model.connect_latency)
            self._connected = True
        is_ddl = isinstance(statement, DDL_NODES)
        planned = isinstance(statement, PLANNED_NODES)

        # WLM admission: gate query/DML statements through the session's
        # resource pool before any planning happens.  The ticket (slot +
        # memory grant) is held for the statement's whole execution and
        # its queue wait is charged into the statement's CostReport.
        ticket = None
        admission = self.cluster.wlm
        if admission is not None and planned:
            ticket = yield from admission.admit(self.session.resource_pool)
        try:
            latency = model.ddl_latency if is_ddl else model.query_latency
            if latency:
                yield env.timeout(latency)
            if model.query_plan_cpu and planned:
                yield from contact.compute(model.query_plan_cpu)

            result = self.session.execute(statement, copy_data=copy_data)

            if ticket is not None:
                result.cost.queue_wait_seconds += ticket.queue_wait
                result.cost.resource_pool = ticket.pool_name
            if isinstance(statement, ast.CopyStatement):
                yield from self._charge_copy(result, copy_data, weight, statement)
            else:
                w_out = (shipped_weight(statement, weight) if output_weight is None
                         else output_weight)
                yield from self._charge_query(result, weight, w_out)
            if chaos is not None:
                chaos.on_statement(self, statement, sql, point="after")
        finally:
            if ticket is not None:
                ticket.release()
        return result

    def retry_delay(self, attempt: int, backoff: float = 0.01) -> float:
        """Capped linear backoff plus deterministic per-connection jitter.

        Without jitter, tasks that hit the same contended table retry in
        lockstep and re-collide forever; the jitter is a hash of the
        connection's salt and the attempt number, so runs stay exactly
        reproducible for a given seed/schedule.
        """
        jitter = (vertica_hash(self._retry_salt, attempt) % 997) / 997.0
        return backoff * (min(attempt, 8) + jitter)

    def retry_on_contention(
        self,
        body: Callable[[], Generator],
        what: str,
        max_retries: int = MAX_LOCK_RETRIES,
        backoff: float = 0.01,
        on_contention: Optional[Callable[[], Generator]] = None,
    ) -> Generator:
        """Run the generator thunk ``body`` until it gets past lock contention.

        Only :class:`LockContention` is retried — any other
        :class:`VerticaError` (syntax, catalog, severed connection, ...)
        re-raises immediately.  ``on_contention`` runs first after each
        collision (the ``ROLLBACK`` of a transaction ``body`` opened), then
        the jittered :meth:`retry_delay`.  After ``max_retries`` failed
        attempts a :class:`RetriesExhausted` naming ``what`` surfaces
        instead of the raw contention error, so callers can distinguish a
        spent budget from one more transient collision.
        """
        attempt = 0
        wait_started = self.env.now
        while True:
            try:
                result = yield from body()
                if attempt:
                    telemetry.histogram("vertica.lock.wait_seconds").observe(
                        self.env.now - wait_started
                    )
                return result
            except LockContention as contention:
                if on_contention is not None:
                    yield from on_contention()
                attempt += 1
                telemetry.counter("vertica.lock.retries").inc()
                if attempt > max_retries:
                    telemetry.counter("vertica.lock.retries_exhausted").inc()
                    raise RetriesExhausted(what, attempt, contention) from contention
                yield self.env.timeout(self.retry_delay(attempt, backoff))

    def execute_with_retry(
        self,
        sql: str,
        max_retries: int = MAX_LOCK_RETRIES,
        backoff: float = 0.01,
    ) -> Generator:
        """One statement through :meth:`retry_on_contention`."""
        return self.retry_on_contention(
            lambda: self.execute(sql), sql, max_retries, backoff
        )

    # -- cost charging ------------------------------------------------------------
    def _await_charges(self, pending: list, slot) -> Generator:
        """Wait out a statement's charges, then free its stream slot."""
        try:
            if pending:
                yield self.env.all_of(pending)
        finally:
            if slot is not None:
                self.cluster.sim_nodes[self.node_name].streams.release(slot)

    def _charge_query(self, result: ResultSet, w: float, w_out: float) -> Generator:
        model = self.cost_model
        cluster = self.cluster
        contact = cluster.sim_nodes[self.node_name]
        charge = model.price(result.cost, result.rows, w, w_out)
        pending = [
            Compute(cluster.sim_nodes[node_name], seconds)
            for node_name, seconds in charge.cpu if seconds > 0
        ]
        for node_name, seconds, shuffled in charge.nodes:
            node = cluster.sim_nodes[node_name]
            if seconds > 0:
                pending.append(Compute(node, seconds))
            if node_name != self.node_name and shuffled > 0:
                # Shuffle: the row lives elsewhere; it crosses the internal
                # network to reach the contacted node first.
                pending.append(
                    cluster.sim_cluster.transfer(
                        node,
                        contact,
                        shuffled,
                        nic=model.internal_nic,
                        name=f"shuffle:{node_name}->{self.node_name}",
                    )
                )
        # The producer pipeline runs concurrently with the outbound result
        # stream (scan/marshal CPU, intra-cluster shuffle and the client
        # transfer all overlap), occupying one stream slot on the contacted
        # node for the duration; with more concurrent connections than
        # slots, streams queue — part of the "too much parallelism"
        # overhead in Figure 6.
        slot = None
        if self.client_node is not None and charge.client_bytes > 0:
            slot = contact.streams.request()
            yield slot
            pending.append(
                cluster.sim_cluster.transfer(
                    contact,
                    self.client_node,
                    charge.client_bytes,
                    nic=model.external_nic,
                    cap=model.per_connection_rate_cap,
                    name=f"jdbc:{self.node_name}->{self.client_node.name}",
                )
            )
        yield from self._await_charges(pending, slot)

    def _charge_copy(
        self,
        result: ResultSet,
        copy_data: Union[bytes, str],
        w: float,
        statement: ast.CopyStatement,
    ) -> Generator:
        model = self.cost_model
        columnar = statement.file_format == "COLUMNAR"
        cluster = self.cluster
        contact = cluster.sim_nodes[self.node_name]
        if isinstance(copy_data, str):
            copy_data = copy_data.encode("utf-8")
        charge = model.price_copy(result.cost, len(copy_data), w, columnar)
        # COPY pipelines: while the client streams the payload in over the
        # external network (holding one ingest slot on the receiving node),
        # that node parses and redistributes rows to their segment owners
        # over the internal network; all of it proceeds concurrently.
        pending = []
        slot = None
        if self.client_node is not None and charge.client_bytes > 0:
            slot = contact.streams.request()
            yield slot
            route = [
                cluster.sim_cluster._nic_for(self.client_node, model.external_nic).tx,
                contact.nics[model.external_nic].rx,
            ]
            ingest = cluster.ingest_links.get(self.node_name)
            if ingest is not None:
                route.append(ingest)
            pending.append(
                cluster.sim_cluster.network.transfer(
                    route,
                    charge.client_bytes,
                    cap=model.copy_rate_cap,
                    name=f"copy:{self.client_node.name}->{self.node_name}",
                )
            )
        for node_name, seconds, share in charge.nodes:
            node = cluster.sim_nodes[node_name]
            if node_name != self.node_name and share > 0:
                pending.append(
                    cluster.sim_cluster.transfer(
                        contact,
                        node,
                        share,
                        nic=model.internal_nic,
                        name=f"segment:{self.node_name}->{node_name}",
                    )
                )
            if seconds > 0:
                pending.append(Compute(node, seconds))
        yield from self._await_charges(pending, slot)
