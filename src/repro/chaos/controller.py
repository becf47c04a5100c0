"""The chaos controller: interprets a schedule against a live fabric.

One controller owns one run.  ``install()`` attaches it to the fabric's
moving parts:

- timed actions are armed on the simulation clock via
  :meth:`~repro.sim.kernel.Environment.call_at`;
- probe rules ride the existing :class:`~repro.spark.faults.FaultPolicy`
  hook chain (composed with any hand-placed policy, never replacing it);
- statement rules and down-node severing hook the JDBC bridge through
  ``SimVerticaCluster.chaos``, which
  :meth:`~repro.connector.jdbc.SimVerticaConnection.execute` consults
  around every statement.

Every injection is recorded (simulated time, family, detail) and counted
into the telemetry registry (``chaos.injections`` and per-family
``chaos.<family>`` counters), so a run's fault history appears in the
same snapshot as the protocol metrics it perturbed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import telemetry
from repro.chaos.schedule import ChaosError, ChaosSchedule
from repro.spark.faults import CompositeFaultPolicy, FaultPolicy, InjectedFailure
from repro.vertica.hashring import HASH_SPACE, vertica_hash


class InjectionRecord:
    """One injected fault: when, what family, and the specifics."""

    def __init__(self, time: float, family: str, detail: str):
        self.time = time
        self.family = family
        self.detail = detail

    def __repr__(self) -> str:
        return f"[t={self.time:.3f}] {self.family}: {self.detail}"


class ChaosController(FaultPolicy):
    """Executes one :class:`ChaosSchedule` against one fabric."""

    def __init__(self, env, schedule: ChaosSchedule):
        self.env = env
        self.schedule = schedule
        self.injections: List[InjectionRecord] = []
        self.scheduler = None
        self.vertica = None
        self.network = None
        self.links: Dict[str, object] = {}
        self._downed_vertica: set = set()
        self._probe_kills = [0] * len(schedule.probe_rules)
        self._stmt_severs = [0] * len(schedule.statement_rules)
        self._stmt_draws = [0] * len(schedule.statement_rules)
        self._installed = False

    # -- wiring ---------------------------------------------------------------
    def install(
        self,
        *,
        scheduler=None,
        vertica=None,
        links: Optional[Dict[str, object]] = None,
        network=None,
    ) -> "ChaosController":
        """Attach to the fabric and arm every timed action.

        ``scheduler`` is a :class:`~repro.spark.scheduler.TaskScheduler`
        (probe rules and executor crashes), ``vertica`` a
        :class:`~repro.connector.cluster.SimVerticaCluster` (statement
        severing, node restarts, lock storms), ``links`` a name->Link
        mapping and ``network`` the fair-share :class:`~repro.sim.network.
        Network` carrying them (link degradation).
        """
        if self._installed:
            raise ChaosError("controller already installed")
        self._installed = True
        self.scheduler = scheduler
        self.vertica = vertica
        self.links = dict(links or {})
        if network is None and vertica is not None:
            network = vertica.sim_cluster.network
        self.network = network
        if scheduler is not None and (
            self.schedule.probe_rules or self.schedule.statement_rules
            or self.schedule.actions
        ):
            base = scheduler.fault_policy
            if type(base) is FaultPolicy:
                scheduler.fault_policy = self
            else:
                scheduler.fault_policy = CompositeFaultPolicy([base, self])
        if vertica is not None:
            vertica.chaos = self
        for action in self.schedule.actions:
            self.env.call_at(action.at, lambda a=action: a.apply(self))
        return self

    def record(self, family: str, detail: str) -> None:
        self.injections.append(InjectionRecord(self.env.now, family, detail))
        telemetry.counter("chaos.injections").inc()
        telemetry.counter(f"chaos.{family}").inc()

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.injections:
            out[record.family] = out.get(record.family, 0) + 1
        return out

    # -- timed actions ----------------------------------------------------------
    def fire_executor_crash(self, action) -> None:
        if self.scheduler is None:
            return
        executor = next(
            (e for e in self.scheduler.executors
             if e.node.name == action.node_name),
            None,
        )
        if executor is None:
            return
        killed = self.scheduler.crash_executor(
            executor, reason=f"chaos @ t={self.env.now:.3f}"
        )
        self.record(
            "executor_crash",
            f"{action.node_name} ({killed} live attempts lost)",
        )
        if action.restart_after is not None:
            self.env.call_at(
                self.env.now + action.restart_after,
                lambda: self.scheduler.restart_executor(executor),
            )

    def fire_link_degrade(self, action) -> None:
        link = self.links.get(action.link_name)
        if link is None or self.network is None:
            return
        nominal = link.nominal_capacity
        self.network.set_link_capacity(link, nominal * action.factor)
        self.record(
            "link_degrade",
            f"{action.link_name} -> x{action.factor} for {action.duration:.3f}s",
        )
        self.env.call_at(
            self.env.now + action.duration,
            lambda: self.network.set_link_capacity(link, nominal),
        )

    def fire_vertica_restart(self, action) -> None:
        if self.vertica is None:
            return
        db = self.vertica.db
        if action.node_name not in db.node_states:
            return
        if all(
            state != "UP" or name == action.node_name
            for name, state in db.node_states.items()
        ):
            return  # never take the last node down: nothing could fail over
        db.fail_node(action.node_name)
        self._downed_vertica.add(action.node_name)
        self.record(
            "vertica_restart",
            f"{action.node_name} down for {action.downtime:.3f}s",
        )

        def recover():
            self._downed_vertica.discard(action.node_name)
            db.recover_node(action.node_name)

        self.env.call_at(self.env.now + action.downtime, recover)

    def fire_lock_storm(self, action) -> None:
        if self.vertica is None:
            return
        self.record(
            "lock_storm",
            f"{action.table} for {action.duration:.3f}s",
        )
        self.env.process(
            self._storm(action), name=f"chaos.lock_storm.{action.table}"
        )

    def _storm(self, action):
        from repro.vertica.errors import LockContention

        db = self.vertica.db
        end = self.env.now + action.duration
        while self.env.now < end:
            txn = db.begin()
            held = False
            try:
                txn.lock(action.table, "X")
                held = True
            except LockContention:
                pass  # a real writer holds it; that *is* the contention
            if held:
                yield self.env.timeout(action.hold)
            txn.abort()
            yield self.env.timeout(action.gap)

    def fire_pool_storm(self, action) -> None:
        if self.vertica is None or getattr(self.vertica, "wlm", None) is None:
            return
        self.record(
            "pool_storm",
            f"{action.pool} x{action.claims} for {action.duration:.3f}s",
        )
        for index in range(action.claims):
            self.env.process(
                self._pool_storm_claim(action),
                name=f"chaos.pool_storm.{action.pool}.{index}",
            )

    def _pool_storm_claim(self, action):
        """One noisy neighbour: claim an admission slot, hold, repeat."""
        from repro.vertica.errors import AdmissionTimeout, CatalogError

        wlm = self.vertica.wlm
        end = self.env.now + action.duration
        while self.env.now < end:
            try:
                ticket = yield from wlm.admit(action.pool)
            except AdmissionTimeout:
                # Queued out — the workload won the slot race; that *is*
                # the contention.  Back off and try again.
                yield self.env.timeout(action.gap)
                continue
            except CatalogError:
                return  # pool dropped mid-storm
            try:
                yield self.env.timeout(action.hold)
            finally:
                ticket.release()
            yield self.env.timeout(action.gap)

    # -- FaultPolicy hook (probe rules) -----------------------------------------
    def on_probe(self, ctx, label: str) -> None:
        for index, rule in enumerate(self.schedule.probe_rules):
            if not rule.matches(label):
                continue
            if self._probe_kills[index] >= rule.max_kills:
                continue
            if ctx.attempt_number >= rule.max_attempt:
                continue
            draw = vertica_hash(
                self.schedule.seed, index, ctx.partition_id,
                ctx.attempt_number, label,
            )
            if draw < rule.rate * HASH_SPACE:
                self._probe_kills[index] += 1
                self.record(
                    "task_kill",
                    f"partition {ctx.partition_id} attempt "
                    f"{ctx.attempt_number} at {label!r}",
                )
                raise InjectedFailure(
                    f"chaos kill at {label!r} for partition "
                    f"{ctx.partition_id} attempt {ctx.attempt_number}"
                )

    # -- JDBC hook (statement rules + down-node severing) -----------------------
    def on_statement(self, conn, statement, sql: str, point: str) -> None:
        """Called by the JDBC bridge around every statement.

        ``statement`` is the parsed statement (rules match its leading
        keyword token); ``sql`` is its text, for the error message only.
        May sever the connection and raise
        :class:`~repro.connector.jdbc.ConnectionSevered`.
        """
        from repro.connector.jdbc import ConnectionSevered

        if point == "before" and conn.node_name in self._downed_vertica:
            conn.sever()
            self.record(
                "vertica_restart",
                f"severed connection to down node {conn.node_name}",
            )
            raise ConnectionSevered(conn.node_name, sql, acked=False)
        if conn.client_node is None:
            return  # driver control-plane connections stay alive
        for index, rule in enumerate(self.schedule.statement_rules):
            if rule.point != point or not rule.matches(statement):
                continue
            if self._stmt_severs[index] >= rule.max_severs:
                continue
            self._stmt_draws[index] += 1
            draw = vertica_hash(
                self.schedule.seed, "sever", index, self._stmt_draws[index]
            )
            if draw < rule.rate * HASH_SPACE:
                self._stmt_severs[index] += 1
                acked = point == "after"
                self.record(
                    "connection_sever",
                    f"{conn.node_name} {rule.point} "
                    f"{statement.keyword} (acked={acked})",
                )
                conn.sever()
                raise ConnectionSevered(conn.node_name, sql, acked=acked)
