"""Declarative chaos schedules: *what* goes wrong, *when*, reproducibly.

A :class:`ChaosSchedule` is pure data — a list of timed
:class:`ChaosAction` objects (executor crashes, link degradations,
Vertica node restarts, lock storms) plus trigger rules that fire on
observed activity (:class:`ProbeRule` kills task attempts at fault-probe
points, :class:`StatementRule` severs JDBC connections around matching
statements).  The :class:`~repro.chaos.controller.ChaosController`
interprets the schedule against a live fabric.

Everything is deterministic: timed actions carry explicit simulation
times, and the trigger rules draw from :func:`~repro.vertica.hashring.
vertica_hash` seeded by the schedule's seed — never from wall-clock
randomness — so a failing run replays exactly from its seed alone.

``ChaosSchedule.random(seed, ...)`` derives a full schedule from one
integer, which is how the soak harness covers many distinct fault
interleavings while keeping each one replayable.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

#: fault families :meth:`ChaosSchedule.random` can draw from by default.
#: ``pool_storm`` is deliberately NOT in this tuple: adding it would shift
#: every existing seed's draw sequence.  WLM-aware soaks opt in by passing
#: ``families=FAMILIES + ("pool_storm",)`` together with ``pools=...``.
FAMILIES = (
    "executor_crash",
    "link_degrade",
    "lock_storm",
    "vertica_restart",
    "connection_sever",
    "task_kill",
)

#: every family random() understands, including the opt-in ones
ALL_FAMILIES = FAMILIES + ("pool_storm",)


class ChaosError(ValueError):
    """An invalid chaos schedule or action."""


class ChaosAction:
    """Base timed action; fires once at ``at`` (simulated seconds)."""

    family = "generic"

    def __init__(self, at: float):
        if at < 0:
            raise ChaosError(f"action time must be >= 0: {at}")
        self.at = at

    def apply(self, controller) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:
        return f"t={self.at:.3f} {self.family}"


class ExecutorCrash(ChaosAction):
    """Kill the executor on ``node_name``; optionally restart it later.

    Live attempts on the executor die with
    :class:`~repro.spark.scheduler.ExecutorLost` and are relaunched on
    surviving executors without consuming ``max_failures`` budget.
    """

    family = "executor_crash"

    def __init__(self, node_name: str, at: float,
                 restart_after: Optional[float] = None):
        super().__init__(at)
        if restart_after is not None and restart_after <= 0:
            raise ChaosError(f"restart_after must be > 0: {restart_after}")
        self.node_name = node_name
        self.restart_after = restart_after

    def apply(self, controller) -> None:
        controller.fire_executor_crash(self)

    def describe(self) -> str:
        restart = (
            f", restart +{self.restart_after:.3f}s"
            if self.restart_after is not None else ""
        )
        return f"t={self.at:.3f} executor_crash {self.node_name}{restart}"


class LinkDegrade(ChaosAction):
    """Degrade one fair-share link to ``factor`` of nominal capacity.

    ``factor=0`` is a full partition: flows stall at rate zero until the
    mandatory heal at ``at + duration`` restores nominal capacity.  The
    heal is not optional — a permanently dead link would strand flows
    (and the simulation) forever.
    """

    family = "link_degrade"

    def __init__(self, link_name: str, at: float, factor: float, duration: float):
        super().__init__(at)
        if not 0.0 <= factor < 1.0:
            raise ChaosError(f"degrade factor must be in [0, 1): {factor}")
        if duration <= 0:
            raise ChaosError(f"degrade duration must be > 0: {duration}")
        self.link_name = link_name
        self.factor = factor
        self.duration = duration

    def apply(self, controller) -> None:
        controller.fire_link_degrade(self)

    def describe(self) -> str:
        kind = "partition" if self.factor == 0.0 else f"degrade x{self.factor}"
        return (
            f"t={self.at:.3f} link_{kind} {self.link_name} "
            f"for {self.duration:.3f}s"
        )


class VerticaRestart(ChaosAction):
    """Mark a Vertica node DOWN, recovering it after ``downtime``.

    While down, new connections to the node fail (or fail over, with
    ``failover_connect``) and statements on connections already bound to
    it are severed by the controller.
    """

    family = "vertica_restart"

    def __init__(self, node_name: str, at: float, downtime: float):
        super().__init__(at)
        if downtime <= 0:
            raise ChaosError(f"downtime must be > 0: {downtime}")
        self.node_name = node_name
        self.downtime = downtime

    def apply(self, controller) -> None:
        controller.fire_vertica_restart(self)

    def describe(self) -> str:
        return (
            f"t={self.at:.3f} vertica_restart {self.node_name} "
            f"down {self.downtime:.3f}s"
        )


class LockStorm(ChaosAction):
    """Repeatedly grab-and-drop an exclusive lock on one table.

    Models a rogue writer hammering a shared table: for ``duration``
    seconds a background transaction takes the X lock, holds it for
    ``hold`` seconds, releases, and pauses ``gap`` seconds — driving
    concurrent UPDATEs into their :class:`~repro.vertica.errors.
    LockContention` retry paths.
    """

    family = "lock_storm"

    def __init__(self, table: str, at: float, duration: float,
                 hold: float = 0.004, gap: float = 0.003):
        super().__init__(at)
        if duration <= 0:
            raise ChaosError(f"storm duration must be > 0: {duration}")
        if hold <= 0 or gap <= 0:
            raise ChaosError(f"hold/gap must be > 0: {hold}/{gap}")
        self.table = table.upper()
        self.duration = duration
        self.hold = hold
        self.gap = gap

    def apply(self, controller) -> None:
        controller.fire_lock_storm(self)

    def describe(self) -> str:
        return (
            f"t={self.at:.3f} lock_storm {self.table} "
            f"for {self.duration:.3f}s (hold {self.hold}, gap {self.gap})"
        )


class PoolStorm(ChaosAction):
    """Flood one WLM resource pool with synthetic admission claims.

    Models a burst of rogue tenants: for ``duration`` seconds,
    ``claims`` background processes repeatedly admit into ``pool``, hold
    their slot + memory grant for ``hold`` seconds, release, and pause
    ``gap`` seconds — driving real statements into admission queues,
    cascades, and :class:`~repro.vertica.errors.AdmissionTimeout`.  A
    no-op on clusters running without WLM.
    """

    family = "pool_storm"

    def __init__(self, pool: str, at: float, duration: float,
                 claims: int = 4, hold: float = 0.05, gap: float = 0.01):
        super().__init__(at)
        if duration <= 0:
            raise ChaosError(f"storm duration must be > 0: {duration}")
        if claims < 1:
            raise ChaosError(f"claims must be >= 1: {claims}")
        if hold <= 0 or gap <= 0:
            raise ChaosError(f"hold/gap must be > 0: {hold}/{gap}")
        self.pool = pool.upper()
        self.duration = duration
        self.claims = claims
        self.hold = hold
        self.gap = gap

    def apply(self, controller) -> None:
        controller.fire_pool_storm(self)

    def describe(self) -> str:
        return (
            f"t={self.at:.3f} pool_storm {self.pool} "
            f"x{self.claims} for {self.duration:.3f}s "
            f"(hold {self.hold}, gap {self.gap})"
        )


class ProbeRule:
    """Kill a deterministic fraction of task attempts at probe points.

    ``label`` is a substring filter ("" matches every probe).  Draws hash
    the schedule seed with the attempt identity, so a given seed kills
    the same attempts every run.  ``max_attempt`` exempts later attempts
    (so a task is never starved by this rule alone) and ``max_kills``
    caps the rule's total budget.
    """

    family = "task_kill"

    def __init__(self, label: str = "", rate: float = 0.05,
                 max_kills: int = 4, max_attempt: int = 2):
        if not 0.0 <= rate <= 1.0:
            raise ChaosError(f"rate must be in [0, 1]: {rate}")
        if max_kills < 1 or max_attempt < 1:
            raise ChaosError("max_kills and max_attempt must be >= 1")
        self.label = label
        self.rate = rate
        self.max_kills = max_kills
        self.max_attempt = max_attempt

    def matches(self, label: str) -> bool:
        return self.label in label

    def describe(self) -> str:
        where = self.label or "any probe"
        return (
            f"task_kill at {where!r} rate={self.rate:.3f} "
            f"budget={self.max_kills}"
        )


class StatementRule:
    """Sever a connection around statements whose leading keyword token
    (the parsed statement's ``keyword``) is ``keyword``.

    ``point="before"`` drops the connection before the statement reaches
    the server (it never executes); ``point="after"`` drops it once the
    server has executed but before the client learns the outcome — the
    classic did-my-COMMIT-land ambiguity.  Only task connections (those
    with a client node) are targeted: driver control-plane connections
    stay alive, like the paper's negligible control traffic.
    """

    family = "connection_sever"

    def __init__(self, keyword: str, rate: float = 0.1,
                 point: str = "before", max_severs: int = 2):
        if point not in ("before", "after"):
            raise ChaosError(f"point must be 'before' or 'after': {point!r}")
        if not 0.0 <= rate <= 1.0:
            raise ChaosError(f"rate must be in [0, 1]: {rate}")
        if max_severs < 1:
            raise ChaosError(f"max_severs must be >= 1: {max_severs}")
        self.keyword = keyword.upper()
        self.rate = rate
        self.point = point
        self.max_severs = max_severs

    def matches(self, statement) -> bool:
        return statement.keyword == self.keyword

    def describe(self) -> str:
        return (
            f"connection_sever {self.point} {self.keyword} "
            f"rate={self.rate:.3f} budget={self.max_severs}"
        )


class ChaosSchedule:
    """A complete, reproducible chaos plan for one run."""

    def __init__(
        self,
        seed: int = 0,
        actions: Iterable[ChaosAction] = (),
        probe_rules: Iterable[ProbeRule] = (),
        statement_rules: Iterable[StatementRule] = (),
    ):
        self.seed = seed
        self.actions: List[ChaosAction] = sorted(actions, key=lambda a: a.at)
        self.probe_rules: List[ProbeRule] = list(probe_rules)
        self.statement_rules: List[StatementRule] = list(statement_rules)

    def __bool__(self) -> bool:
        return bool(self.actions or self.probe_rules or self.statement_rules)

    def describe(self) -> List[str]:
        lines = [f"seed={self.seed}"]
        lines.extend(action.describe() for action in self.actions)
        lines.extend(rule.describe() for rule in self.probe_rules)
        lines.extend(rule.describe() for rule in self.statement_rules)
        return lines

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        spark_nodes: Sequence[str] = (),
        vertica_nodes: Sequence[str] = (),
        link_names: Sequence[str] = (),
        tables: Sequence[str] = ("S2V_JOB_STATUS",),
        horizon: float = 10.0,
        events: int = 3,
        families: Sequence[str] = FAMILIES,
        sever_keywords: Sequence[str] = ("COPY", "COMMIT", "UPDATE"),
        pools: Sequence[str] = (),
    ) -> "ChaosSchedule":
        """Derive a schedule from one integer seed.

        Families whose targets are unavailable (no spark nodes for
        ``executor_crash``, no link names for ``link_degrade``, ...) are
        skipped, so callers pass whatever topology they actually have.
        ``pool_storm`` fires only when explicitly requested via
        ``families`` *and* ``pools`` names at least one resource pool —
        keeping draw sequences of pre-WLM seeds unchanged.
        """
        rng = random.Random(seed)
        usable = [f for f in families if f in ALL_FAMILIES]
        if not usable:
            raise ChaosError(f"no known families in {families!r}")
        actions: List[ChaosAction] = []
        probe_rules: List[ProbeRule] = []
        statement_rules: List[StatementRule] = []
        for __ in range(events):
            family = rng.choice(usable)
            at = rng.uniform(0.05, max(horizon, 0.1))
            if family == "executor_crash" and spark_nodes:
                actions.append(ExecutorCrash(
                    rng.choice(list(spark_nodes)), at,
                    restart_after=rng.uniform(0.5, horizon / 2 + 0.5),
                ))
            elif family == "link_degrade" and link_names:
                actions.append(LinkDegrade(
                    rng.choice(list(link_names)), at,
                    factor=rng.choice([0.0, 0.0, 0.1, 0.25]),
                    duration=rng.uniform(0.3, horizon / 3 + 0.3),
                ))
            elif family == "vertica_restart" and vertica_nodes:
                actions.append(VerticaRestart(
                    rng.choice(list(vertica_nodes)), at,
                    downtime=rng.uniform(0.3, horizon / 3 + 0.3),
                ))
            elif family == "lock_storm" and tables:
                actions.append(LockStorm(
                    rng.choice(list(tables)), at,
                    duration=rng.uniform(0.2, 1.2),
                    hold=rng.uniform(0.002, 0.008),
                    gap=rng.uniform(0.002, 0.006),
                ))
            elif family == "connection_sever":
                statement_rules.append(StatementRule(
                    rng.choice(list(sever_keywords)),
                    rate=rng.uniform(0.05, 0.3),
                    point=rng.choice(["before", "after"]),
                    max_severs=rng.randint(1, 3),
                ))
            elif family == "task_kill":
                probe_rules.append(ProbeRule(
                    label=rng.choice(["", "s2v:", "phase1"]),
                    rate=rng.uniform(0.02, 0.12),
                    max_kills=rng.randint(1, 4),
                ))
            elif family == "pool_storm" and pools:
                actions.append(PoolStorm(
                    rng.choice(list(pools)), at,
                    duration=rng.uniform(0.3, 1.5),
                    claims=rng.randint(2, 6),
                    hold=rng.uniform(0.02, 0.1),
                    gap=rng.uniform(0.005, 0.02),
                ))
        return cls(seed, actions, probe_rules, statement_rules)
