"""The simulation bridge: a Vertica cluster living inside the simulator.

``SimVerticaCluster`` owns a :class:`~repro.vertica.VerticaDatabase` and
one :class:`~repro.sim.cluster.SimNode` per database node.  Matching the
paper's deployment, each node has **two** NICs: ``internal`` carries
Vertica-to-Vertica traffic (shuffles, replication) and ``external``
carries Vertica↔Spark traffic — "this keeps all Vertica internal traffic
on one network and Spark traffic on the other" (§4.1).

Connections are opened against a named node; every statement executed
over a connection charges simulated CPU/network per the cluster's
:class:`~repro.connector.costmodel.VerticaCostModel`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.sim import Environment
from repro.sim.cluster import GBE_BYTES_PER_SEC, SimCluster, SimNode
from repro.vertica import VerticaDatabase
from repro.connector.costmodel import NULL_COST_MODEL, VerticaCostModel


class SimVerticaCluster:
    """A Vertica database plus its simulated machines."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        sim_cluster: Optional[SimCluster] = None,
        num_nodes: int = 4,
        cost_model: Optional[VerticaCostModel] = None,
        k_safety: int = 0,
        max_client_sessions: int = 100,
        node_cores: int = 32,
        internal_bandwidth: float = GBE_BYTES_PER_SEC,
        external_bandwidth: float = GBE_BYTES_PER_SEC,
        copy_ingest_rate: float = 96e6,
        failover_connect: bool = False,
        wlm: bool = False,
        session_pool_size: int = 0,
    ):
        if env is None and sim_cluster is not None:
            env = sim_cluster.env
        self.env = env if env is not None else Environment()
        self.sim_cluster = (
            sim_cluster if sim_cluster is not None else SimCluster(self.env)
        )
        self.cost_model = cost_model if cost_model is not None else NULL_COST_MODEL
        #: redirect connections aimed at DOWN nodes to a live one
        self.failover_connect = failover_connect
        #: installed by :class:`repro.chaos.ChaosController`; when set, every
        #: statement consults it for connection-sever injections
        self.chaos = None
        #: ids this cluster hands out: retry-jitter salts for its
        #: connections, and job numbers for the S2V writers whose temporary
        #: tables live in its catalog.  Owned here, not by the
        #: classes, so a run never depends on what the process ran before.
        self.connection_salts = itertools.count(1)
        self.job_ids = itertools.count(1)
        node_names = [f"node{i + 1:04d}" for i in range(num_nodes)]
        self.db = VerticaDatabase(
            node_names=node_names,
            k_safety=k_safety,
            max_client_sessions=max_client_sessions,
        )
        self.sim_nodes: Dict[str, SimNode] = {}
        for name in node_names:
            self.sim_nodes[name] = self.sim_cluster.add_node(
                name,
                cores=node_cores,
                nics={
                    self.cost_model.internal_nic: internal_bandwidth,
                    self.cost_model.external_nic: external_bandwidth,
                },
            )
        # Per-node COPY ingest ceiling: Vertica's load pipeline (parse,
        # encode, sort into ROS) sustains a bounded byte rate per node no
        # matter how many parallel COPY streams feed it.  Modelled as a
        # virtual link every inbound COPY flow traverses (0 disables).
        from repro.sim.network import Link

        self.ingest_links: Dict[str, Link] = {}
        if copy_ingest_rate > 0:
            self.ingest_links = {
                name: Link(self.env, f"{name}.ingest", copy_ingest_rate)
                for name in node_names
            }
        # WLM admission control (opt-in): every query/DML statement over a
        # connection then acquires slot + memory grants from its session's
        # resource pool before planning.
        self.wlm = None
        if wlm:
            from repro.wlm import AdmissionController

            self.wlm = AdmissionController(self.env, self.db.catalog)
            # Charge result-cache residency into the GENERAL pool's memory
            # ledger: cached bytes hold real grants and compete with query
            # admission (released on eviction), but are excluded from leak
            # detection — they legitimately outlive any single statement.
            self.db.result_cache.attach_account(
                self.wlm.cache_account("GENERAL")
            )
        # Client-side session pooling (opt-in): connections check their
        # sessions back into a bounded per-node free list on close.
        self.session_pool = None
        if session_pool_size > 0:
            from repro.wlm import SessionPool

            self.session_pool = SessionPool(
                self.db,
                max_idle_per_node=session_pool_size,
                failover=failover_connect,
            )

    @property
    def node_names(self) -> List[str]:
        return list(self.db.node_names)

    def connect(
        self,
        node: Optional[str] = None,
        client_node: Optional[SimNode] = None,
        resource_pool: Optional[str] = None,
    ) -> "SimVerticaConnection":  # noqa: F821
        """Open a connection to one Vertica node.

        ``client_node`` is the simulated machine on the Spark side holding
        the socket (the executor's node for tasks, ``None`` for a driver
        connection — driver traffic is then free, like the paper's
        negligible control-plane traffic).

        ``resource_pool`` selects the session's WLM pool, as if it opened
        with ``SET RESOURCE_POOL``.  With a session pool installed the
        session may be a reused idle one — the connection then skips its
        connect-handshake latency.
        """
        from repro.connector.jdbc import SimVerticaConnection

        target = node or self.node_names[0]
        if self.session_pool is not None:
            session, reused = self.session_pool.checkout(
                target, resource_pool=resource_pool
            )
            conn = SimVerticaConnection(self, session, session.node, client_node)
            conn._connected = reused
            return conn
        session = self.db.connect(
            target, failover=self.failover_connect, resource_pool=resource_pool
        )
        return SimVerticaConnection(self, session, session.node, client_node)

    def run(self, process_generator, name: str = "driver"):
        """Run one driver-side generator to completion on the sim clock."""
        return self.env.run(self.env.process(process_generator, name=name))

    # -- shuffle accounting (for the locality experiments) ---------------------
    def internal_bytes(self) -> float:
        """Total bytes that crossed the Vertica-internal network."""
        total = 0.0
        for node in self.sim_nodes.values():
            total += node.nics[self.cost_model.internal_nic].tx.bytes_total
        return total

    def external_bytes(self) -> float:
        total = 0.0
        for node in self.sim_nodes.values():
            total += node.nics[self.cost_model.external_nic].tx.bytes_total
        return total
