"""Node and cluster topology for the simulated testbed.

The paper's hardware: machines with 16 physical / 32 logical cores, 64 GB
RAM, and two 1 GbE interfaces — one carrying Vertica-internal traffic and
one carrying Vertica↔Spark traffic.  :class:`SimNode` models a machine as a
CPU core pool plus named NICs (each NIC being a tx/rx pair of fair-share
links); :class:`SimCluster` wires nodes to a shared :class:`Network` and
routes transfers across the right interfaces.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.kernel import Environment, Event, SimulationError
from repro.sim.network import Link, Network
from repro.sim.resources import Resource

#: 1 GbE in usable bytes/second, matching the paper's ~125 MB/s NIC ceiling.
GBE_BYTES_PER_SEC = 125e6


class Nic:
    """A network interface: one transmit link and one receive link."""

    def __init__(self, env: Environment, name: str, bandwidth: float):
        self.name = name
        self.tx = Link(env, f"{name}.tx", bandwidth)
        self.rx = Link(env, f"{name}.rx", bandwidth)

    @property
    def bytes_sent(self) -> float:
        return self.tx.bytes_total

    @property
    def bytes_received(self) -> float:
        return self.rx.bytes_total


class SimNode:
    """A simulated machine: CPU cores plus one or more NICs."""

    def __init__(
        self,
        env: Environment,
        name: str,
        cores: int = 32,
        nics: Optional[Dict[str, float]] = None,
    ):
        self.env = env
        self.name = name
        self.cores = Resource(env, cores, name=f"{name}.cpu")
        #: slots for long-lived data streams (result/ingest pipelines);
        #: sized like the core count but separate, so streams queue among
        #: themselves without starving short statements of CPU
        self.streams = Resource(env, cores, name=f"{name}.streams")
        self.nics: Dict[str, Nic] = {}
        for nic_name, bandwidth in (nics or {"default": GBE_BYTES_PER_SEC}).items():
            self.add_nic(nic_name, bandwidth)

    def __repr__(self) -> str:
        return f"SimNode({self.name!r})"

    def add_nic(self, name: str, bandwidth: float) -> Nic:
        if name in self.nics:
            raise SimulationError(f"node {self.name!r} already has NIC {name!r}")
        nic = Nic(self.env, f"{self.name}.{name}", bandwidth)
        self.nics[name] = nic
        return nic

    def nic(self, name: str = "default") -> Nic:
        try:
            return self.nics[name]
        except KeyError:
            raise SimulationError(
                f"node {self.name!r} has no NIC {name!r}; "
                f"available: {sorted(self.nics)}"
            ) from None

    def compute(self, seconds: float, ncores: int = 1):
        """Generator: occupy ``ncores`` cores for ``seconds`` of CPU time.

        Use as ``yield from node.compute(...)`` inside a simulation process.
        Zero-duration work returns immediately without queueing, so unit
        tests with null cost models never contend.
        """
        if seconds < 0:
            raise SimulationError(f"negative compute time: {seconds}")
        if seconds == 0:
            return
        request = self.cores.request(ncores)
        yield request
        try:
            yield self.env.timeout(seconds)
        finally:
            self.cores.release(request)


class Compute(Event):
    """A one-core CPU charge run beside its caller:
    ``env.process(node.compute(s))`` as one event, with no generator,
    process or timeout behind it.

    It queues the entries that process queued, in the same order: a
    bootstrap entry; at bootstrap, the core request (whose grant is the
    second entry); when the grant is processed, a timer ``seconds`` later;
    when the timer fires, the release and then this event's own success.
    So every sim-second and ``events_processed`` read as they did
    (docs/TRANSPORT.md, "The kernel's contract").  A zero charge succeeds
    at bootstrap, as the generator returned there.  Unlike the process, a
    negative charge raises here, and ``processes_started`` does not count
    it.  Inside a process's own body, ``yield from node.compute(...)`` is
    the charge that queues no entries of its own.
    """

    __slots__ = ("_cores", "_seconds", "_request")

    def __init__(self, node: SimNode, seconds: float):
        if seconds < 0:
            raise SimulationError(f"negative compute time: {seconds}")
        Event.__init__(self, node.env)
        self._cores = node.cores
        self._seconds = seconds
        node.env._call(self._start)

    def _start(self, _entry) -> None:
        if not self._seconds:
            self.succeed()
            return
        self._request = request = self._cores.request()
        request.callbacks.append(self._granted)

    def _granted(self, _request) -> None:
        self.env._call(self._done, self._seconds)

    def _done(self, _entry) -> None:
        self._cores.release(self._request)
        self.succeed()


class SimCluster:
    """A set of nodes sharing one flow network."""

    def __init__(self, env: Environment, network: Optional[Network] = None):
        self.env = env
        self.network = network if network is not None else Network(env)
        self.nodes: Dict[str, SimNode] = {}

    def add_node(
        self,
        name: str,
        cores: int = 32,
        nics: Optional[Dict[str, float]] = None,
    ) -> SimNode:
        if name in self.nodes:
            raise SimulationError(f"duplicate node name {name!r}")
        node = SimNode(self.env, name, cores=cores, nics=nics)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> SimNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def transfer(
        self,
        src: SimNode,
        dst: SimNode,
        nbytes: float,
        nic: str = "default",
        dst_nic: Optional[str] = None,
        cap: Optional[float] = None,
        name: str = "flow",
    ) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst`` over the named interfaces.

        A node-local transfer (``src is dst``) costs nothing on the network,
        which is exactly the benefit the connector's locality-aware queries
        exploit.
        """
        if src is dst:
            route: List[Link] = []
        else:
            route = [
                self._nic_for(src, nic).tx,
                self._nic_for(dst, dst_nic or nic).rx,
            ]
        return self.network.transfer(route, nbytes, cap=cap, name=name)

    @staticmethod
    def _nic_for(node: SimNode, requested: str) -> Nic:
        """The requested NIC, falling back to ``default``.

        Heterogeneous endpoints (a dual-NIC Vertica node talking to a
        single-NIC Spark worker) each use their own interface naming.
        """
        if requested in node.nics:
            return node.nics[requested]
        if "default" in node.nics:
            return node.nics["default"]
        return node.nic(requested)  # raises with a helpful message


def make_nodes(
    cluster: SimCluster,
    prefix: str,
    count: int,
    cores: int = 32,
    nics: Optional[Dict[str, float]] = None,
) -> List[SimNode]:
    """Create ``count`` homogeneous nodes named ``prefix0..prefixN-1``."""
    return [
        cluster.add_node(f"{prefix}{i}", cores=cores, nics=dict(nics or {"default": GBE_BYTES_PER_SEC}))
        for i in range(count)
    ]
