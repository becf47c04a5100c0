"""The filesystem on simulated machines: what moving a block costs.

:class:`SimHdfsCluster` pairs an :class:`~repro.hdfs.HdfsCluster` with
simulated datanodes (their own 4-node cluster in Figure 12's setup, *not*
co-located with Spark) and owns the rules every reader and writer of
that filesystem shares: which links a block crosses on its way in or
out, how a landed copy reaches its other replicas, and which of a file's
rows a block stands for.  *Which* replica a writer enters or a reader
pulls from stays with the caller — the Spark-native source takes the
first, the connector's staged transport the least loaded.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.hdfs.filesystem import Block, HdfsCluster
from repro.sim.cluster import GBE_BYTES_PER_SEC, SimCluster, SimNode
from repro.sim.kernel import Environment
from repro.sim.network import Link


class SimHdfsCluster:
    """An HDFS cluster plus the simulated machines serving its blocks."""

    def __init__(
        self,
        env: Environment,
        sim_cluster: SimCluster,
        num_nodes: int = 4,
        block_size: int = 64 * 1024 * 1024,
        replication: int = 3,
        bandwidth: float = GBE_BYTES_PER_SEC,
        disk_bandwidth: float = 0.0,
    ):
        self.env = env
        self.sim_cluster = sim_cluster
        names = [f"hdfs{i}" for i in range(num_nodes)]
        self.fs = HdfsCluster(names, block_size=block_size, replication=replication)
        # Like the Vertica nodes, datanodes have two 1 GbE interfaces:
        # client traffic on "default", replication pipeline on "internal".
        self.sim_nodes: Dict[str, SimNode] = {
            name: sim_cluster.add_node(
                name, nics={"default": bandwidth, "internal": bandwidth}
            )
            for name in names
        }
        #: per-datanode data disk (0 = unmodelled); block reads and writes
        #: stream through it, like the paper's single data HDD per machine
        self.disks: Dict[str, Link] = {}
        if disk_bandwidth > 0:
            self.disks = {
                name: Link(env, f"{name}.disk", disk_bandwidth) for name in names
            }

    def read_route(self, datanode: SimNode, dest: SimNode,
                   nic: str = "default") -> List[Link]:
        """Datanode disk → its client NIC → ``dest``'s ``nic``."""
        route = [self.disks[datanode.name]] if self.disks else []
        route.append(datanode.nics["default"].tx)
        route.append(dest.nics[nic].rx)
        return route

    def write_route(self, source: SimNode, datanode: SimNode,
                    nic: str = "default") -> List[Link]:
        """``source``'s ``nic`` → the datanode's client NIC → its disk."""
        route = [source.nics[nic].tx, datanode.nics["default"].rx]
        if self.disks:
            route.append(self.disks[datanode.name])
        return route

    def replicate(self, chain: Sequence[str], nbytes: float, name: str) -> None:
        """Forward a landed copy down its replica ``chain`` in the background.

        The client is acked once the pipeline's first copy lands; the
        remaining replicas fill datanode-to-datanode over the internal
        NICs, so nothing waits on the flows started here.
        """
        for src_name, dst_name in zip(chain, chain[1:]):
            src = self.sim_nodes[src_name]
            dst = self.sim_nodes[dst_name]
            self.sim_cluster.network.transfer(
                [src.nics["internal"].tx, dst.nics["internal"].rx],
                nbytes,
                name=name,
            )

    def block_rows(self, block: Block, rows: Sequence[Any]) -> Sequence[Any]:
        """``block``'s share of its file's decoded ``rows``.

        Blocks split a file by bytes, not on row boundaries; rows are
        apportioned evenly across the file's blocks.
        """
        count = self.fs.total_blocks(block.path)
        lo = (len(rows) * block.index) // count
        hi = (len(rows) * (block.index + 1)) // count
        return rows[lo:hi]
