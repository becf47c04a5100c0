"""Vertica's native parallel COPY from local file splits (§4.7.3).

The paper's procedure: split the CSV file into N parts, distribute them
evenly onto the Vertica nodes' local data disks, then issue a COPY on
every part in parallel and take the total wall time.  Loading is bounded
by local disk read bandwidth, parse CPU, and the intra-cluster
redistribution of rows to their segment owners — no client network is
involved, which is why COPY is the lower bound S2V is measured against.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence

from repro.sim.cluster import Compute
from repro.sim.network import Link

#: one dedicated data HDD per machine in the paper's testbed
DEFAULT_DISK_BYTES_PER_SEC = 160e6


def parallel_copy(
    cluster: "SimVerticaCluster",  # noqa: F821
    table: str,
    csv_splits: Sequence[str],
    scale_factor: float = 1.0,
) -> float:
    """Load CSV splits with one parallel COPY per split; returns elapsed
    simulated seconds.

    Splits are dealt round-robin onto the nodes (mimicking the even file
    distribution of §4.7.3); each split is read from its node's local
    disk, parsed there, and rows are shipped to their segment owners over
    the internal network.
    """
    env = cluster.env
    model = cluster.cost_model
    nodes = cluster.node_names
    disks: Dict[str, Link] = {
        name: Link(env, f"{name}.disk", DEFAULT_DISK_BYTES_PER_SEC) for name in nodes
    }
    start = env.now

    def load_split(node_name: str, text: str) -> Generator:
        node = cluster.sim_nodes[node_name]
        nbytes = len(text.encode("utf-8")) * scale_factor
        session = cluster.db.connect(node_name)
        try:
            result = session.execute(
                f"COPY {table} FROM STDIN DIRECT", copy_data=text
            )
        finally:
            session.close()
        cost = result.cost
        # COPY streams: the local disk read, the parse CPU and the
        # redistribution of rows to their segment owners all pipeline.
        pending = [
            cluster.sim_cluster.network.transfer(
                [disks[node_name]], nbytes, name=f"disk-read:{node_name}"
            )
        ]
        parse_seconds = model.load_seconds(
            scale_factor * cost.rows_written, nbytes
        )
        if parse_seconds > 0:
            pending.append(Compute(node, parse_seconds))
        total_rows = cost.rows_written or 1
        for owner_name, rows in cost.node_rows_written.items():
            if owner_name == node_name:
                continue
            share = nbytes * (rows / total_rows)
            if share > 0:
                pending.append(
                    cluster.sim_cluster.transfer(
                        node,
                        cluster.sim_nodes[owner_name],
                        share,
                        nic=model.internal_nic,
                        name=f"segment:{node_name}->{owner_name}",
                    )
                )
        yield env.all_of(pending)

    def driver() -> Generator:
        loads = [
            env.process(load_split(nodes[index % len(nodes)], text))
            for index, text in enumerate(csv_splits)
        ]
        yield env.all_of(loads)

    env.run(env.process(driver(), name=f"parallel-copy:{table}"))
    return env.now - start


def split_csv(text: str, parts: int) -> List[str]:
    """Split CSV text into ``parts`` pieces on line boundaries."""
    lines = text.splitlines(keepends=True)
    count = len(lines)
    out = []
    for index in range(parts):
        lo = (count * index) // parts
        hi = (count * (index + 1)) // parts
        out.append("".join(lines[lo:hi]))
    return out
