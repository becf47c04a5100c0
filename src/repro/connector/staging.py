"""Distributed-FS staging transport: shared plumbing for S2V and V2S.

The modern connector stages columnar files on a distributed filesystem
"for maximum performance of parallel loads" instead of streaming every
row over JDBC.  This module holds the pieces both directions share:

- **Task-attempt file naming.**  Every attempt writes its own
  immutable file (``task-<i>-attempt-<id>``) and *never renames it* —
  Stocator's insight that rename-based commit protocols are the
  scalability killer on object/distributed stores.  Which attempt's file
  wins is decided by the S2V status table's conditional update, and the
  winning set is recorded in a driver-readable ``_MANIFEST``; losing
  attempts' files become orphans swept at cleanup.
- **Charged file movement.**  Writes charge the writer → first-replica
  transfer and kick off the background replication pipeline over the
  datanodes' internal NICs (client acked after the first copy, like the
  HDFS write pipeline); pulls charge datanode → puller transfers through
  the pulling node's COPY ingest ceiling.
- **Telemetry.**  Every byte through the staging layer shows up under
  ``hdfs.staging.*`` counters.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence

from repro import telemetry
from repro.hdfs import Block, SimHdfsCluster
from repro.sim.cluster import SimNode

if TYPE_CHECKING:
    from repro.connector.cluster import SimVerticaCluster

#: name of the commit manifest inside a job's staging directory
MANIFEST_NAME = "_MANIFEST"


def job_dir(root: str, job_name: str) -> str:
    return f"{root}/{job_name}"


def attempt_file_path(root: str, job_name: str, task_index: int,
                      attempt_id: int) -> str:
    """The immutable, attempt-unique path one task attempt writes."""
    return f"{job_dir(root, job_name)}/task-{task_index:05d}-attempt-{attempt_id}"


def manifest_path(root: str, job_name: str) -> str:
    return f"{job_dir(root, job_name)}/{MANIFEST_NAME}"


def encode_manifest(job_name: str, entries: Sequence[Dict[str, Any]]) -> bytes:
    """The commit record: which attempt files won, in task order."""
    doc = {"job": job_name, "files": sorted(entries, key=lambda e: e["task"])}
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def decode_manifest(data: bytes) -> Dict[str, Any]:
    return json.loads(data.decode("utf-8"))


def write_staged_file(
    hdfs: SimHdfsCluster,
    source_node: SimNode,
    source_nic: str,
    path: str,
    payload: bytes,
    nbytes: float,
    name: str,
    load_map: Optional[Dict[str, float]] = None,
) -> Generator:
    """Write one staging file, charging the HDFS write pipeline.

    ``nbytes`` is the *virtual* byte volume (headers once, data scaled);
    the filesystem stores the real ``payload``.  One pipeline per block:
    the writer streams each block to the least-loaded of its replicas
    (``load_map``, shared across a job's concurrent writers, keeps hash
    placement from hot-spotting one datanode) and is acked once that
    copy lands; the remaining replicas fill in the background over the
    datanodes' internal NICs.
    """
    blocks = hdfs.fs.write(path, payload, overwrite=True)
    total = float(sum(block.size for block in blocks)) or 1.0
    pending = []
    for block in blocks:
        share = nbytes * (block.size / total)
        if share <= 0:
            continue
        replicas = list(block.replicas)
        entry = _least_loaded(replicas, load_map, share)
        route = hdfs.write_route(source_node, hdfs.sim_nodes[entry], source_nic)
        pending.append(
            hdfs.sim_cluster.network.transfer(route, share, name=name)
        )
        hdfs.replicate(
            [entry] + [r for r in replicas if r != entry], share,
            name=f"staging-replicate:{path}",
        )
    if pending:
        yield hdfs.env.all_of(pending)
    telemetry.counter("hdfs.staging.files_written").inc()
    telemetry.counter("hdfs.staging.bytes_written").inc(int(nbytes))
    return blocks


def _least_loaded(candidates: List[str], load_map: Optional[Dict[str, float]],
                  share: float) -> str:
    """Pick the datanode with the fewest bytes assigned so far.

    ``load_map`` (datanode name → bytes) is bumped by ``share`` for the
    winner; ties break by name, so the choice is deterministic no matter
    what order concurrent callers run in.  Without a map the first
    candidate wins.
    """
    if load_map is None:
        return candidates[0]
    choice = min(candidates, key=lambda name: (load_map.get(name, 0.0), name))
    load_map[choice] = load_map.get(choice, 0.0) + share
    return choice


def pick_replica(
    hdfs: SimHdfsCluster, block: Block,
    load_map: Optional[Dict[str, float]] = None, share: float = 0.0,
) -> str:
    """Choose which live replica to read a block from (least loaded)."""
    live = hdfs.fs.live_replicas(block) or list(block.replicas)
    return _least_loaded(live, load_map, share)


def pull_staged_file(
    cluster: "SimVerticaCluster",
    hdfs: SimHdfsCluster,
    path: str,
    node_name: str,
    nbytes: float,
    name: str,
    load_map: Optional[Dict[str, float]] = None,
) -> Generator:
    """Pull one staging file onto a Vertica node, through its ingest ceiling.

    Returns the file's real payload bytes.  The transfer runs datanode →
    the puller's external NIC and then through the node's COPY ingest
    link, like any other bulk load feeding that node.  ``load_map``
    spreads concurrent pulls across replicas (see :func:`pick_replica`).
    """
    payload = hdfs.fs.read(path)
    blocks = hdfs.fs.block_locations(path)
    total = float(sum(block.size for block in blocks)) or 1.0
    puller = cluster.sim_nodes[node_name]
    ingest = cluster.ingest_links.get(node_name)
    pending = []
    # One stream per block from a replica of that block, so a pull
    # fans in from every datanode holding a piece of the file.
    for block in blocks:
        share = nbytes * (block.size / total)
        if share <= 0:
            continue
        source = hdfs.sim_nodes[pick_replica(hdfs, block, load_map, share)]
        route = hdfs.read_route(source, puller, cluster.cost_model.external_nic)
        if ingest is not None:
            route.append(ingest)
        pending.append(
            cluster.sim_cluster.network.transfer(route, share, name=name)
        )
    if pending:
        yield cluster.env.all_of(pending)
    telemetry.counter("hdfs.staging.files_read").inc()
    telemetry.counter("hdfs.staging.bytes_read").inc(int(nbytes))
    return payload


def sweep_job_dir(hdfs: SimHdfsCluster, root: str, job_name: str,
                  committed: Sequence[str] = ()) -> List[str]:
    """Delete every file under a job's staging directory.

    Files *not* in ``committed`` (loser attempts, partial writes) count
    toward ``hdfs.staging.orphans_swept`` — the audit trail that the
    no-rename protocol's garbage actually gets collected.  Returns the
    deleted paths.
    """
    prefix = job_dir(root, job_name) + "/"
    committed_set = set(committed)
    deleted: List[str] = []
    for path in hdfs.fs.list(prefix):
        hdfs.fs.delete(path)
        deleted.append(path)
        if path not in committed_set and not path.endswith(MANIFEST_NAME):
            telemetry.counter("hdfs.staging.orphans_swept").inc()
    return deleted
