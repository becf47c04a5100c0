"""A namenode/datanode block filesystem.

Files are split into fixed-size blocks; each block is replicated onto
``replication`` distinct datanodes chosen deterministically (hash of the
block id), and the namenode keeps the path → block-list metadata.  Readers
can ask for block locations and read each block from a specific replica —
which is how the Spark-side HDFS data source schedules one partition per
block (the paper's 140 GB dataset became 2240 blocks and hence 2240 Spark
partitions).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.vertica.hashring import vertica_hash

#: the paper's HDFS block size
DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024
DEFAULT_REPLICATION = 3


class HdfsError(Exception):
    """Namespace or block errors."""


class Block(NamedTuple):
    block_id: int
    path: str
    index: int
    size: int
    replicas: tuple  # node names holding a copy


class HdfsCluster:
    """The filesystem: namenode metadata plus per-node block stores."""

    def __init__(
        self,
        node_names: Sequence[str],
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = DEFAULT_REPLICATION,
    ):
        if not node_names:
            raise HdfsError("an HDFS cluster requires at least one datanode")
        if block_size <= 0:
            raise HdfsError(f"block size must be positive: {block_size}")
        if replication <= 0:
            raise HdfsError(f"replication must be positive: {replication}")
        self.node_names = list(node_names)
        self.block_size = block_size
        self.replication = min(replication, len(self.node_names))
        #: namenode: path -> ordered blocks
        self._names: Dict[str, List[Block]] = {}
        #: datanodes: node -> block_id -> bytes
        self._stores: Dict[str, Dict[int, bytes]] = {n: {} for n in self.node_names}
        #: datanodes currently marked DOWN (unreadable until recovered)
        self._down: set = set()
        #: block ids decide replica placement, so they count per filesystem
        self._block_ids = itertools.count(1)
        #: collision-free suffixes for callers naming scratch directories
        #: on this filesystem (each staged V2S export takes one)
        self.path_ids = itertools.count(1)

    # -- namespace -------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._names

    def list(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._names if p.startswith(prefix))

    def delete(self, path: str) -> None:
        blocks = self._names.get(path)
        if blocks is None:
            raise HdfsError(f"no such file {path!r}")
        # Free replica bytes *before* dropping the namenode entry: a crash
        # midway then leaves a still-referenced (truncated, detectable) file
        # rather than unreferenced store bytes no audit can attribute.
        for block in blocks:
            for node in block.replicas:
                self._stores[node].pop(block.block_id, None)
        del self._names[path]

    def file_size(self, path: str) -> int:
        return sum(b.size for b in self._blocks(path))

    def orphaned_blocks(self) -> Dict[str, List[int]]:
        """Store bytes no namenode entry references (should always be empty).

        An audit hook: overwrite/delete free replica bytes before touching
        namespace metadata, so no interleaving of those operations can leave
        unreferenced blocks behind.  Returns ``node -> [block ids]`` for any
        that exist anyway.
        """
        referenced = {
            block.block_id for blocks in self._names.values() for block in blocks
        }
        orphans: Dict[str, List[int]] = {}
        for node, store in self._stores.items():
            leaked = sorted(set(store) - referenced)
            if leaked:
                orphans[node] = leaked
        return orphans

    def block_locations(self, path: str) -> List[Block]:
        """The per-block metadata a block-aware reader schedules over."""
        return list(self._blocks(path))

    def _blocks(self, path: str) -> List[Block]:
        try:
            return self._names[path]
        except KeyError:
            raise HdfsError(f"no such file {path!r}") from None

    # -- data -------------------------------------------------------------------
    def write(self, path: str, data: bytes, overwrite: bool = False) -> List[Block]:
        if not path or path.endswith("/"):
            raise HdfsError(f"invalid path {path!r}")
        if path in self._names and not overwrite:
            raise HdfsError(f"file {path!r} already exists")
        if path in self._names:
            # Free the old file's replicas first — an overwrite interrupted
            # after this point can lose the old contents (overwrite is not
            # atomic, as in HDFS) but can never strand their bytes.
            self.delete(path)
        blocks: List[Block] = []
        chunks: List[bytes] = []
        for index in range(0, max(1, -(-len(data) // self.block_size))):
            chunk = data[index * self.block_size : (index + 1) * self.block_size]
            block_id = next(self._block_ids)
            replicas = self._place(block_id)
            blocks.append(Block(block_id, path, index, len(chunk), tuple(replicas)))
            chunks.append(chunk)
        # Register the namenode entry before filling the stores: a crash
        # mid-placement leaves a referenced file with missing replicas (a
        # detectable corrupt read) instead of orphaned store bytes.
        self._names[path] = blocks
        for block, chunk in zip(blocks, chunks):
            for node in block.replicas:
                self._stores[node][block.block_id] = chunk
        return blocks

    def _place(self, block_id: int) -> List[str]:
        """Deterministic replica placement: hash-offset round robin."""
        start = vertica_hash(block_id) % len(self.node_names)
        return [
            self.node_names[(start + i) % len(self.node_names)]
            for i in range(self.replication)
        ]

    # -- datanode liveness --------------------------------------------------------
    def fail_node(self, node: str) -> None:
        """Mark a datanode DOWN: its replicas stay placed but unreadable."""
        if node not in self._stores:
            raise HdfsError(f"unknown datanode {node!r}")
        self._down.add(node)

    def recover_node(self, node: str) -> None:
        if node not in self._stores:
            raise HdfsError(f"unknown datanode {node!r}")
        self._down.discard(node)

    def live_replicas(self, block: Block) -> List[str]:
        """The block's replicas on datanodes that are currently UP."""
        return [n for n in block.replicas if n not in self._down]

    def read(self, path: str) -> bytes:
        out = []
        for block in self._blocks(path):
            live = self.live_replicas(block)
            if not live:
                raise HdfsError(
                    f"block {block.block_id} of {path!r} has no live replica: "
                    f"all of {list(block.replicas)} are DOWN"
                )
            out.append(self.read_block(block, live[0]))
        return b"".join(out)

    def read_block(self, block: Block, node: Optional[str] = None) -> bytes:
        """Read one block from a specific replica (default: first live one).

        Failures are spelled out: asking a non-replica, or a replica whose
        datanode is DOWN, names the block, the asked node and the candidate
        replicas (with their liveness) — never an opaque KeyError.
        """
        live = self.live_replicas(block)
        target = node or (live[0] if live else None)
        candidates = ", ".join(
            f"{n}{' (DOWN)' if n in self._down else ''}" for n in block.replicas
        )
        if target is None:
            raise HdfsError(
                f"block {block.block_id} of {block.path!r} has no live "
                f"replica; candidates: {candidates}"
            )
        if target not in block.replicas:
            raise HdfsError(
                f"node {target!r} holds no replica of block {block.block_id} "
                f"of {block.path!r}; candidates: {candidates}"
            )
        if target in self._down:
            raise HdfsError(
                f"replica of block {block.block_id} of {block.path!r} on "
                f"{target!r} is unreadable: datanode is DOWN; "
                f"candidates: {candidates}"
            )
        try:
            return self._stores[target][block.block_id]
        except KeyError:
            raise HdfsError(
                f"block {block.block_id} missing from {target!r} (corrupt "
                f"replica); candidates: {candidates}"
            ) from None

    def total_blocks(self, path: str) -> int:
        return len(self._blocks(path))
