"""Hash-ring segmentation.

Vertica distributes a table's rows by hashing its segmentation columns
into a fixed hash space and assigning each node one contiguous range of
that space (§2.1.1, §3.1.2 of the paper).  The connector's V2S component
reads these boundaries from the system catalog and formulates one query
per Spark partition asking for a non-overlapping sub-range, so only the
node storing that range ever produces data.

The hash function must be deterministic across sessions and independent of
Python's randomised ``hash()``; we use a 64-bit FNV-1a over a canonical
byte encoding, folded into a 32-bit ring.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.vertica.errors import CatalogError

#: the ring covers [0, HASH_SPACE)
HASH_SPACE = 1 << 32

_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    """A fast, stable 64-bit hash: CRC32 (C speed) + splitmix64 finishing.

    CRC alone distributes short inputs poorly; the splitmix64-style mixer
    provides the avalanche so the fold onto the 32-bit ring is uniform.
    The function is deterministic across processes (unlike ``hash()``),
    which the segmentation layout depends on.
    """
    value = (zlib.crc32(data) | (len(data) << 32)) & _MASK64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def _canonical_bytes(value: Any) -> bytes:
    if value is None:
        return b"\x00N"
    if isinstance(value, bool):
        return b"\x01T" if value else b"\x01F"
    if isinstance(value, int):
        return b"\x02" + str(value).encode()
    if isinstance(value, float):
        if value.is_integer():
            # Hash integral floats like integers so 1 and 1.0 agree.
            return b"\x02" + str(int(value)).encode()
        return b"\x03" + repr(value).encode()
    if isinstance(value, str):
        return b"\x04" + value.encode("utf-8")
    if isinstance(value, (bytes, bytearray)):
        return b"\x05" + bytes(value)
    raise TypeError(f"cannot hash value of type {type(value).__name__}")


def vertica_hash(*values: Any) -> int:
    """Hash one or more column values onto the ring ``[0, HASH_SPACE)``."""
    if not values:
        raise TypeError("vertica_hash requires at least one value")
    if len(values) == 1:
        return _fnv1a(_canonical_bytes(values[0])) % HASH_SPACE
    data = b"\x1f".join(_canonical_bytes(v) for v in values)
    return _fnv1a(data) % HASH_SPACE


class Segment:
    """One contiguous hash range ``[lo, hi)`` stored on ``node``."""

    __slots__ = ("lo", "hi", "node")

    def __init__(self, lo: int, hi: int, node: str):
        if not 0 <= lo < hi <= HASH_SPACE:
            raise CatalogError(f"invalid segment range [{lo}, {hi})")
        self.lo = lo
        self.hi = hi
        self.node = node

    def contains(self, hash_value: int) -> bool:
        return self.lo <= hash_value < self.hi

    def __repr__(self) -> str:
        return f"Segment([{self.lo}, {self.hi}) @ {self.node})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return (self.lo, self.hi, self.node) == (other.lo, other.hi, other.node)


class HashRing:
    """The full ring: an ordered, gap-free partition of the hash space."""

    def __init__(self, segments: Sequence[Segment]):
        ordered = sorted(segments, key=lambda s: s.lo)
        if not ordered:
            raise CatalogError("a hash ring requires at least one segment")
        if ordered[0].lo != 0 or ordered[-1].hi != HASH_SPACE:
            raise CatalogError("hash ring must cover [0, HASH_SPACE)")
        for prev, cur in zip(ordered, ordered[1:]):
            if prev.hi != cur.lo:
                raise CatalogError(
                    f"hash ring has a gap/overlap at {prev.hi} vs {cur.lo}"
                )
        self.segments: List[Segment] = ordered
        #: each segment's exclusive upper bound, for bisecting a hash to it
        self._upper_bounds = [segment.hi for segment in ordered]

    @classmethod
    def even(cls, nodes: Sequence[str]) -> "HashRing":
        """Split the space evenly over ``nodes`` (Vertica's default layout)."""
        if not nodes:
            raise CatalogError("cannot build a ring over zero nodes")
        count = len(nodes)
        bounds = [(HASH_SPACE * i) // count for i in range(count + 1)]
        return cls(
            [Segment(bounds[i], bounds[i + 1], nodes[i]) for i in range(count)]
        )

    @property
    def nodes(self) -> List[str]:
        return [segment.node for segment in self.segments]

    def node_for(self, hash_value: int) -> str:
        """The node owning ``hash_value`` (any int wraps onto the ring)."""
        return self.segments[
            bisect_right(self._upper_bounds, hash_value % HASH_SPACE)
        ].node

    def segment_for_node(self, node: str) -> Segment:
        for segment in self.segments:
            if segment.node == node:
                return segment
        raise CatalogError(f"node {node!r} stores no segment of this ring")

    def split(self, num_partitions: int) -> List[Tuple[int, int, str]]:
        """Divide the ring into ``num_partitions`` sub-ranges for V2S.

        Returns ``(lo, hi, node)`` triples such that the ranges are
        non-overlapping, cover the whole space, **never cross a segment
        boundary** (so each range lives wholly on one node), and are as
        evenly sized as possible.  With fewer partitions than segments, a
        partition is represented by several triples (one per segment it
        covers) sharing the same partition index — the caller receives a
        list of lists.
        """
        if num_partitions <= 0:
            raise CatalogError(f"num_partitions must be positive: {num_partitions}")
        segments = self.segments
        count = len(segments)
        ranges: List[Tuple[int, int, str]] = []
        if num_partitions >= count:
            # Split each segment into roughly num_partitions/count pieces.
            base, extra = divmod(num_partitions, count)
            for index, segment in enumerate(segments):
                pieces = base + (1 if index < extra else 0)
                span = segment.hi - segment.lo
                bounds = [segment.lo + (span * i) // pieces for i in range(pieces + 1)]
                for i in range(pieces):
                    if bounds[i] < bounds[i + 1]:
                        ranges.append((bounds[i], bounds[i + 1], segment.node))
        else:
            for segment in segments:
                ranges.append((segment.lo, segment.hi, segment.node))
        return ranges

    def partition_plan(self, num_partitions: int) -> List[List[Tuple[int, int, str]]]:
        """Group :meth:`split` ranges into exactly ``num_partitions`` tasks.

        Mirrors Figure 4 of the paper: with more partitions than segments
        each task gets one sub-range; with fewer, each task gets one or
        more whole segments.
        """
        ranges = self.split(num_partitions)
        if num_partitions >= len(ranges):
            plan = [[r] for r in ranges]
            # In the (rare) rounding case of fewer ranges than requested
            # partitions, pad with empty tasks so the task count is honoured.
            while len(plan) < num_partitions:
                plan.append([])
            return plan
        # Fewer partitions than segments: deal segments round-robin so each
        # task holds whole segments (paper Figure 4(a)).
        plan = [[] for __ in range(num_partitions)]
        for index, item in enumerate(ranges):
            plan[index % num_partitions].append(item)
        return plan


def synthetic_ring(nodes: Sequence[str]) -> HashRing:
    """An even ring used for views and unsegmented tables.

    Those objects have no physical segmentation, so V2S fabricates
    "synthetic hash ranges" (§3.1.1) over a row hash to parallelise the
    load anyway; the synthetic ring assigns each node an equal range so
    connections stay balanced.
    """
    return HashRing.even(list(nodes))


def ranges_are_disjoint_and_complete(
    ranges: Iterable[Tuple[int, int]], space: Optional[int] = None
) -> bool:
    """True when the (lo, hi) ranges tile ``[0, space)`` exactly once."""
    space = HASH_SPACE if space is None else space
    ordered = sorted(ranges)
    if not ordered:
        return False
    if ordered[0][0] != 0 or ordered[-1][1] != space:
        return False
    for (__, prev_hi), (cur_lo, __) in zip(ordered, ordered[1:]):
        if prev_hi != cur_lo:
            return False
    return True
