"""The one bounded LRU map every cache tier is built on.

Entries carry a weight (1 for the entry-counted plan cache, resident
bytes for the block and result stores); the map evicts from its least
recently used end until the new entry fits under ``capacity``.  Owners
keep their own telemetry: every evicting call returns how many entries
it dropped.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator, Optional, Tuple


class BoundedLru:
    """Weight-bounded map in least-recently-used-first order."""

    def __init__(self, capacity: float):
        self.capacity = capacity
        #: summed weight of the resident entries
        self.used = 0
        self._entries: "OrderedDict[Hashable, Tuple[Any, float]]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        """The value under ``key``, now the most recently used; or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def peek(self, key: Hashable) -> Optional[Any]:
        """The value under ``key``, leaving LRU order alone; or None."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, weight: float = 1) -> int:
        """Insert (or replace) as most recently used; returns evictions."""
        self.pop(key)
        evicted = self.make_room(weight)
        self._entries[key] = (value, weight)
        self.used += weight
        return evicted

    def make_room(self, weight: float) -> int:
        """Evict until ``weight`` more fits (or nothing is left)."""
        evicted = 0
        while self._entries and self.used + weight > self.capacity:
            self.evict_one()
            evicted += 1
        return evicted

    def evict_one(self) -> None:
        """Drop the least recently used entry."""
        __, (__, weight) = self._entries.popitem(last=False)
        self.used -= weight

    def pop(self, key: Hashable) -> Optional[Any]:
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self.used -= entry[1]
        return entry[0]

    def clear(self) -> None:
        self._entries.clear()
        self.used = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        """Resident keys, least recently used first."""
        return iter(self._entries)
