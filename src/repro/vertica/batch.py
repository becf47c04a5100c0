"""The one row representation between ROS storage and the result tuples.

A :class:`ColumnBatch` is a chunk of rows stored column-wise
(``names[i]`` names the parallel value list ``columns[i]``) plus a
per-row producing-node list that keeps the CostReport's node attribution
exact.  ``Engine.scan`` yields them straight off the ROS column lists,
every physical operator exchanges them, and ``execute_select`` turns the
last ones into result tuples; nothing in between builds a per-row object.
Alias-qualified column names (``P.ID``) share the *same* list objects as
their plain twins.  Expressions read a batch through their kernels
(:mod:`repro.vertica.kernels`), a column at a time.

This module imports nothing from the engine or the plan package, so both
may import it at their top.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: most rows an operator puts in one batch
BATCH_ROWS = 1024

#: per column, the one Python type all its values have (``None``: unknown,
#: or several); the whole list is ``None`` where no column's is known
Kinds = Optional[List[Optional[type]]]


def gather(values: List[Any], indices: Iterable[int]) -> List[Any]:
    """``values`` at ``indices`` as a new list (a unit range is one slice)."""
    if isinstance(indices, range) and indices.step == 1:
        return values[indices.start:indices.stop]
    return [values[i] for i in indices]


def gather_columns(columns: Sequence[List[Any]],
                   indices: Sequence[int]) -> List[List[Any]]:
    """Every one of ``columns`` at ``indices``, each as a new list.

    The indices are unpacked once, into one ``itemgetter`` that every
    column goes through at C speed; a unit range is still one slice per
    column, and one column or fewer than two indices is :func:`gather`.
    """
    if (len(columns) < 2 or len(indices) < 2
            or isinstance(indices, range) and indices.step == 1):
        return [gather(values, indices) for values in columns]
    pick = itemgetter(*indices)
    return [list(pick(values)) for values in columns]


def agreed_kinds(first: Kinds, second: Kinds) -> Kinds:
    """The kinds of two batches' rows together: a column keeps its kind
    only where both batches give it the same one."""
    if first is None or second is None:
        return None
    return [a if a is b else None for a, b in zip(first, second)]


def transpose(rows: Sequence[Sequence[Any]], width: int) -> List[Sequence[Any]]:
    """Row tuples as ``width`` columns (no rows: ``width`` empty columns,
    which a bare ``zip(*rows)`` cannot know)."""
    return list(zip(*rows)) if rows else [()] * width


class ColumnBatch:
    """Column-name → list-of-values chunk with per-row node attribution.

    A slice yielded by ``Engine.scan`` also names where its rows live:
    their ``row_ids`` in the ROS ``container`` that UPDATE and DELETE
    stage delete vectors against (``None``: uncommitted WOS rows).  Both
    are ``None`` for every batch an operator builds from several slices.

    ``kinds`` says which Python type every value of a column has, where
    storage knows it (``RosContainer.kind``), so that an operator sizing
    the column need not look at each value's type.
    """

    __slots__ = ("names", "columns", "nodes", "index", "container", "row_ids",
                 "synthetic_hashes", "kinds")

    def __init__(
        self,
        names: List[str],
        columns: List[List[Any]],
        nodes: List[str],
        container: Optional[Any] = None,
        row_ids: Optional[Sequence[int]] = None,
        kinds: Kinds = None,
    ):
        self.names = names
        self.columns = columns
        self.nodes = nodes
        self.container = container
        self.row_ids = row_ids
        self.kinds = kinds
        #: a repeated name keeps its last occurrence, like dict(zip(...))
        self.index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        #: ``SYNTHETIC_HASH()`` of every row, kept by its kernel on first
        #: use: a V2S task's ``>= lo AND < hi`` reads it twice
        self.synthetic_hashes: Optional[List[int]] = None

    @property
    def num_rows(self) -> int:
        return len(self.nodes)

    def rows(self) -> List[Tuple[Any, ...]]:
        """Materialize row tuples (used at pipeline edges only)."""
        if not self.columns:
            return [()] * len(self.nodes)
        return list(zip(*self.columns))

