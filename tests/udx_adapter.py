"""A per-row test UDx as a block UDx.

The registry's contract is ``fn(columns, parameters, num_rows) -> list``,
one call per batch (see ``repro/vertica/udx.py``).  Most test UDxs are
easier to state per row; :func:`per_row` calls such a function once per
row, in row order, so it raises at the first row that raises.
"""

import itertools


def per_row(function):
    """``fn(args, parameters) -> value`` as a block UDx."""

    def block(columns, parameters, num_rows):
        rows = zip(*columns) if columns else itertools.repeat((), num_rows)
        return [function(list(row), parameters) for row in rows]

    return block
