"""``batch.gather_columns`` is ``gather`` once per column.

A scan slices every column it reads through one set of row indices;
``gather_columns`` does it through one ``itemgetter``.  Whatever the
indices — a unit range (slices), a stepped range, a list of none, one or
many, repeats included — each column must come back as ``gather`` gives
it, as a list of its own.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.vertica.batch import gather, gather_columns

LENGTH = 12


def assert_gathers_like_gather(columns, indices):
    got = gather_columns(columns, indices)
    assert got == [gather(values, indices) for values in columns]
    assert all(type(values) is list for values in got)
    # fresh lists: none is a stored column, and no two are one list
    assert not {id(values) for values in got} & {id(c) for c in columns}
    assert len({id(values) for values in got}) == len(got)


def columns_of(width):
    return [[f"c{c}r{r}" for r in range(LENGTH)] for c in range(width)]


@given(
    width=st.integers(0, 4),
    indices=st.one_of(
        st.builds(range, st.integers(0, LENGTH), st.integers(0, LENGTH)),
        st.builds(range, st.integers(0, LENGTH - 1), st.integers(-1, LENGTH),
                  st.sampled_from((2, 3, -1, -2))),
        st.lists(st.integers(0, LENGTH - 1), max_size=20),
    ),
)
def test_every_column_is_gathered_like_gather(width, indices):
    assert_gathers_like_gather(columns_of(width), indices)


def test_named_shapes():
    for indices in ([], [5], [3, 3], [7, 1, 7, 0], list(range(LENGTH)),
                    range(0), range(4, 9), range(0, LENGTH, 2),
                    range(LENGTH - 1, -1, -3)):
        for width in (1, 2, 3):
            assert_gathers_like_gather(columns_of(width), indices)

