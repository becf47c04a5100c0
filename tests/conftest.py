"""Hypothesis profiles: how long the long differential tests run.

A profile's ``max_examples`` is the unit the few multi-second hypothesis
tests count their examples in (``tests/test_avro_differential.py`` asks
for ``6 * settings.default.max_examples`` and the like); every other
hypothesis test here states its own count and does not move with the
profile.

- ``ci`` — hypothesis's own default of 100: the counts the suite was
  written with.  ``.github/workflows/ci.yml`` runs
  ``pytest --hypothesis-profile=ci``.
- ``dev`` — a quarter of that, loaded when no profile is named, so the
  suite every session runs with ``-x`` does not spend a minute in four
  tests.

Also the ``hash_calls`` fixture: a count of ``vertica_hash`` calls, for the
tests that pin where the engine may (and may not) hash a row; and
``selector_reads``, the values a scan's pushed selector read.
"""

import pytest
from hypothesis import settings

from repro.vertica import hashring
from repro.vertica.plan import physical

settings.register_profile("ci", max_examples=100)
settings.register_profile("dev", max_examples=25)
settings.load_profile("dev")


@pytest.fixture
def hash_calls(monkeypatch):
    """A one-element list counting every ``vertica_hash`` call.

    Call sites bind ``vertica_hash`` at import, so patching that name
    would miss them; each call reaches ``hashring._fnv1a`` exactly once,
    by a module-global lookup, and that is what the spy wraps.
    """
    calls = [0]
    real = hashring._fnv1a

    def counting(data):
        calls[0] += 1
        return real(data)

    monkeypatch.setattr(hashring, "_fnv1a", counting)
    return calls


@pytest.fixture
def selector_reads(monkeypatch):
    """Every list of values a scan's selector read (``Engine.scan``'s
    ``select``), in order: a ROS column list itself where the slice was
    its whole container, else a gathered copy."""
    read = []
    real = physical.column_selector_of

    def spying(predicate):
        found = real(predicate)
        if found is None:
            return None
        name, pick = found

        def select(values):
            read.append(values)
            return pick(values)

        return name, select

    monkeypatch.setattr(physical, "column_selector_of", spying)
    return read
