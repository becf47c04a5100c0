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
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=100)
settings.register_profile("dev", max_examples=25)
settings.load_profile("dev")
