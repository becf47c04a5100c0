"""The paper's datasets are numpy's legacy stream, drawn without numpy.

``repro.workloads.datasets`` draws D1 and D2 through ``_LegacyRandom``, the
stdlib's MT19937 seeded the way numpy's legacy ``RandomState(seed)`` seeds
it.  The digests below were taken from the ``np.random.RandomState``
generator the module used before, so a drift in any value fails here before
it moves a sim-second.  numpy stays MLlib-lite's dependency alone: the
import guard runs the four fabricbench set-ups in a process where importing
numpy fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.datasets import (
    _LegacyRandom,
    make_d1,
    make_d1_reshaped,
    make_d1_with_int_column,
    make_d2,
)

REPO = Path(__file__).resolve().parents[1]

#: sha256 of ``repr(dataset.rows)``, from ``np.random.RandomState``
GOLDEN = {
    "d1_2000_s11": (
        lambda: make_d1(2000, seed=11),
        "410211fb3e88f17672071db8a9dcd3b3a6c5084ffe36a506ebb8925bd015b16a",
    ),
    "d1_8000_s3": (
        lambda: make_d1(8000, seed=3),
        "de56f10d0423a68d3fd508af6328687f4dc24182a45468768887751d13a4575a",
    ),
    "d1_2000x20_s11": (
        lambda: make_d1(2000, num_cols=20, seed=11),
        "8e2cda0fa3f7d6e42e4d5c8287dd786e565b8c4a59975f699932a3b6bdd0d134",
    ),
    "d1_int_2000_s11": (
        lambda: make_d1_with_int_column(2000, seed=11),
        "0942cd08d0e94ea93c2b34e83f9b7dd9fa6b5980b64c7e74a453dc50ac589620",
    ),
    "d1_reshaped_2000_s11": (
        lambda: make_d1_reshaped(2000, seed=11),
        "7eb6a6e019fb3d278ec4ab7d5a0676de2fd3208462d2261c22e1d67b081a18db",
    ),
    "d2_4000_s23": (
        lambda: make_d2(4000, seed=23),
        "df2752769e5a24f5f8d342eab4b4aa64ad707fca4e7bf7e793857b657bc060de",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dataset_rows_match_the_numpy_digest(name):
    build, digest = GOLDEN[name]
    rows = build().rows
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


#: (low, high) pairs: spans 1 (no draw), 100, 2**32 - 1 and 2**32 (one word
#: each), 2**32 + 1 and 2**62 - 1 (two words, high word first)
SPANS = [
    (5, 6),
    (0, 100),
    (7, 7 + 2**32 - 1),
    (0, 2**32),
    (-3, -3 + 2**32 + 1),
    (1, 2**62),
]


@pytest.mark.parametrize("seed", [0, 1, 11, 2**31, 2**32 - 1])
def test_draws_match_random_state(seed):
    np = pytest.importorskip("numpy")
    ours = _LegacyRandom(seed)
    theirs = np.random.RandomState(seed)
    for step in range(600):
        if step % 3 == 0:
            assert ours.random_sample() == theirs.random_sample()
        else:
            low, high = SPANS[step % len(SPANS)]
            assert ours.randint(low, high) == int(theirs.randint(low, high))
    # the streams are still in step after every kind of draw
    assert ours.random_sample() == theirs.random_sample()


@pytest.mark.parametrize("seed", [-1, 2**32, 2**40])
def test_seed_outside_numpys_range_raises(seed):
    with pytest.raises(ValueError):
        _LegacyRandom(seed)


def test_empty_range_raises():
    with pytest.raises(ValueError):
        _LegacyRandom(1).randint(4, 4)


_GUARD = """
import sys
sys.modules["numpy"] = None
sys.path.insert(0, "benchmarks/fabricbench")
import repro.connector, repro.pmml, repro.spark, repro.vertica
import repro.wlm, repro.workloads
import workloads
for name, cls in workloads.WORKLOADS.items():
    cls(11).setup()
try:
    import repro.spark.mllib
except ImportError:
    print("mllib needs numpy")
else:
    raise SystemExit("repro.spark.mllib imported without numpy")
"""


def test_fabric_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-c", _GUARD], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "mllib needs numpy"
