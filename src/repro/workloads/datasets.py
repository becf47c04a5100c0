"""The paper's two datasets, at laptop scale with virtual volume.

- **D1**: 100 columns of float64 drawn uniformly from [0, 1); 100 million
  rows; 140 GB as CSV.
- **D2**: Twitter-like data — a ``tweet_id`` (long) and ``tweet_text``
  (string); 1.46 billion rows; also 140 GB as CSV.

A :class:`Dataset` carries a small set of *real* rows (deterministic,
seeded) plus the paper's *virtual* row count; ``scale`` is the ratio.
Protocols move the real rows; the simulation charges real bytes × scale,
so a 2,000-row laptop dataset exercises the exact code path the paper ran
over 140 GB while the simulated clock sees 140 GB.

The rows are drawn from numpy's legacy ``RandomState(seed)`` stream —
MT19937 seeded by ``init_genrand`` — reproduced bit for bit by the
stdlib's own MT19937 (:class:`_LegacyRandom`), so the datasets need no
numpy and every value, and every byte charged for it, is the one numpy
would draw.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.spark.row import StructField, StructType
from repro.vertica.batch import transpose

D1_VIRTUAL_ROWS = 100_000_000
D2_VIRTUAL_ROWS = 1_460_000_000

_WORDS = (
    "data spark vertica fast load query cluster node epoch hash copy "
    "stream table row column analytics model train predict fabric big "
    "enterprise pipeline connector shuffle network segment commit"
).split()


class _LegacyRandom:
    """numpy's legacy ``RandomState(seed)`` draws, bit for bit, on the stdlib.

    Both generators are MT19937: seeded with numpy's ``init_genrand(seed)``
    state, ``random.Random.random`` is numpy's ``random_sample`` (both are
    ``genrand_res53``), and :meth:`randint` is numpy's legacy masked
    rejection over 32-bit words.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= 0xFFFFFFFF:
            raise ValueError("Seed must be between 0 and 2**32 - 1")
        key = [seed]
        for i in range(1, 624):
            prev = key[-1]
            key.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
        self._rng = random.Random(0)
        self._rng.setstate((3, tuple(key) + (624,), None))
        self.random_sample = self._rng.random

    def randint(self, low: int, high: int) -> int:
        """A uniform int in ``[low, high)``, as ``RandomState.randint``."""
        if high <= low:
            raise ValueError("low >= high")
        span = high - 1 - low
        if span == 0:
            return low
        mask = (1 << span.bit_length()) - 1
        word = self._rng.getrandbits
        while True:
            if span <= 0xFFFFFFFF:
                value = word(32) & mask
            else:  # numpy's next_uint64: the high word is drawn first
                value = (word(32) << 32 | word(32)) & mask
            if value <= span:
                return low + value


class Dataset:
    """Real rows standing in for a virtual row count."""

    def __init__(
        self,
        name: str,
        schema: StructType,
        rows: List[Tuple],
        virtual_rows: int,
        segmentation: Sequence[str] = (),
    ):
        if not rows:
            raise ValueError("a dataset requires at least one real row")
        if virtual_rows < len(rows):
            raise ValueError("virtual_rows must be >= the real row count")
        self.name = name
        self.schema = schema
        self.rows = rows
        self.virtual_rows = virtual_rows
        self.segmentation = list(segmentation) or [schema.fields[0].name]

    @property
    def real_rows(self) -> int:
        return len(self.rows)

    @property
    def scale(self) -> float:
        return self.virtual_rows / len(self.rows)

    def with_virtual_rows(self, virtual_rows: int) -> "Dataset":
        """The same real rows standing for a different virtual volume."""
        return Dataset(
            self.name, self.schema, self.rows, virtual_rows, self.segmentation
        )

    def create_table_sql(self, table: str, varchar_length: int = 300) -> str:
        return self.schema.create_table_sql(
            table, segmented_by=self.segmentation, varchar_length=varchar_length
        )

    def csv_text(self) -> str:
        """The real rows as CSV (for COPY-based loads)."""
        lines = []
        for row in self.rows:
            fields = []
            for value in row:
                if value is None:
                    fields.append("")
                elif isinstance(value, float):
                    # ~12 significant digits: the paper's D1 is 1400 CSV
                    # bytes per 100-column row (14 bytes per value)
                    fields.append(f"{value:.10g}")
                else:
                    fields.append(str(value))
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    def csv_bytes_per_row(self) -> float:
        text = self.csv_text()
        return len(text.encode("utf-8")) / len(self.rows)

    def virtual_csv_bytes(self) -> float:
        return self.csv_bytes_per_row() * self.virtual_rows


def make_d1(
    real_rows: int = 2000,
    virtual_rows: int = D1_VIRTUAL_ROWS,
    num_cols: int = 100,
    seed: int = 11,
) -> Dataset:
    """Dataset D1: ``num_cols`` float64 columns uniform in [0, 1)."""
    draw = _LegacyRandom(seed).random_sample
    columns = range(num_cols)
    rows = [tuple([draw() for _ in columns]) for _ in range(real_rows)]
    schema = StructType(
        [StructField(f"c{i:03d}", "double") for i in range(num_cols)]
    )
    return Dataset("D1", schema, rows, virtual_rows, segmentation=["c000"])


def make_d1_reshaped(
    real_rows: int = 2000,
    virtual_rows: int = 10_000_000_000,
    seed: int = 11,
) -> Dataset:
    """D1 reshaped to 1 column × 10,000M rows (same cell count, §4.5)."""
    data = make_d1(real_rows=real_rows, num_cols=1, seed=seed)
    return Dataset("D1x1col", data.schema, data.rows, virtual_rows, ["c000"])


def make_d1_with_int_column(
    real_rows: int = 2000,
    virtual_rows: int = D1_VIRTUAL_ROWS,
    num_cols: int = 100,
    seed: int = 11,
) -> Dataset:
    """D1 plus a uniform integer column in [0, 100) (§4.7.1).

    The JDBC Default Source can only parallelise over an integer column
    with known min/max, and the paper's 5% selectivity predicate selects
    on this column.
    """
    base = make_d1(real_rows, virtual_rows, num_cols, seed)
    rng = _LegacyRandom(seed + 1)
    rows = [(rng.randint(0, 100),) + row for row in base.rows]
    schema = StructType(
        [StructField("ikey", "long")] + list(base.schema.fields)
    )
    return Dataset("D1+int", schema, rows, virtual_rows, segmentation=["ikey"])


def make_d2(
    real_rows: int = 4000,
    virtual_rows: int = D2_VIRTUAL_ROWS,
    seed: int = 23,
) -> Dataset:
    """Dataset D2: (tweet_id, tweet_text) rows, ~96 CSV bytes per row."""
    rng = _LegacyRandom(seed)
    rows: List[Tuple] = []
    for _ in range(real_rows):
        tweet_id = rng.randint(1, 2**62)
        length = 0
        words = []
        target = 70 + rng.randint(0, 20)
        while length < target:
            word = _WORDS[rng.randint(0, len(_WORDS))]
            # sprinkle in unique tokens so the text is only mildly
            # compressible, like real tweets
            if rng.random_sample() < 0.3:
                word = f"{word}{rng.randint(0, 10**6)}"
            words.append(word)
            length += len(word) + 1
        rows.append((tweet_id, " ".join(words)[:target]))
    schema = StructType(
        [StructField("tweet_id", "long"), StructField("tweet_text", "string")]
    )
    return Dataset("D2", schema, rows, virtual_rows, segmentation=["tweet_id"])


def load_direct(cluster, dataset: Dataset, table: str,
                varchar_length: int = 300) -> None:
    """Populate a Vertica table with a dataset's real rows, bypassing the
    simulated network (experiment setup, not part of any measurement)."""
    db = cluster.db if hasattr(cluster, "db") else cluster
    session = db.connect()
    try:
        session.execute(dataset.create_table_sql(table, varchar_length))
        txn = db.begin()
        # create_table_sql declares the schema's fields in order, so the
        # transposed rows are already table-ordered columns.
        columns = transpose(dataset.rows, len(dataset.schema.fields))
        db.engine.insert_rows(table.upper(), columns, txn)
        txn.commit(db.storage)
    finally:
        session.close()
