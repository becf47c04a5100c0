"""Column-major COPY against the frozen row-at-a-time loader.

``run_copy`` transposes a decoded payload once, coerces per column and
stages per node; ``tests/reference_copy.py`` is the loader it replaced.
Same payload into two identical databases must leave identical storage
(primary and k-safety replica containers, row hashes included), report
identical rejections and cost — or raise the identical error.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avrolite import Schema, encode_rows
from repro.hdfs.columnar import write_columnar
from repro.vertica import VerticaDatabase
from repro.vertica.copyload import avro_schema_for_table, run_copy
from repro.vertica.errors import VerticaError
from repro.vertica.sql.parser import parse_statement
from repro.vertica.types import FloatType, IntegerType
from repro.workloads.datasets import make_d1_with_int_column
from tests import reference_copy

SEGMENTATIONS = {
    "one": "SEGMENTED BY HASH(a) ALL NODES",
    "two": "SEGMENTED BY HASH(a, c) ALL NODES",
    "none": "UNSEGMENTED ALL NODES",
}
#: values an Avro field of each kind can carry into a column
VALUES = {
    "long": st.one_of(st.integers(-50, 50), st.integers(-(1 << 63), (1 << 63) - 1)),
    "double": st.one_of(
        st.integers(-20, 20).map(float),
        st.sampled_from([0.5, -2.25, 1e30, float("inf")]),
    ),
    "string": st.sampled_from(["", "a", "héé", "12345678", "123456789", "x" * 40]),
    "boolean": st.booleans(),
}
#: the kind each column of ``t (a INTEGER, b FLOAT, c VARCHAR(8), d BOOLEAN)``
#: expects, listed first and therefore most often
KINDS = [
    ["long", "double", "string"],
    ["double", "long", "boolean"],
    ["string", "long"],
    ["boolean", "string"],
]


def make_db(segmentation: str, k_safety: int) -> VerticaDatabase:
    db = VerticaDatabase(num_nodes=3, k_safety=k_safety)
    db.connect().execute(
        "CREATE TABLE t (a INTEGER, b FLOAT, c VARCHAR(8), d BOOLEAN) "
        + SEGMENTATIONS[segmentation]
    )
    return db


@st.composite
def payloads(draw) -> Tuple[str, bytes]:
    """A binary COPY payload whose file schema need not match the table:
    mostly four fields of mostly the right kinds, NULLs anywhere."""
    width = draw(st.sampled_from([4, 4, 4, 4, 3, 5]))
    kinds = [
        draw(st.sampled_from(KINDS[i] * 3 + KINDS[i][:1] * 6 if i < 4 else ["long"]))
        for i in range(width)
    ]
    schema = Schema.record(
        "t", [(f"f{i}", Schema.primitive(kind, nullable=True))
              for i, kind in enumerate(kinds)]
    )
    row = st.tuples(*(st.one_of(st.none(), VALUES[kind]) for kind in kinds))
    file_format = draw(st.sampled_from(["AVRO", "COLUMNAR"]))
    if file_format == "AVRO":
        return file_format, encode_rows(schema, draw(st.lists(row, max_size=12)))
    frames = draw(st.lists(st.lists(row, max_size=6), min_size=1, max_size=3))
    return file_format, b"".join(write_columnar(schema, rows) for rows in frames)


def storage_image(db: VerticaDatabase) -> Dict[str, Any]:
    return {
        node: (
            [(c.columns, c.row_hashes) for c in storage.table_containers("T")],
            [(c.columns, c.row_hashes) for c in storage.replica_containers("T")],
        )
        for node, storage in db.storage.items()
    }


def cost_image(cost) -> Dict[str, Any]:
    image = dict(vars(cost))
    image["node_rows_written_order"] = list(cost.node_rows_written)
    return image


def outcome(db: VerticaDatabase, load) -> Tuple[Any, ...]:
    """Run ``load(txn)`` and commit; everything an observer could compare."""
    txn = db.begin()
    try:
        loaded, copy_result, cost = load(txn)
    except VerticaError as exc:
        txn.abort()
        sample = [(r.line, r.reason) for r in getattr(exc, "sample", [])]
        return ("raised", type(exc).__name__, str(exc), sample, storage_image(db))
    wos_keys = (list(txn.wos), list(txn.replica_wos))
    txn.commit(db.storage)
    return (
        "ok", loaded, copy_result.loaded, copy_result.rejected,
        [(r.line, r.reason) for r in copy_result.sample],
        cost_image(cost), wos_keys, storage_image(db),
    )


def both_outcomes(segmentation, k_safety, file_format, payload, reject_max):
    clause = "" if reject_max is None else f" REJECTMAX {reject_max}"
    statement = parse_statement(
        f"COPY t FROM STDIN FORMAT {file_format}{clause} DIRECT"
    )

    def columnar_load(db):
        def load(txn):
            result, copy_result = run_copy(db.engine, statement, txn, payload)
            return result.rows[0][0], copy_result, result.cost
        return load

    def reference_load(db):
        return lambda txn: reference_copy.run_copy(db, statement, txn, payload)

    new_db, old_db = make_db(segmentation, k_safety), make_db(segmentation, k_safety)
    return outcome(new_db, columnar_load(new_db)), outcome(
        old_db, reference_load(old_db)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(SEGMENTATIONS)),
    st.sampled_from([0, 1]),
    payloads(),
    st.one_of(st.none(), st.integers(0, 12), st.just(1 << 31)),
)
def test_copy_matches_the_row_at_a_time_loader(
    segmentation, k_safety, payload, reject_max
):
    file_format, data = payload
    got, want = both_outcomes(segmentation, k_safety, file_format, data, reject_max)
    assert got == want


@pytest.mark.parametrize("segmentation", sorted(SEGMENTATIONS))
def test_rejectmax_edge(segmentation):
    """Exactly REJECTMAX bad rows load; one more fails — on both sides,
    with the same sample in row order."""
    table = make_db(segmentation, 0).catalog.table("T")
    rows: List[Tuple[Any, ...]] = [
        (i, float(i), "x" * (9 if i % 3 == 0 else 2), i % 2 == 0) for i in range(30)
    ]
    payload = encode_rows(avro_schema_for_table(table), rows)
    bad = sum(1 for i in range(30) if i % 3 == 0)
    for reject_max, status in ((bad, "ok"), (bad - 1, "raised")):
        got, want = both_outcomes(segmentation, 1, "AVRO", payload, reject_max)
        assert got == want
        assert got[0] == status


def test_valid_payload_is_never_coerced_value_by_value(monkeypatch):
    """A typed file's columns pass the type-set check, in COPY and again
    in ``insert_rows``: ``SqlType.coerce`` runs for no value at all."""
    dataset = make_d1_with_int_column(200, num_cols=20)
    db = VerticaDatabase(num_nodes=4)
    session = db.connect()
    session.execute(dataset.create_table_sql("d1"))
    calls = {"n": 0}
    for sql_type in (IntegerType, FloatType):
        original = sql_type.coerce

        def counting(self, value, original=original):
            calls["n"] += 1
            return original(self, value)

        monkeypatch.setattr(sql_type, "coerce", counting)
    payload = encode_rows(dataset.schema.to_avro("s2v_row"), dataset.rows)
    session.execute("COPY d1 FROM STDIN FORMAT AVRO DIRECT", copy_data=payload)
    assert session.last_copy_result.loaded == 200
    assert calls["n"] == 0
    assert sorted(session.execute("SELECT * FROM d1").rows) == sorted(dataset.rows)
    # ... and a column that does need converting is coerced exactly once.
    ints = [(row[0], *map(int, row[1:])) for row in dataset.rows[:10]]
    payload = encode_rows(
        Schema.record("r", [(f"f{i}", Schema.primitive("long", nullable=True))
                            for i in range(21)]),
        ints,
    )
    session.execute("COPY d1 FROM STDIN FORMAT AVRO DIRECT", copy_data=payload)
    assert calls["n"] == 10 * 20
