"""Golden pins on the S2V wire bytes.

``len(payload)`` of ``encode_rows``/``write_columnar`` output feeds
``data_bytes``, ``effective_weight`` and ``encode_seconds`` in the S2V
connector, so a codec edit that moves one byte moves sim-seconds in every
paper figure.  The digests below were taken at the commit *before* the
codec was compiled per schema (PR 16's parent); they may only change
together with the committed grid baselines.

The uncompressed Avro stream is pinned unconditionally.  The compressed
forms also depend on the zlib that produced them, so they are checked
only where zlib reproduces a reference deflate stream (stock zlib 1.2.x
and 1.3.x do).
"""

from __future__ import annotations

import hashlib
import zlib

import pytest

from repro.avrolite import decode_rows, encode_rows
from repro.hdfs.columnar import read_columnar, write_columnar
from repro.workloads.datasets import make_d1_with_int_column, make_d2

GOLDEN = {
    ("d1", "avro_null"): "a5c07bdc7a6b3ca9879765fb61e423ff81627d99fb01488aaa5ce156646e5dc1",
    ("d1", "avro"): "1d716784243cdb2e1399324fee2a423adc2e94f57bc88ea9c66cbdd117c44126",
    ("d1", "columnar"): "ace3317abb8d58c0cf2cec72f1aba150f1b043b4deff93fe84849e5432284d9a",
    ("d1_nulls", "avro_null"): "dfc1b4c882b4c5bde5b5bdc46aa6998b121f82569422e02eae1eaff4e68471d4",
    ("d1_nulls", "avro"): "e49d58cd026b5439bf8922bf402aa53caedde32d2a233155a7092430e20046f6",
    ("d1_nulls", "columnar"): "3571dbe0a25a23b43a5578c1ae9b56231cef1b56ba1cf9d255b1e0472e79065c",
    ("d2", "avro_null"): "007b097f3a9a956a9345a6be46a3fa9f051e84edb781fe344fd60051cdba549f",
    ("d2", "avro"): "abbe9213e578e3b2e058893db396671c2142edddc2d3b2e8d63a86e083d6aa10",
    ("d2", "columnar"): "45a731f040898091fce30bf3646f8f62afefec45b024d58d6cd961d8da8c103f",
}
#: sha256 of zlib.compress(<the uncompressed D2 Avro stream>, 6)
ZLIB_CANARY = "79f7a35ceea408c3c5e443e2a7dc10beda210a7610256e6db0e765c069b515dc"


def _with_nulls(rows):
    """Every 7th row loses its 3rd and last value: NULLs inside (and at
    the end of) the 20-double run, so those rows leave the struct path."""
    out = []
    for i, row in enumerate(rows):
        if i % 7 == 0:
            row = row[:2] + (None,) + row[3:-1] + (None,)
        out.append(row)
    return out


@pytest.fixture(scope="module")
def datasets():
    d1 = make_d1_with_int_column(4000, num_cols=20)
    d2 = make_d2(4000)
    return {
        "d1": (d1.schema.to_avro("s2v_row"), d1.rows),
        "d1_nulls": (d1.schema.to_avro("s2v_row"), _with_nulls(d1.rows)),
        "d2": (d2.schema.to_avro("s2v_row"), d2.rows),
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", ["d1", "d1_nulls", "d2"])
def test_wire_bytes_match_the_golden_digests(datasets, name):
    schema, rows = datasets[name]
    raw = encode_rows(schema, rows, codec="null")
    assert _digest(raw) == GOLDEN[name, "avro_null"]
    assert decode_rows(raw) == rows
    __, d2_rows = datasets["d2"]
    canary = zlib.compress(encode_rows(datasets["d2"][0], d2_rows, codec="null"), 6)
    if _digest(canary) != ZLIB_CANARY:
        pytest.skip("this zlib emits different deflate streams than the pins'")
    avro = encode_rows(schema, rows, codec="deflate")
    assert _digest(avro) == GOLDEN[name, "avro"]
    assert decode_rows(avro) == rows
    columnar = write_columnar(schema, rows)
    assert _digest(columnar) == GOLDEN[name, "columnar"]
    assert read_columnar(columnar) == (schema, rows)
