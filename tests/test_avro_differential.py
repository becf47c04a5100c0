"""The compiled Avro codec against the frozen per-value interpreter.

``repro.avrolite.io`` compiles closures per schema and packs runs of
fixed-width fields with one ``struct`` call; ``tests/reference_avro.py``
is the interpreter it replaced.  Both must agree byte for byte — or fail
with the same exception class and message — on anything a caller can
hand them, including the inputs the fast paths cannot take.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.avrolite import BinaryDecoder, BinaryEncoder, DatumReader, DatumWriter
from repro.avrolite.schema import PRIMITIVES, Schema
from tests.reference_avro import (
    ReferenceDatumReader,
    ReferenceDatumWriter,
    ReferenceDecoder,
    ReferenceEncoder,
    zero_width,
)

FIXED_WIDTH = ("float", "double")
#: the active hypothesis profile's example count (tests/conftest.py): 100
#: under ``--hypothesis-profile=ci``, a quarter of that when none is named
UNIT = settings.default.max_examples


# ------------------------------------------------------------------ schemas
def primitives() -> st.SearchStrategy[Schema]:
    return st.builds(Schema.primitive, st.sampled_from(PRIMITIVES), st.booleans())


def fixed_width_runs() -> st.SearchStrategy[List[Schema]]:
    """0–5 adjacent fields of one fixed-width kind and nullability."""
    return st.builds(
        lambda kind, nullable, count: [
            Schema.primitive(kind, nullable) for __ in range(count)
        ],
        st.sampled_from(FIXED_WIDTH), st.booleans(), st.integers(0, 5),
    )


def records(children: st.SearchStrategy[Schema]) -> st.SearchStrategy[Schema]:
    groups = st.lists(
        st.one_of(children.map(lambda schema: [schema]), fixed_width_runs()),
        max_size=4,
    )

    def build(parts: List[List[Schema]], nullable: bool) -> Schema:
        fields = [schema for part in parts for schema in part]
        record = Schema.record(
            "r", [(f"f{i}", schema) for i, schema in enumerate(fields)]
        )
        record.nullable = nullable
        return record

    return st.builds(build, groups, st.booleans())


def arrays(children: st.SearchStrategy[Schema]) -> st.SearchStrategy[Schema]:
    """Arrays the codec accepts; ``test_zero_width_items_are_refused`` has
    the rest."""
    def build(items: Schema, nullable: bool) -> Schema:
        array = Schema.array(items)
        array.nullable = nullable
        return array

    items = children.filter(lambda schema: not zero_width(schema))
    return st.builds(build, items, st.booleans())


def schemas() -> st.SearchStrategy[Schema]:
    return st.recursive(
        primitives(),
        lambda children: st.one_of(records(children), arrays(children)),
        max_leaves=8,
    )


# --------------------------------------------------------------------- data
#: the single-byte varint range is [-64, 64); 64-bit is the wire's limit
INTS = st.one_of(
    st.sampled_from([-65, -64, -1, 0, 63, 64, -(1 << 63), (1 << 63) - 1]),
    st.integers(-70, 70),
    st.integers(-(1 << 63), (1 << 63) - 1),
)
#: lengths around the one-byte length prefix's limit of 63
SIZES = st.sampled_from([0, 1, 62, 63, 64, 65, 200])
FLOATS = st.floats(allow_nan=False, width=32)
#: what callers really hand a writer besides well-typed values
NOISE = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["1.5", "12", "abc", "", b"\x00\x01", 1 << 70, -(1 << 64)]),
    st.floats(allow_nan=False),
    st.integers(-5, 5),
)


def data(schema: Schema, noisy: bool = True) -> st.SearchStrategy[Any]:
    """Well-typed data for ``schema`` — every form the writer converts
    (ints for floats, lists and dicts for records) — plus, when ``noisy``,
    a tail at every level of what it must refuse or quietly convert
    exactly as the interpreter did."""
    kind = schema.kind
    base: st.SearchStrategy[Any]
    if kind == "null":
        base = st.none()
    elif kind == "boolean":
        base = st.booleans()
    elif kind in ("int", "long"):
        base = INTS
    elif kind in FIXED_WIDTH:
        base = st.one_of(FLOATS, st.integers(-1000, 1000))
    elif kind == "bytes":
        base = st.one_of(st.binary(max_size=80), SIZES.map(lambda n: b"b" * n))
    elif kind == "string":
        base = st.one_of(st.text(max_size=80), SIZES.map(lambda n: "s" * n))
    elif kind == "record":
        names = schema.field_names()
        values = st.tuples(*(data(child, noisy) for __, child in schema.fields))
        base = st.one_of(
            values,
            values.map(list),
            values.map(lambda row: dict(zip(names, row))),
        )
    else:
        assert schema.items is not None
        base = st.lists(data(schema.items, noisy), max_size=5)
        base = st.one_of(base, base.map(tuple))
    if schema.nullable:
        base = st.one_of(st.none(), base)
    return st.one_of(base, base, base, NOISE) if noisy else base


@st.composite
def schema_and_batch(draw, noisy: bool = True) -> Tuple[Schema, List[Any]]:
    schema = draw(schemas())
    return schema, draw(st.lists(data(schema, noisy), max_size=6))


# ------------------------------------------------------------------ helpers
def outcome(action: Callable[[], Any]) -> Tuple[str, Any]:
    """``("ok", repr of the result)`` or ``("raised", class, message)``.

    repr() keeps NaN, -0.0 and the tuple/list distinction comparable.
    """
    try:
        return "ok", repr(action())
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return "raised", (type(exc).__name__, str(exc))


def reference_bytes(schema: Schema, batch: List[Any]) -> bytes:
    encoder = ReferenceEncoder()
    writer = ReferenceDatumWriter(schema)
    for datum in batch:
        writer.write(datum, encoder)
    return encoder.getvalue()


def compiled_bytes(schema: Schema, batch: List[Any]) -> bytes:
    encoder = BinaryEncoder()
    writer = DatumWriter(schema)
    for datum in batch:
        writer.write(datum, encoder)
    return encoder.getvalue()


def compiled_bulk_bytes(schema: Schema, batch: List[Any]) -> bytes:
    encoder = BinaryEncoder()
    DatumWriter(schema).write_many(batch, encoder)
    return encoder.getvalue()


def reference_read(schema: Schema, payload: bytes, count: int):
    decoder = ReferenceDecoder(payload)
    reader = ReferenceDatumReader(schema)
    return [reader.read(decoder) for __ in range(count)], decoder.pos


def compiled_read(schema: Schema, payload: bytes, count: int):
    decoder = BinaryDecoder(payload)
    reader = DatumReader(schema)
    return [reader.read(decoder) for __ in range(count)], decoder.pos


def compiled_bulk_read(schema: Schema, payload: bytes, count: int):
    decoder = BinaryDecoder(payload)
    values = DatumReader(schema).read_many(decoder, count)
    return list(values), decoder.pos


# -------------------------------------------------------------------- tests
@settings(max_examples=6 * UNIT, deadline=None)
@given(schema_and_batch())
def test_writer_emits_reference_bytes_or_reference_error(case):
    schema, batch = case
    expected = outcome(lambda: reference_bytes(schema, batch))
    assert outcome(lambda: compiled_bytes(schema, batch)) == expected
    assert outcome(lambda: compiled_bulk_bytes(schema, batch)) == expected


@settings(max_examples=6 * UNIT, deadline=None)
@given(schema_and_batch(noisy=False))
def test_reader_decodes_reference_bytes(case):
    schema, batch = case
    payload = reference_bytes(schema, batch)
    expected = outcome(lambda: reference_read(schema, payload, len(batch)))
    assert expected[0] == "ok"
    assert outcome(lambda: compiled_read(schema, payload, len(batch))) == expected
    assert outcome(
        lambda: compiled_bulk_read(schema, payload, len(batch))
    ) == expected


@settings(max_examples=2 * UNIT, deadline=None)
@given(schema_and_batch(noisy=False))
def test_reader_agrees_on_every_truncation(case):
    schema, batch = case
    payload = reference_bytes(schema, batch)[:400]
    for cut in range(len(payload)):
        short = payload[:cut]
        expected = outcome(lambda: reference_read(schema, short, len(batch)))
        assert outcome(
            lambda: compiled_read(schema, short, len(batch))
        ) == expected, cut
        assert outcome(
            lambda: compiled_bulk_read(schema, short, len(batch))
        ) == expected, cut


@settings(max_examples=4 * UNIT, deadline=None)
@given(schema_and_batch(noisy=False), st.data())
def test_reader_agrees_on_corrupted_bytes(case, draw):
    """One overwritten byte: invalid union branches, negative lengths,
    wild counts — same value or same error either way."""
    schema, batch = case
    payload = reference_bytes(schema, batch)
    assume(payload)
    position = draw.draw(st.integers(0, len(payload) - 1))
    byte = draw.draw(st.sampled_from([0x00, 0x01, 0x02, 0x04, 0x7F, 0x80, 0xFF]))
    corrupt = payload[:position] + bytes([byte]) + payload[position + 1:]
    expected = outcome(lambda: reference_read(schema, corrupt, len(batch)))
    assert outcome(
        lambda: compiled_read(schema, corrupt, len(batch))
    ) == expected
    assert outcome(
        lambda: compiled_bulk_read(schema, corrupt, len(batch))
    ) == expected


NOTHING = Schema.record("nothing", [("n", Schema.primitive("null"))])
BYTE = Schema.primitive("boolean")


@pytest.mark.parametrize("schema, refused", [
    (Schema.array(Schema.primitive("null")), True),
    (Schema.array(Schema.record("empty", [])), True),
    (Schema.array(Schema.record("r", [("a", NOTHING), ("b", NOTHING)])), True),
    (Schema.array(Schema.array(NOTHING)), True),
    (Schema.record("r", [("a", Schema.array(NOTHING))]), True),
    (Schema.array(Schema.primitive("null", nullable=True)), False),
    (Schema.array(Schema.array(Schema.primitive("long"))), False),
    (Schema.array(Schema.record("r", [("a", NOTHING), ("b", BYTE)])), False),
])
def test_zero_width_items_are_refused(schema, refused):
    """Writers and readers alike, at construction, wherever the array sits:
    items of no bytes leave a corrupt block count nothing to run out of."""
    expected = (
        ("raised", ("SchemaError", "array items must encode to at least one byte"))
        if refused else ("ok", "True")
    )
    for codec in (DatumWriter, DatumReader, ReferenceDatumWriter, ReferenceDatumReader):
        assert outcome(lambda: codec(schema).schema is schema) == expected, codec


def test_a_seven_byte_payload_cannot_ask_for_a_terabyte():
    """The count 2**40 and the end-of-array byte.  As nulls (ROADMAP 6(h):
    ``MemoryError`` under a 1 GiB limit, a runaway without) the schema is
    refused; as anything else the block outruns the bytes left."""
    encoder = ReferenceEncoder()
    encoder.write_long(1 << 40)
    payload = encoder.getvalue() + b"\x00"
    assert len(payload) == 7
    for items, message in [
        ("null", "array items must encode to at least one byte"),
        ("boolean", f"array block of {1 << 40} items in 1 bytes"),
    ]:
        schema = Schema.array(Schema.primitive(items))
        expected = ("raised", ("SchemaError", message))
        assert outcome(lambda: reference_read(schema, payload, 1)) == expected
        assert outcome(lambda: compiled_read(schema, payload, 1)) == expected
        assert outcome(lambda: compiled_bulk_read(schema, payload, 1)) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(FIXED_WIDTH),
    st.integers(2, 5),
    st.data(),
)
def test_long_form_union_branch_inside_a_run(kind, width, draw):
    """``0x82 0x00`` is a legal two-byte varint for branch 1; a run whose
    strided check sees it must fall back, not reject."""
    schema = Schema.record(
        "r", [(f"f{i}", Schema.primitive(kind, nullable=True)) for i in range(width)]
    )
    row = tuple(draw.draw(FLOATS) for __ in range(width))
    payload = reference_bytes(schema, [row])
    stride = len(payload) // width
    field = draw.draw(st.integers(0, width - 1))
    at = field * stride
    assert payload[at] == 0x02
    long_form = payload[:at] + b"\x82\x00" + payload[at + 1:]
    expected = outcome(lambda: reference_read(schema, long_form, 1))
    assert expected[0] == "ok"
    assert outcome(lambda: compiled_read(schema, long_form, 1)) == expected
    assert outcome(lambda: compiled_bulk_read(schema, long_form, 1)) == expected


#: the edges random generation rarely lands on, per primitive kind
BOUNDARIES = {
    "long": [-65, -64, -1, 0, 63, 64, 127, 128, (1 << 63) - 1, -(1 << 63),
             1 << 63, -(1 << 63) - 1, True, "12", "x", 3.7, None],
    "int": [-64, 64, 1 << 31, None],
    "double": [0.0, -0.0, 1.5, 7, True, "1.5", "x", 1 << 2000, None],
    "float": [1.5, 1e300, -1e300, "2", None],
    "string": ["", "s" * 63, "s" * 64, "s" * 65, "é" * 32, 12, None],
    "bytes": [b"", b"b" * 63, b"b" * 64, bytearray(b"xy"), 3, "text", None],
    "boolean": [True, False, 0, "", "no", None],
    "null": [None, 0, "x"],
}


@pytest.mark.parametrize("kind", sorted(BOUNDARIES))
@pytest.mark.parametrize("nullable", [False, True])
def test_primitive_boundaries(kind, nullable):
    schema = Schema.primitive(kind, nullable)
    for datum in BOUNDARIES[kind]:
        expected = outcome(lambda: reference_bytes(schema, [datum]))
        assert outcome(lambda: compiled_bytes(schema, [datum])) == expected, datum
        assert outcome(
            lambda: compiled_bulk_bytes(schema, [datum, datum])
        ) == outcome(lambda: reference_bytes(schema, [datum, datum])), datum
        if expected[0] == "ok":
            payload = reference_bytes(schema, [datum])
            assert outcome(lambda: compiled_read(schema, payload, 1)) == outcome(
                lambda: reference_read(schema, payload, 1)
            ), datum


@pytest.mark.parametrize("payload", [
    b"\x80" * 9 + b"\x01",        # ten bytes: the longest 64-bit varint
    b"\x80" * 10 + b"\x00",       # eleven: still accepted (padding groups)
    b"\x80" * 11 + b"\x00",       # twelve: "varint too long"
    b"\x80" * 5,                  # runs off the end mid-varint
    b"\x7f", b"\x80\x01", b"",
])
def test_varint_edges(payload):
    for kind in ("long", "string"):
        for nullable in (False, True):
            schema = Schema.primitive(kind, nullable)
            data = (b"\x02" if nullable else b"") + payload
            expected = outcome(lambda: reference_read(schema, data, 1))
            assert outcome(lambda: compiled_read(schema, data, 1)) == expected
            assert outcome(lambda: compiled_bulk_read(schema, data, 1)) == expected


def test_fast_paths_are_actually_taken():
    """The differential above would pass with every fast path dead; pin
    that well-typed runs and column chunks never reach a per-value
    closure (compiled here over a poisoned per-value ``struct``)."""
    from unittest import mock

    schema = Schema.record(
        "r",
        [("k", Schema.primitive("long", True))]
        + [(f"c{i}", Schema.primitive("double", True)) for i in range(4)],
    )
    rows = [(i, 1.0 * i, 2.0, 3.0, 4.0) for i in range(50)]
    payload = reference_bytes(schema, rows)
    column = Schema.primitive("double", nullable=True)
    values = [float(i) for i in range(50)]
    column_payload = reference_bytes(column, values)

    per_value = mock.Mock(size=8)
    per_value.pack.side_effect = AssertionError("per-value pack")
    per_value.unpack_from.side_effect = AssertionError("per-value unpack")
    with mock.patch("repro.avrolite.io._DOUBLE", per_value):
        writer, reader = DatumWriter(schema), DatumReader(schema)
        column_writer, column_reader = DatumWriter(column), DatumReader(column)
    encoder = BinaryEncoder()
    writer.write_many(rows, encoder)
    assert encoder.getvalue() == payload
    assert list(reader.read_many(BinaryDecoder(payload), 50)) == rows
    encoder = BinaryEncoder()
    column_writer.write_many(values, encoder)
    assert encoder.getvalue() == column_payload
    assert list(column_reader.read_many(BinaryDecoder(column_payload), 50)) == values
