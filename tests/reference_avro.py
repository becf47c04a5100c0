"""A frozen copy of the per-value Avro datum interpreters.

``DatumWriter._write`` and ``DatumReader._read`` as they were before
``repro.avrolite.io`` compiled its codec per schema — one call per
*value*, walking a ``kind`` if-chain — ported verbatim together with the
``BinaryEncoder``/``BinaryDecoder`` primitives they drive, so the oracle
shares no byte-producing code with what it judges.
``tests/test_avro_differential.py`` asserts the compiled codec emits
byte-identical output (or the same exception class and message) and
decodes to equal values.

The wire bytes are a contract, not a detail: ``len(payload)`` feeds
``data_bytes``, ``effective_weight`` and ``encode_seconds`` in the S2V
connector, so a codec that drifts by one byte moves sim-seconds.

Do not "fix" behaviour here; its quirks are the specification.  The one
change since the freeze is what an array may hold (``_array_items`` in
``repro.avrolite.io``): zero-width items are refused at construction and
a block count is bounded by the bytes left, because the interpreter as
frozen would honour a corrupt count of 2**40 nulls.
"""

from __future__ import annotations

import struct
from typing import Any, List

from repro.avrolite.schema import Schema, SchemaError

_FLOAT = struct.Struct("<f")
_DOUBLE = struct.Struct("<d")

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def zero_width(schema: Schema) -> bool:
    """Encodes to no bytes at all: ``null``, or a record of nothing else."""
    if schema.nullable:
        return False
    if schema.kind == "record":
        return all(zero_width(field) for __, field in schema.fields)
    return schema.kind == "null"


def _refuse_zero_width_items(schema: Schema) -> None:
    """What the compiled codec refuses while compiling, checked up front."""
    for child in [s for __, s in schema.fields] + [schema.items]:
        if child is not None:
            _refuse_zero_width_items(child)
    if schema.kind == "array" and zero_width(schema.items):
        raise SchemaError("array items must encode to at least one byte")


class ReferenceEncoder:
    """Appends Avro-encoded primitives to an internal buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def write_long(self, value: int) -> None:
        # zigzag then base-128 varint, little-endian groups of 7 bits
        encoded = (value << 1) ^ (value >> 63)
        encoded &= (1 << 64) - 1
        while True:
            byte = encoded & 0x7F
            encoded >>= 7
            if encoded:
                self._buffer.append(byte | 0x80)
            else:
                self._buffer.append(byte)
                break

    def write_boolean(self, value: bool) -> None:
        self._buffer.append(1 if value else 0)

    def write_float(self, value: float) -> None:
        self._buffer.extend(_FLOAT.pack(value))

    def write_double(self, value: float) -> None:
        self._buffer.extend(_DOUBLE.pack(value))

    def write_bytes(self, value: bytes) -> None:
        self.write_long(len(value))
        self._buffer.extend(value)

    def write_string(self, value: str) -> None:
        self.write_bytes(value.encode("utf-8"))


class ReferenceDecoder:
    """Reads Avro-encoded primitives from a bytes buffer."""

    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos

    @property
    def pos(self) -> int:
        return self._pos

    def read_raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise SchemaError("unexpected end of Avro data")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_long(self) -> int:
        shift = 0
        accum = 0
        while True:
            if self._pos >= len(self._data):
                raise SchemaError("unexpected end of varint")
            byte = self._data[self._pos]
            self._pos += 1
            accum |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise SchemaError("varint too long")
        return (accum >> 1) ^ -(accum & 1)

    def read_boolean(self) -> bool:
        return self.read_raw(1) != b"\x00"

    def read_float(self) -> float:
        return _FLOAT.unpack(self.read_raw(4))[0]

    def read_double(self) -> float:
        return _DOUBLE.unpack(self.read_raw(8))[0]

    def read_bytes(self) -> bytes:
        length = self.read_long()
        if length < 0:
            raise SchemaError(f"negative bytes length: {length}")
        return self.read_raw(length)

    def read_string(self) -> str:
        return self.read_bytes().decode("utf-8")


class ReferenceDatumWriter:
    """Writes arbitrary data matching a :class:`Schema`, value by value."""

    def __init__(self, schema: Schema):
        _refuse_zero_width_items(schema)
        self.schema = schema

    def write(self, datum: Any, encoder: ReferenceEncoder) -> None:
        self._write(self.schema, datum, encoder)

    def _write(self, schema: Schema, datum: Any, enc: ReferenceEncoder) -> None:
        if schema.nullable:
            if datum is None:
                enc.write_long(0)
                return
            enc.write_long(1)
        elif datum is None and schema.kind != "null":
            raise SchemaError(f"None is not valid for non-nullable {schema.kind}")
        kind = schema.kind
        if kind == "null":
            return
        if kind == "boolean":
            enc.write_boolean(bool(datum))
        elif kind in ("int", "long"):
            value = int(datum)
            # The wire format is 64-bit: the encoder masks to 64 bits, so an
            # out-of-range value would silently wrap and decode as a
            # *different* number.  Refuse it here instead — a loud write-time
            # error is symmetric, a corrupted round trip is not.
            if not INT64_MIN <= value <= INT64_MAX:
                raise SchemaError(
                    f"value {value} out of 64-bit range for kind {kind!r}"
                )
            enc.write_long(value)
        elif kind == "float":
            enc.write_float(float(datum))
        elif kind == "double":
            enc.write_double(float(datum))
        elif kind == "bytes":
            enc.write_bytes(bytes(datum))
        elif kind == "string":
            enc.write_string(str(datum))
        elif kind == "record":
            values = schema._record_values(datum)
            for (__, field_schema), value in zip(schema.fields, values):
                self._write(field_schema, value, enc)
        elif kind == "array":
            assert schema.items is not None
            items = list(datum)
            if items:
                enc.write_long(len(items))
                for item in items:
                    self._write(schema.items, item, enc)
            enc.write_long(0)
        else:  # pragma: no cover - schema kinds are validated at construction
            raise SchemaError(f"cannot encode kind {kind!r}")


class ReferenceDatumReader:
    """Reads data written by :class:`ReferenceDatumWriter`, value by value."""

    def __init__(self, schema: Schema):
        _refuse_zero_width_items(schema)
        self.schema = schema

    def read(self, decoder: ReferenceDecoder) -> Any:
        return self._read(self.schema, decoder)

    def _read(self, schema: Schema, dec: ReferenceDecoder) -> Any:
        if schema.nullable:
            branch = dec.read_long()
            if branch == 0:
                return None
            if branch != 1:
                raise SchemaError(f"invalid union branch: {branch}")
        kind = schema.kind
        if kind == "null":
            return None
        if kind == "boolean":
            return dec.read_boolean()
        if kind in ("int", "long"):
            return dec.read_long()
        if kind == "float":
            return dec.read_float()
        if kind == "double":
            return dec.read_double()
        if kind == "bytes":
            return dec.read_bytes()
        if kind == "string":
            return dec.read_string()
        if kind == "record":
            return tuple(
                self._read(field_schema, dec) for __, field_schema in schema.fields
            )
        if kind == "array":
            assert schema.items is not None
            out: List[Any] = []
            while True:
                count = dec.read_long()
                if count == 0:
                    break
                if count < 0:
                    # Avro allows negative counts followed by a byte size.
                    count = -count
                    dec.read_long()
                left = len(dec._data) - dec.pos
                if count > left:
                    raise SchemaError(f"array block of {count} items in {left} bytes")
                for __ in range(count):
                    out.append(self._read(schema.items, dec))
            return out
        raise SchemaError(f"cannot decode kind {kind!r}")  # pragma: no cover
