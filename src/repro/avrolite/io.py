"""Binary encoding and decoding, following the Avro wire format.

Integers use zigzag-then-varint encoding; floats/doubles are IEEE 754
little-endian; bytes and strings are length-prefixed; record fields are
concatenated in schema order; arrays are written as a single block with a
count followed by a zero terminator; nullable values are unions encoded as
a branch index (0 = null, 1 = value).

**The codec is compiled once per schema.**  ``DatumWriter(schema)`` and
``DatumReader(schema)`` turn the schema tree into closures at
construction, so no ``kind`` is inspected per value afterwards:

- one closure per field, with the nullable union branch folded into the
  scalar kinds (``null``, records and arrays share one wrapper) and
  single-byte varints — every value in ``[-64, 64)``, every union branch,
  every string shorter than 64 bytes — written and read inline;
- each run of two or more adjacent ``float``/``double`` record fields of
  the same kind and nullability is packed or unpacked by one
  ``struct.Struct`` call (``'<' + 'xd' * k`` for nullable doubles; the
  ``x`` pad bytes are the union branches, stamped or verified as ``0x02``
  with one strided slice);
- ``write_many``/``read_many`` are the bulk paths the container files and
  the columnar format use; there a whole ``float``/``double`` column
  chunk is one ``struct`` call.

**The fallback rule.**  A fast path may only ever be *skipped*, never
reject or diverge: whatever one ``struct`` call cannot take — a ``None``
inside a run, a numeric string where ``float(datum)`` succeeds, a float
too large for ``'f'``, a long-form union branch (``0x82 0x00``), a short
buffer — falls back to the per-field closures, which accept exactly what
the per-value interpreter accepted and raise exactly what it raised.

**Byte identity is a contract.**  The S2V connector prices a partition by
``len(payload)`` (``data_bytes``, ``effective_weight`` and
``encode_seconds`` in ``S2VWriter._copy_partition``, ``nbytes`` in
``_phase1_staged``), so one changed byte moves sim-seconds.
``tests/reference_avro.py`` keeps the per-value interpreter as the frozen
oracle, ``tests/test_avro_differential.py`` compares the two on random
schemas and data, and ``tests/test_wire_golden.py`` pins the encoded
benchmark datasets by digest.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, List, Sequence, Tuple

from repro.avrolite.schema import Schema, SchemaError

_FLOAT = struct.Struct("<f")
_DOUBLE = struct.Struct("<d")

#: Avro int/long are 64-bit two's complement on the wire
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1
#: bit offsets of a varint's 7-bit groups; an eleventh continuation byte
#: is one too many
_VARINT_SHIFTS = range(0, 77, 7)

#: the union branches as their single-byte zigzag varints
_NULL_BRANCH = 0
_VALUE_BRANCH = 2

#: appends one datum / every datum of a sequence to a buffer
Writer = Callable[[bytearray, Any], None]
BulkWriter = Callable[[bytearray, Sequence[Any]], None]
#: decodes one datum at ``pos`` / ``count`` data from ``pos`` on; both
#: return what they read and the position after it
Reader = Callable[[bytes, int], Tuple[Any, int]]
BulkReader = Callable[[bytes, int, int], Tuple[Sequence[Any], int]]


def zigzag_encode(value: int) -> int:
    # Python's arithmetic right shift makes this work for both signs.
    return (value << 1) ^ (value >> 63)


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _append_varint(buffer: bytearray, value: int) -> None:
    # zigzag then base-128 varint, little-endian groups of 7 bits
    encoded = ((value << 1) ^ (value >> 63)) & _MASK64
    while encoded > 0x7F:
        buffer.append((encoded & 0x7F) | 0x80)
        encoded >>= 7
    buffer.append(encoded)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    accum = 0
    try:
        for shift in _VARINT_SHIFTS:
            byte = data[pos]
            pos += 1
            if byte < 0x80:
                accum |= byte << shift
                return (accum >> 1) ^ -(accum & 1), pos
            accum |= (byte & 0x7F) << shift
    except IndexError:
        raise SchemaError("unexpected end of varint") from None
    raise SchemaError("varint too long")


class BinaryEncoder:
    """Appends Avro-encoded primitives to an internal buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def write_raw(self, data: bytes) -> None:
        self._buffer.extend(data)

    def write_long(self, value: int) -> None:
        _append_varint(self._buffer, value)

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


class BinaryDecoder:
    """Reads Avro-encoded primitives from a bytes buffer."""

    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos

    @property
    def pos(self) -> int:
        return self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    def read_raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise SchemaError("unexpected end of Avro data")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_long(self) -> int:
        value, self._pos = _read_varint(self._data, self._pos)
        return value

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


# ------------------------------------------------------------------- writers
def _is_fixed_width(schema: Schema) -> bool:
    return schema.kind in ("float", "double")


def _field_runs(fields: Sequence[Schema]) -> List[Tuple[int, int]]:
    """``(start, stop)`` spans partitioning a record's fields, in order.

    A span longer than one field is a run of adjacent ``float``/``double``
    fields of one kind and nullability — what one ``struct`` call covers.
    """
    spans: List[Tuple[int, int]] = []
    start = 0
    while start < len(fields):
        first = fields[start]
        stop = start + 1
        if _is_fixed_width(first):
            while (
                stop < len(fields)
                and fields[stop].kind == first.kind
                and fields[stop].nullable == first.nullable
            ):
                stop += 1
        spans.append((start, stop))
        start = stop
    return spans


def _none_error(schema: Schema) -> str:
    return f"None is not valid for non-nullable {schema.kind}"


def _is_zero_width(schema: Schema) -> bool:
    """Whether a datum encodes to no bytes: ``null``, a record of only such."""
    if schema.nullable:
        return False
    if schema.kind == "record":
        return all(_is_zero_width(field) for __, field in schema.fields)
    return schema.kind == "null"


def _array_items(schema: Schema) -> Schema:
    """An array's item schema; writer and reader both refuse zero-width items.

    Such items consume no bytes, so nothing in the payload bounds how many
    a corrupt block count may claim — seven bytes could ask for 2**40, and
    a chain of blocks for quadratically many.  With them refused every item
    is at least one byte and a block can hold no more items than the bytes
    after its count, wherever in a payload the array sits.
    """
    assert schema.items is not None
    if _is_zero_width(schema.items):
        raise SchemaError("array items must encode to at least one byte")
    return schema.items


def _long_writer(schema: Schema) -> Writer:
    kind = schema.kind
    nullable = schema.nullable
    none_error = _none_error(schema)

    def write_long(buffer: bytearray, datum: Any) -> None:
        if datum is None:
            if not nullable:
                raise SchemaError(none_error)
            buffer.append(_NULL_BRANCH)
            return
        if nullable:
            buffer.append(_VALUE_BRANCH)
        value = int(datum)
        if -64 <= value < 64:
            buffer.append((value << 1) ^ (value >> 63))
        elif INT64_MIN <= value <= INT64_MAX:
            _append_varint(buffer, value)
        else:
            # The wire format is 64-bit: an out-of-range value would wrap
            # and decode as a *different* number.  A loud write-time error
            # is symmetric, a corrupted round trip is not.
            raise SchemaError(
                f"value {value} out of 64-bit range for kind {kind!r}"
            )

    return write_long


def _float_writer(schema: Schema) -> Writer:
    nullable = schema.nullable
    none_error = _none_error(schema)
    pack = (_FLOAT if schema.kind == "float" else _DOUBLE).pack

    def write_float(buffer: bytearray, datum: Any) -> None:
        if datum is None:
            if not nullable:
                raise SchemaError(none_error)
            buffer.append(_NULL_BRANCH)
            return
        if nullable:
            buffer.append(_VALUE_BRANCH)
        buffer += pack(float(datum))

    return write_float


def _text_writer(schema: Schema) -> Writer:
    nullable = schema.nullable
    none_error = _none_error(schema)
    is_string = schema.kind == "string"

    def write_text(buffer: bytearray, datum: Any) -> None:
        if datum is None:
            if not nullable:
                raise SchemaError(none_error)
            buffer.append(_NULL_BRANCH)
            return
        if nullable:
            buffer.append(_VALUE_BRANCH)
        raw = str(datum).encode("utf-8") if is_string else bytes(datum)
        size = len(raw)
        if size < 64:
            buffer.append(size << 1)
        else:
            _append_varint(buffer, size)
        buffer += raw

    return write_text


def _boolean_writer(schema: Schema) -> Writer:
    nullable = schema.nullable
    none_error = _none_error(schema)

    def write_boolean(buffer: bytearray, datum: Any) -> None:
        if datum is None:
            if not nullable:
                raise SchemaError(none_error)
            buffer.append(_NULL_BRANCH)
            return
        if nullable:
            buffer.append(_VALUE_BRANCH)
        buffer.append(1 if datum else 0)

    return write_boolean


def _write_nothing(buffer: bytearray, datum: Any) -> None:
    """Kind ``null``: no bytes, and (a quirk kept) any datum is accepted."""


def _record_writer(schema: Schema) -> Writer:
    """Non-null record data; runs of fixed-width fields take one struct call."""
    none_error = _none_error(schema)
    field_schemas = [field_schema for __, field_schema in schema.fields]
    width = len(field_schemas)
    record_values = schema._record_values
    #: (writer, start, stop); stop == 0 marks a single field at ``start``
    segments: List[Tuple[Callable[[bytearray, Any], None], int, int]] = []
    for start, stop in _field_runs(field_schemas):
        field_writer = _compile_writer(field_schemas[start])
        if stop - start > 1:
            run_writer = _packed_writer(
                field_schemas[start], field_writer, stop - start
            )
            segments.append((run_writer, start, stop))
        else:
            segments.append((field_writer, start, 0))

    def write_record(buffer: bytearray, datum: Any) -> None:
        if datum is None:
            raise SchemaError(none_error)
        if not (
            (datum.__class__ is tuple or datum.__class__ is list)
            and len(datum) == width
        ):
            datum = record_values(datum)
        for segment, start, stop in segments:
            if stop:
                segment(buffer, datum[start:stop])
            else:
                segment(buffer, datum[start])

    return write_record


def _array_writer(schema: Schema) -> Writer:
    none_error = _none_error(schema)
    items_schema = _array_items(schema)
    write_items = _bulk_writer(items_schema, _compile_writer(items_schema))

    def write_array(buffer: bytearray, datum: Any) -> None:
        if datum is None:
            raise SchemaError(none_error)
        items = list(datum)
        if items:
            _append_varint(buffer, len(items))
            write_items(buffer, items)
        buffer.append(0)

    return write_array


def _nullable_writer(write: Writer) -> Writer:
    def write_union(buffer: bytearray, datum: Any) -> None:
        if datum is None:
            buffer.append(_NULL_BRANCH)
        else:
            buffer.append(_VALUE_BRANCH)
            write(buffer, datum)

    return write_union


def _compile_writer(schema: Schema) -> Writer:
    """The closure that appends one datum of ``schema`` to a buffer.

    The scalar kinds fold the union branch into their own closure; the
    rest (where one more call is noise) share :func:`_nullable_writer`.
    """
    kind = schema.kind
    if kind in ("int", "long"):
        return _long_writer(schema)
    if _is_fixed_width(schema):
        return _float_writer(schema)
    if kind in ("bytes", "string"):
        return _text_writer(schema)
    if kind == "boolean":
        return _boolean_writer(schema)
    if kind == "null":
        write = _write_nothing
    elif kind == "record":
        write = _record_writer(schema)
    else:  # array: schema kinds are validated at construction
        write = _array_writer(schema)
    return _nullable_writer(write) if schema.nullable else write


def _packed_format(schema: Schema) -> Tuple[str, int]:
    """One value's struct code (``x`` = its union branch) and byte width."""
    code = ("x" if schema.nullable else "") + ("f" if schema.kind == "float" else "d")
    return code, struct.calcsize("<" + code)


def _packed_writer(schema: Schema, write: Writer, count: int = 0) -> BulkWriter:
    """Writes ``count`` (0: any number of) floats/doubles in one struct call.

    ``write`` is the per-value closure of the same schema: what the call
    cannot pack (``None``, a numeric string, a float too large for ``f``)
    is written value by value instead, with identical bytes and errors.
    """
    nullable = schema.nullable
    code, stride = _packed_format(schema)
    fixed = struct.Struct("<" + code * count).pack if count else None

    def write_packed(buffer: bytearray, values: Sequence[Any]) -> None:
        start = len(buffer)
        try:
            if fixed is not None:
                buffer += fixed(*values)
            else:
                buffer += struct.pack("<" + code * len(values), *values)
        except (struct.error, OverflowError):
            for value in values:
                write(buffer, value)
            return
        if nullable:
            buffer[start::stride] = b"\x02" * len(values)

    return write_packed


def _bulk_writer(schema: Schema, write: Writer) -> BulkWriter:
    """The closure that appends every datum of a sequence to a buffer."""
    if _is_fixed_width(schema):
        return _packed_writer(schema, write)

    def write_each(buffer: bytearray, data: Sequence[Any]) -> None:
        for datum in data:
            write(buffer, datum)

    return write_each


class DatumWriter:
    """Writes arbitrary data matching a :class:`Schema`."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._write_one = _compile_writer(schema)
        self._write_all = _bulk_writer(schema, self._write_one)

    def write(self, datum: Any, encoder: BinaryEncoder) -> None:
        self._write_one(encoder._buffer, datum)

    def write_many(self, data: Sequence[Any], encoder: BinaryEncoder) -> None:
        """Write every datum of ``data`` in order (the bulk path)."""
        self._write_all(encoder._buffer, data)


# ------------------------------------------------------------------- readers
def _read_branch(data: bytes, pos: int) -> Tuple[bool, int]:
    """A union branch; returns ``(is null, position after)``.

    The readers test for the single byte 0x02 inline; a null, a long-form
    varint (``0x82 0x00``), an invalid branch and a truncated buffer all
    come here.
    """
    branch, pos = _read_varint(data, pos)
    if branch == 0:
        return True, pos
    if branch != 1:
        raise SchemaError(f"invalid union branch: {branch}")
    return False, pos


def _long_reader(schema: Schema) -> Reader:
    nullable = schema.nullable

    def read_long(data: bytes, pos: int) -> Tuple[Any, int]:
        if nullable:
            if pos < len(data) and data[pos] == _VALUE_BRANCH:
                pos += 1
            else:
                is_null, pos = _read_branch(data, pos)
                if is_null:
                    return None, pos
        if pos < len(data):
            byte = data[pos]
            if byte < 0x80:
                return (byte >> 1) ^ -(byte & 1), pos + 1
        return _read_varint(data, pos)

    return read_long


def _float_reader(schema: Schema) -> Reader:
    nullable = schema.nullable
    packing = _FLOAT if schema.kind == "float" else _DOUBLE
    unpack_from = packing.unpack_from
    size = packing.size

    def read_float(data: bytes, pos: int) -> Tuple[Any, int]:
        if nullable:
            if pos < len(data) and data[pos] == _VALUE_BRANCH:
                pos += 1
            else:
                is_null, pos = _read_branch(data, pos)
                if is_null:
                    return None, pos
        if pos + size > len(data):
            raise SchemaError("unexpected end of Avro data")
        return unpack_from(data, pos)[0], pos + size

    return read_float


def _text_reader(schema: Schema) -> Reader:
    nullable = schema.nullable
    is_string = schema.kind == "string"

    def read_text(data: bytes, pos: int) -> Tuple[Any, int]:
        if nullable:
            if pos < len(data) and data[pos] == _VALUE_BRANCH:
                pos += 1
            else:
                is_null, pos = _read_branch(data, pos)
                if is_null:
                    return None, pos
        byte = data[pos] if pos < len(data) else 0x80
        if byte < 0x80:
            length = (byte >> 1) ^ -(byte & 1)
            pos += 1
        else:
            length, pos = _read_varint(data, pos)
        if length < 0:
            raise SchemaError(f"negative bytes length: {length}")
        end = pos + length
        if end > len(data):
            raise SchemaError("unexpected end of Avro data")
        raw = data[pos:end]
        return (raw.decode("utf-8") if is_string else raw), end

    return read_text


def _boolean_reader(schema: Schema) -> Reader:
    nullable = schema.nullable

    def read_boolean(data: bytes, pos: int) -> Tuple[Any, int]:
        if nullable:
            if pos < len(data) and data[pos] == _VALUE_BRANCH:
                pos += 1
            else:
                is_null, pos = _read_branch(data, pos)
                if is_null:
                    return None, pos
        if pos >= len(data):
            raise SchemaError("unexpected end of Avro data")
        return data[pos] != 0, pos + 1

    return read_boolean


def _read_nothing(data: bytes, pos: int) -> Tuple[Any, int]:
    return None, pos


def _record_reader(schema: Schema) -> Reader:
    field_schemas = [field_schema for __, field_schema in schema.fields]
    #: (reader, count); count == 0 marks a single field
    segments: List[Tuple[Callable[..., Tuple[Any, int]], int]] = []
    for start, stop in _field_runs(field_schemas):
        field_reader = _compile_reader(field_schemas[start])
        if stop - start > 1:
            run_reader = _packed_reader(
                field_schemas[start], field_reader, stop - start
            )
            segments.append((run_reader, stop - start))
        else:
            segments.append((field_reader, 0))

    def read_record(data: bytes, pos: int) -> Tuple[Any, int]:
        out: List[Any] = []
        for segment, count in segments:
            if count:
                values, pos = segment(data, pos, count)
                out += values
            else:
                value, pos = segment(data, pos)
                out.append(value)
        return tuple(out), pos

    return read_record


def _array_reader(schema: Schema) -> Reader:
    """Reads blocks of items until the zero count.

    A block that claims more items than there are bytes left is corrupt
    (:func:`_array_items`: every item is at least one byte) and is refused
    before anything is read, one comparison per block.
    """
    items_schema = _array_items(schema)
    read_items = _bulk_reader(items_schema, _compile_reader(items_schema))

    def read_array(data: bytes, pos: int) -> Tuple[Any, int]:
        out: List[Any] = []
        while True:
            count, pos = _read_varint(data, pos)
            if count == 0:
                break
            if count < 0:
                # Avro allows negative counts followed by a byte size.
                count = -count
                __, pos = _read_varint(data, pos)
            if count > len(data) - pos:
                raise SchemaError(
                    f"array block of {count} items in {len(data) - pos} bytes"
                )
            items, pos = read_items(data, pos, count)
            out += items
        return out, pos

    return read_array


def _nullable_reader(read: Reader) -> Reader:
    def read_union(data: bytes, pos: int) -> Tuple[Any, int]:
        if pos < len(data) and data[pos] == _VALUE_BRANCH:
            return read(data, pos + 1)
        is_null, pos = _read_branch(data, pos)
        if is_null:
            return None, pos
        return read(data, pos)

    return read_union


def _compile_reader(schema: Schema) -> Reader:
    """The closure that decodes one datum of ``schema`` at a position."""
    kind = schema.kind
    if kind in ("int", "long"):
        return _long_reader(schema)
    if _is_fixed_width(schema):
        return _float_reader(schema)
    if kind in ("bytes", "string"):
        return _text_reader(schema)
    if kind == "boolean":
        return _boolean_reader(schema)
    if kind == "null":
        read = _read_nothing
    elif kind == "record":
        read = _record_reader(schema)
    else:  # array: schema kinds are validated at construction
        read = _array_reader(schema)
    return _nullable_reader(read) if schema.nullable else read


def _packed_reader(schema: Schema, read: Reader, count: int = 0) -> BulkReader:
    """Reads floats/doubles with one struct call per ``count`` (0: any) values.

    ``read`` is the per-value closure of the same schema: a chunk the
    call cannot take — too few bytes left, or some union branch that is
    not the single byte 0x02 — is read value by value instead.
    """
    nullable = schema.nullable
    code, stride = _packed_format(schema)
    fixed = struct.Struct("<" + code * count).unpack_from if count else None

    def read_packed(data: bytes, pos: int, n: int) -> Tuple[Sequence[Any], int]:
        end = pos + stride * n
        # The bounds check comes first: ``n`` may be a corrupt file's count.
        if pos <= end <= len(data) and (
            not nullable or data[pos:end:stride] == b"\x02" * n
        ):
            if fixed is not None and n == count:
                return fixed(data, pos), end
            return struct.unpack_from("<" + code * n, data, pos), end
        out: List[Any] = []
        for __ in range(n):
            value, pos = read(data, pos)
            out.append(value)
        return out, pos

    return read_packed


def _bulk_reader(schema: Schema, read: Reader) -> BulkReader:
    """The closure that decodes ``count`` consecutive data of ``schema``."""
    if _is_fixed_width(schema):
        return _packed_reader(schema, read)

    def read_each(data: bytes, pos: int, count: int) -> Tuple[Sequence[Any], int]:
        out: List[Any] = []
        append = out.append
        for __ in range(count):
            value, pos = read(data, pos)
            append(value)
        return out, pos

    return read_each


class DatumReader:
    """Reads data written by :class:`DatumWriter` with the same schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._read_one = _compile_reader(schema)
        self._read_all = _bulk_reader(schema, self._read_one)

    def read(self, decoder: BinaryDecoder) -> Any:
        value, decoder._pos = self._read_one(decoder._data, decoder._pos)
        return value

    def read_many(self, decoder: BinaryDecoder, count: int) -> Sequence[Any]:
        """Read ``count`` consecutive data (the bulk path)."""
        values, decoder._pos = self._read_all(decoder._data, decoder._pos, count)
        return values
