"""A parquet-like columnar file format for DataFrame rows.

Layout: magic, schema JSON (reusing the Avro-like schema language), row
count, then one deflate-compressed column chunk per field.  This is the
format Spark's native HDFS source reads/writes in the Figure 12 baseline
("Spark's native read/write methods for parquet files using DataFrames").
"""

from __future__ import annotations

import zlib
from typing import Any, List, Optional, Sequence, Tuple

from repro.avrolite.io import BinaryDecoder, BinaryEncoder, DatumReader, DatumWriter
from repro.avrolite.schema import Schema, SchemaError

MAGIC = b"PQL1"


def write_columnar(schema: Schema, rows: Sequence[Tuple[Any, ...]]) -> bytes:
    """Encode rows (tuples matching a record schema) into a columnar file."""
    if schema.kind != "record":
        raise SchemaError("columnar files require a record schema")
    header = BinaryEncoder()
    header.write_raw(MAGIC)
    header.write_string(schema.dumps())
    header.write_long(len(rows))
    width = len(schema.fields)
    columns: Sequence[Sequence[Any]]
    if set(map(len, rows)) == {width}:
        columns = list(zip(*rows))
    else:
        # No rows, or rows that are not all schema-wide: index them like
        # the per-row loop did (a short row raises, extra values are
        # ignored) rather than let zip() truncate silently.
        columns = [[row[position] for row in rows] for position in range(width)]
    chunks: List[bytes] = []
    for (name, field_schema), column in zip(schema.fields, columns):
        enc = BinaryEncoder()
        DatumWriter(field_schema).write_many(column, enc)
        compressed = zlib.compress(enc.getvalue(), 6)
        chunk_header = BinaryEncoder()
        chunk_header.write_string(name)
        chunk_header.write_long(len(compressed))
        chunks.append(chunk_header.getvalue() + compressed)
    return header.getvalue() + b"".join(chunks)


def _read_frame(dec: BinaryDecoder) -> Tuple[Schema, List[Tuple[Any, ...]]]:
    if dec.read_raw(4) != MAGIC:
        raise SchemaError("not a columnar file (bad magic)")
    schema = Schema.loads(dec.read_string())
    nrows = dec.read_long()
    columns: List[Sequence[Any]] = []
    for name, field_schema in schema.fields:
        chunk_name = dec.read_string()
        if chunk_name != name:
            raise SchemaError(
                f"column chunk order mismatch: expected {name!r}, got {chunk_name!r}"
            )
        size = dec.read_long()
        payload = zlib.decompress(dec.read_raw(size))
        columns.append(
            DatumReader(field_schema).read_many(BinaryDecoder(payload), nrows)
        )
    rows = list(zip(*columns)) if columns else [()] * max(nrows, 0)
    return schema, rows


def read_columnar(data: bytes) -> Tuple[Schema, List[Tuple[Any, ...]]]:
    """Decode a columnar file back into (schema, rows)."""
    return _read_frame(BinaryDecoder(data))


def read_columnar_concat(data: bytes) -> Tuple[Schema, List[Tuple[Any, ...]]]:
    """Decode back-to-back concatenated columnar frames into one row list.

    Task-attempt files are plain byte strings, so a bulk loader can
    concatenate many of them into one payload; this reads every frame (a
    single :func:`read_columnar` would silently stop after the first) and
    requires all frames to carry the same schema.
    """
    dec = BinaryDecoder(data)
    schema: Optional[Schema] = None
    rows: List[Tuple[Any, ...]] = []
    while not dec.exhausted:
        frame_schema, frame_rows = _read_frame(dec)
        if schema is None:
            schema = frame_schema
        elif frame_schema != schema:
            raise SchemaError(
                "concatenated columnar frames disagree on schema: "
                f"{schema.dumps()} vs {frame_schema.dumps()}"
            )
        rows.extend(frame_rows)
    if schema is None:
        raise SchemaError("empty columnar payload (no frames)")
    return schema, rows
