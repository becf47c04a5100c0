"""Avro-like object container files.

Follows the Avro 1.x container layout: a magic header, a metadata map
(carrying the writer schema JSON and codec name), a 16-byte sync marker,
then a sequence of blocks — each block being ``(row count, compressed
byte size, compressed data, sync marker)``.  The sync marker is derived
deterministically from the schema so files are reproducible byte-for-byte.

``encode_rows``/``decode_rows`` are the convenience entry points the S2V
connector and the COPY parser use.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

from repro.avrolite.codec import compress_block, decompress_block
from repro.avrolite.io import BinaryDecoder, BinaryEncoder, DatumReader, DatumWriter
from repro.avrolite.schema import Schema, SchemaError

MAGIC = b"Obj\x01"
DEFAULT_BLOCK_ROWS = 4096


def _sync_marker(schema: Schema, codec: str) -> bytes:
    # Imported here: hashlib maps OpenSSL's libcrypto (~3.5 MB of RSS), and
    # a process that never writes a container file need not carry it.
    import hashlib

    digest = hashlib.sha256(schema.dumps().encode() + codec.encode()).digest()
    return digest[:16]


class ContainerWriter:
    """Builds a container file in memory, block by block."""

    def __init__(
        self,
        schema: Schema,
        codec: str = "null",
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ):
        if block_rows <= 0:
            raise SchemaError(f"block_rows must be positive: {block_rows}")
        self.schema = schema
        self.codec = codec
        self.block_rows = block_rows
        self._writer = DatumWriter(schema)
        self._sync = _sync_marker(schema, codec)
        self._header = self._build_header()
        self._blocks: List[bytes] = []
        self._pending = BinaryEncoder()
        self._pending_rows = 0
        self.rows_written = 0

    def _build_header(self) -> bytes:
        enc = BinaryEncoder()
        enc.write_raw(MAGIC)
        meta = {
            "avro.schema": self.schema.dumps().encode(),
            "avro.codec": self.codec.encode(),
        }
        enc.write_long(len(meta))
        for key, value in sorted(meta.items()):
            enc.write_string(key)
            enc.write_bytes(value)
        enc.write_long(0)  # end of metadata map
        enc.write_raw(self._sync)
        return enc.getvalue()

    def append(self, datum: Any) -> None:
        self._writer.write(datum, self._pending)
        self._pending_rows += 1
        self.rows_written += 1
        if self._pending_rows >= self.block_rows:
            self._flush_block()

    def extend(self, data: Iterable[Any]) -> None:
        """Append every datum, one bulk write per block it fills."""
        rows = data if isinstance(data, (list, tuple)) else list(data)
        start = 0
        while start < len(rows):
            batch = rows[start : start + self.block_rows - self._pending_rows]
            self._writer.write_many(batch, self._pending)
            self._pending_rows += len(batch)
            self.rows_written += len(batch)
            start += len(batch)
            if self._pending_rows >= self.block_rows:
                self._flush_block()

    def _flush_block(self) -> None:
        if self._pending_rows == 0:
            return
        payload = compress_block(self.codec, self._pending.getvalue())
        enc = BinaryEncoder()
        enc.write_long(self._pending_rows)
        enc.write_long(len(payload))
        enc.write_raw(payload)
        enc.write_raw(self._sync)
        self._blocks.append(enc.getvalue())
        self._pending = BinaryEncoder()
        self._pending_rows = 0

    def getvalue(self) -> bytes:
        self._flush_block()
        return self._header + b"".join(self._blocks)


class ContainerReader:
    """Reads a container file produced by :class:`ContainerWriter`."""

    def __init__(self, data: bytes):
        dec = BinaryDecoder(data)
        if dec.read_raw(4) != MAGIC:
            raise SchemaError("not an Avro container file (bad magic)")
        meta = {}
        while True:
            count = dec.read_long()
            if count == 0:
                break
            if count < 0:
                count = -count
                dec.read_long()
            for __ in range(count):
                key = dec.read_string()
                meta[key] = dec.read_bytes()
        try:
            self.schema = Schema.loads(meta["avro.schema"].decode())
        except KeyError:
            raise SchemaError("container missing avro.schema metadata") from None
        self.codec = meta.get("avro.codec", b"null").decode()
        self._sync = dec.read_raw(16)
        self._dec = dec
        self._reader = DatumReader(self.schema)

    def __iter__(self) -> Iterator[Any]:
        dec = self._dec
        while not dec.exhausted:
            count = dec.read_long()
            size = dec.read_long()
            payload = decompress_block(self.codec, dec.read_raw(size))
            if dec.read_raw(16) != self._sync:
                raise SchemaError("sync marker mismatch (corrupt container)")
            yield from self._reader.read_many(BinaryDecoder(payload), count)

    def read_all(self) -> List[Any]:
        return list(self)


def encode_rows(
    schema: Schema,
    rows: Sequence[Any],
    codec: str = "deflate",
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> bytes:
    """Encode ``rows`` into a complete container file."""
    writer = ContainerWriter(schema, codec=codec, block_rows=block_rows)
    writer.extend(rows)
    return writer.getvalue()


def decode_rows(data: bytes, expected_schema: Optional[Schema] = None) -> List[Any]:
    """Decode every row of a container file, optionally checking its schema."""
    reader = ContainerReader(data)
    if expected_schema is not None and reader.schema != expected_schema:
        raise SchemaError(
            f"container schema {reader.schema.dumps()} does not match "
            f"expected {expected_schema.dumps()}"
        )
    return reader.read_all()
