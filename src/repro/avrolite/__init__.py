"""An Avro-like binary serialization format, implemented from scratch.

The paper's S2V path encodes each task's rows in Apache Avro before
streaming them to Vertica's COPY interface (§3.2.2): a binary,
self-describing, delimiter-free format with optional compression.  This
package reproduces the parts of the Avro 1.x specification the connector
needs:

- :mod:`repro.avrolite.schema` — primitive/record/array/nullable schemas
  with JSON round-trips,
- :mod:`repro.avrolite.codec` — null and deflate block codecs,
- :mod:`repro.avrolite.io` — zigzag/varint binary encoding and decoding,
  compiled once per schema into closures,
- :mod:`repro.avrolite.container` — blocked object container files with
  sync markers.
"""

from repro.avrolite.codec import CODECS, CodecError, compress_block, decompress_block
from repro.avrolite.container import (
    ContainerReader,
    ContainerWriter,
    decode_rows,
    encode_rows,
)
from repro.avrolite.io import BinaryDecoder, BinaryEncoder, DatumReader, DatumWriter
from repro.avrolite.schema import Schema, SchemaError

__all__ = [
    "BinaryDecoder",
    "BinaryEncoder",
    "CODECS",
    "CodecError",
    "ContainerReader",
    "ContainerWriter",
    "DatumReader",
    "DatumWriter",
    "Schema",
    "SchemaError",
    "compress_block",
    "decode_rows",
    "decompress_block",
    "encode_rows",
]
