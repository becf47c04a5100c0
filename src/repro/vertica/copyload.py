"""COPY: Vertica's bulk-load path.

Implements the ``COPY <table> FROM STDIN`` statement for CSV, Avro and
columnar payloads, with per-row rejection accounting: a malformed row does
not fail the load, it is *rejected*; if the count of rejected rows exceeds
``REJECTMAX`` the whole load fails (and the enclosing transaction aborts).
The paper's S2V leans on exactly this machinery — each Spark task streams
its partition as Avro into COPY, and the connector exposes the rejected-row
tolerance to the user (§3.2).

The load is column-major from the decoded file on: the record tuples of a
binary payload are transposed once, each column is coerced as a whole
(``SqlType.coerce_column``), rejected rows leave through a selection
vector, and ``Engine.insert_rows`` receives table-ordered columns — no
per-row dict, and no value coerced twice, between an Avro block and the
WOS.  Rejection semantics are those of the row-at-a-time loader it
replaced (``tests/reference_copy.py`` keeps that one as the oracle).

:class:`VerticaCopyStream` mirrors the Java API of the same name: a
programmatic handle for streaming chunks into one COPY statement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.avrolite import SchemaError, decode_rows
from repro.avrolite.schema import Schema
from repro.hdfs import columnar
from repro.vertica.batch import transpose
from repro.vertica.catalog import TableDef
from repro.vertica.errors import CopyRejectError, SqlError, TypeMismatchError

#: how many rejected rows are kept as a sample for the user
REJECT_SAMPLE_SIZE = 10
#: the binary COPY formats, as error messages spell them
_FORMAT_NAMES = {"AVRO": "Avro", "COLUMNAR": "columnar"}


class RejectedRow:
    """One rejected input row and the reason it was rejected."""

    __slots__ = ("line", "reason")

    def __init__(self, line: Any, reason: str):
        self.line = line
        self.reason = reason

    def __repr__(self) -> str:
        return f"RejectedRow({self.line!r}, {self.reason!r})"


class CopyResult:
    """Outcome of a COPY: loaded/rejected counts and a rejection sample."""

    def __init__(self, loaded: int, rejected: int, sample: List[RejectedRow]):
        self.loaded = loaded
        self.rejected = rejected
        self.sample = sample

    def __repr__(self) -> str:
        return f"CopyResult(loaded={self.loaded}, rejected={self.rejected})"


def avro_schema_for_table(table: TableDef) -> Schema:
    """The Avro record schema a COPY FORMAT AVRO payload must carry."""
    fields = [
        (column.name.lower(),
         Schema.primitive(column.sql_type.avro_kind, nullable=True))
        for column in table.columns
    ]
    return Schema.record(table.name.lower(), fields)


def parse_csv_rows(
    table: TableDef, text: str, delimiter: str = ","
) -> Tuple[List[Tuple[Any, ...]], List[RejectedRow]]:
    """Parse delimited text into coerced row tuples plus rejections."""
    good: List[Tuple[Any, ...]] = []
    bad: List[RejectedRow] = []
    parsers = [column.sql_type.from_csv for column in table.columns]
    for line in text.splitlines():
        if not line.strip():
            continue
        tokens = line.split(delimiter)
        if len(tokens) != len(parsers):
            bad.append(
                RejectedRow(line, f"expected {len(parsers)} fields, got {len(tokens)}")
            )
            continue
        try:
            good.append(tuple(parse(token) for parse, token in zip(parsers, tokens)))
        except TypeMismatchError as exc:
            bad.append(RejectedRow(line, str(exc)))
    return good, bad


def coerce_decoded_rows(
    table: TableDef, rows: Sequence[Any]
) -> Tuple[List[Sequence[Any]], List[RejectedRow]]:
    """Decoded file records as coerced table columns plus rejections.

    ``rows`` is what one AVRO or COLUMNAR payload decoded to.  Their arity
    is a property of the file's schema — every record of a file has the
    same shape — so it is checked once, on the first: a file of the wrong
    shape rejects every row.  Otherwise the rows are transposed once and
    each column coerced as a whole; a row is rejected for its first
    failing column's reason, and the survivors are gathered by a
    selection vector.
    """
    width = len(table.columns)
    if rows and (not isinstance(rows[0], tuple) or len(rows[0]) != width):
        return transpose([], width), [
            RejectedRow(values, f"expected {width} fields") for values in rows
        ]
    rejects: Dict[int, str] = {}
    columns = [
        column.sql_type.coerce_column(values, rejects)
        for column, values in zip(table.columns, transpose(rows, width))
    ]
    if not rejects:
        return columns, []
    keep = [row for row in range(len(rows)) if row not in rejects]
    return (
        [[values[row] for row in keep] for values in columns],
        [RejectedRow(rows[row], rejects[row]) for row in sorted(rejects)],
    )


def run_copy(
    engine: "repro.vertica.engine.Engine",  # noqa: F821
    statement,
    txn,
    payload: Union[bytes, str, None],
) -> Tuple[Any, CopyResult]:
    """Execute a parsed COPY statement with its out-of-band payload.

    Returns ``(ResultSet, CopyResult)``.  Raises :class:`CopyRejectError`
    if rejections exceed REJECTMAX (default: zero tolerance).
    """
    from repro import telemetry
    from repro.vertica.engine import CostReport, ResultSet

    table = engine.database.catalog.table(statement.table)
    if payload is None:
        raise SqlError("COPY FROM STDIN requires a data payload")
    telemetry.counter("vertica.copy.statements").inc()
    telemetry.counter("vertica.copy.bytes").inc(
        len(payload) if isinstance(payload, (bytes, bytearray, str)) else 0
    )
    columns: List[Sequence[Any]]
    if statement.file_format in _FORMAT_NAMES:
        if not isinstance(payload, (bytes, bytearray)):
            raise SqlError(
                f"COPY FORMAT {statement.file_format} requires a bytes payload"
            )
        try:
            if statement.file_format == "AVRO":
                rows = decode_rows(bytes(payload))
            else:
                # The staging transport's bulk loads concatenate many
                # task-attempt files into one payload: read *every* frame.
                __, rows = columnar.read_columnar_concat(bytes(payload))
        except SchemaError as exc:
            raise SqlError(
                f"COPY: cannot decode {_FORMAT_NAMES[statement.file_format]} "
                f"payload: {exc}"
            ) from exc
        columns, bad = coerce_decoded_rows(table, rows)
    else:
        if isinstance(payload, (bytes, bytearray)):
            payload = bytes(payload).decode("utf-8")
        good, bad = parse_csv_rows(table, payload, statement.delimiter)
        columns = transpose(good, len(table.columns))

    limit = statement.reject_max if statement.reject_max is not None else 0
    telemetry.counter("vertica.copy.rows_rejected").inc(len(bad))
    if len(bad) > limit:
        raise CopyRejectError(len(bad), limit, bad[:REJECT_SAMPLE_SIZE])

    cost = CostReport()
    loaded = engine.insert_rows(table.name, columns, txn, cost)
    telemetry.counter("vertica.copy.rows_loaded").inc(loaded)
    result = ResultSet(
        columns=["ROWS_LOADED"], rows=[(loaded,)], rowcount=loaded, cost=cost
    )
    return result, CopyResult(loaded, len(bad), bad[:REJECT_SAMPLE_SIZE])


class VerticaCopyStream:
    """Programmatic access to COPY, like the VerticaCopyStream Java API.

    Buffers one or more Avro containers (or CSV chunks) and executes a
    single COPY statement over them inside the session's transaction::

        stream = VerticaCopyStream(session, "staging", reject_max=10)
        stream.add_avro(container_bytes)
        result = stream.execute()
    """

    def __init__(
        self,
        session: "repro.vertica.session.Session",  # noqa: F821
        table: str,
        reject_max: Optional[int] = None,
        file_format: str = "AVRO",
    ):
        if file_format not in ("AVRO", "CSV"):
            raise SqlError(f"unsupported copy stream format {file_format!r}")
        self.session = session
        self.table = table
        self.reject_max = reject_max
        self.file_format = file_format
        self._avro_chunks: List[bytes] = []
        self._csv_chunks: List[str] = []
        self.result: Optional[CopyResult] = None

    def add_avro(self, payload: bytes) -> None:
        if self.file_format != "AVRO":
            raise SqlError("this stream is not in AVRO format")
        self._avro_chunks.append(bytes(payload))

    def add_csv(self, text: str) -> None:
        if self.file_format != "CSV":
            raise SqlError("this stream is not in CSV format")
        self._csv_chunks.append(text)

    def execute(self) -> CopyResult:
        """Run the buffered COPY; returns the cumulative result."""
        reject_clause = (
            f" REJECTMAX {self.reject_max}" if self.reject_max is not None else ""
        )
        sql = (
            f"COPY {self.table} FROM STDIN FORMAT {self.file_format}"
            f"{reject_clause} DIRECT"
        )
        total_loaded = 0
        total_rejected = 0
        sample: List[RejectedRow] = []
        chunks: Sequence[Union[bytes, str]]
        if self.file_format == "AVRO":
            chunks = self._avro_chunks
        else:
            chunks = self._csv_chunks
        if not chunks:
            raise SqlError("copy stream has no buffered data")
        for chunk in chunks:
            self.session.execute(sql, copy_data=chunk)
            copy_result = self.session.last_copy_result
            assert copy_result is not None
            total_loaded += copy_result.loaded
            total_rejected += copy_result.rejected
            sample.extend(copy_result.sample)
        self._avro_chunks = []
        self._csv_chunks = []
        self.result = CopyResult(
            total_loaded, total_rejected, sample[:REJECT_SAMPLE_SIZE]
        )
        return self.result
