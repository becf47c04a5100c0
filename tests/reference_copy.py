"""A frozen copy of the row-at-a-time COPY loader.

``parse_avro_rows``/``parse_columnar_rows`` and ``Engine.insert_rows`` as
they were before the write path went column-major — one dict per row in
the parser, a second one in the staging loop, every value coerced twice —
ported verbatim (minus telemetry and the statistics hook, which are
entry-point concerns; ``TableDef.row_hash`` came along as a function)
and kept here as the **differential oracle**:
``tests/test_copy_differential.py`` asserts that ``run_copy`` over
``Engine.insert_rows`` loads byte-identical per-node primary and replica
containers, reports identical rejections (rows, reasons, order, the
``REJECTMAX`` edge) and an identical ``CostReport`` — including the key
order of ``node_rows_written``, which the JDBC bridge iterates.

The WOS it stages into is the engine's (as ``reference_interpreter``
reads the engine's storage): a row is staged as a one-row column slice.

Do not "fix" behaviour here; its quirks are the specification.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.avrolite import SchemaError, decode_rows
from repro.hdfs.columnar import read_columnar_concat
from repro.vertica.catalog import TableDef
from repro.vertica.copyload import REJECT_SAMPLE_SIZE, CopyResult, RejectedRow
from repro.vertica.engine import CostReport
from repro.vertica.errors import CopyRejectError, SqlError, TypeMismatchError
from repro.vertica.hashring import vertica_hash
from repro.vertica.txn import Transaction


def parse_avro_rows(
    table: TableDef, payload: bytes
) -> Tuple[List[Dict[str, Any]], List[RejectedRow]]:
    """Decode an Avro container into coerced row dicts plus rejections."""
    good: List[Dict[str, Any]] = []
    bad: List[RejectedRow] = []
    try:
        rows = decode_rows(payload)
    except SchemaError as exc:
        raise SqlError(f"COPY: cannot decode Avro payload: {exc}") from exc
    columns = table.columns
    for values in rows:
        if not isinstance(values, tuple) or len(values) != len(columns):
            bad.append(
                RejectedRow(values, f"expected {len(columns)} fields")
            )
            continue
        row: Dict[str, Any] = {}
        try:
            for column, value in zip(columns, values):
                row[column.name] = column.sql_type.coerce(value)
        except TypeMismatchError as exc:
            bad.append(RejectedRow(values, str(exc)))
            continue
        good.append(row)
    return good, bad


def parse_columnar_rows(
    table: TableDef, payload: bytes
) -> Tuple[List[Dict[str, Any]], List[RejectedRow]]:
    """Decode concatenated columnar frames into coerced row dicts."""
    try:
        __, rows = read_columnar_concat(payload)
    except SchemaError as exc:
        raise SqlError(f"COPY: cannot decode columnar payload: {exc}") from exc
    good: List[Dict[str, Any]] = []
    bad: List[RejectedRow] = []
    columns = table.columns
    for values in rows:
        if len(values) != len(columns):
            bad.append(RejectedRow(values, f"expected {len(columns)} fields"))
            continue
        row: Dict[str, Any] = {}
        try:
            for column, value in zip(columns, values):
                row[column.name] = column.sql_type.coerce(value)
        except TypeMismatchError as exc:
            bad.append(RejectedRow(values, str(exc)))
            continue
        good.append(row)
    return good, bad


def table_row_hash(table: TableDef, row: Dict[str, Any]) -> int:
    """Segmentation hash of one row (``TableDef.row_hash`` as it was)."""
    values = [row[c] for c in table.segmentation_columns]
    return vertica_hash(*values)


def insert_rows(
    database,
    table_name: str,
    rows: List[Dict[str, Any]],
    txn: Transaction,
    cost: Optional[CostReport] = None,
) -> int:
    """Stage coerced rows into the transaction's WOS, routed by segment."""
    db = database
    table = db.catalog.table(table_name)
    txn.lock(table.name, mode="I")
    cost = cost if cost is not None else CostReport()
    column_names = table.column_names()

    def append(buffer, ordered: List[Any], row_hash: int) -> None:
        buffer.extend([[value] for value in ordered], [row_hash])

    for row in rows:
        coerced = {}
        for column_def in table.columns:
            value = row.get(column_def.name)
            coerced[column_def.name] = column_def.sql_type.coerce(value)
        ordered = [coerced[c] for c in column_names]
        if table.unsegmented:
            for node in db.node_names:
                append(txn.wos_for(table.name, node, column_names), ordered, 0)
            cost.wrote(db.node_names[0])
        else:
            row_hash = table_row_hash(table, coerced)
            assert table.ring is not None
            node = table.ring.node_for(row_hash)
            append(txn.wos_for(table.name, node, column_names), ordered, row_hash)
            cost.wrote(node)
            if db.k_safety >= 1:
                buddy = db.buddy_of(node)
                append(
                    txn.replica_wos_for(table.name, buddy, column_names),
                    ordered, row_hash,
                )
    return len(rows)


def run_copy(
    database, statement, txn: Transaction, payload: bytes
) -> Tuple[int, CopyResult, CostReport]:
    """The binary-format half of the old ``run_copy``.

    Returns ``(rows loaded, CopyResult, CostReport)``; raises
    :class:`CopyRejectError` if rejections exceed REJECTMAX.
    """
    table = database.catalog.table(statement.table)
    if statement.file_format == "AVRO":
        good, bad = parse_avro_rows(table, bytes(payload))
    else:
        good, bad = parse_columnar_rows(table, bytes(payload))
    limit = statement.reject_max if statement.reject_max is not None else 0
    if len(bad) > limit:
        raise CopyRejectError(len(bad), limit, bad[:REJECT_SAMPLE_SIZE])
    cost = CostReport()
    loaded = insert_rows(database, table.name, good, txn, cost)
    return loaded, CopyResult(loaded, len(bad), bad[:REJECT_SAMPLE_SIZE]), cost
