"""Cost models: how statements translate into simulated time.

The database substrate executes statements instantaneously and reports
*what it touched* (rows scanned/produced/written per node, bytes
produced).  A :class:`VerticaCostModel` translates those counts into
CPU-seconds and network bytes, which the JDBC bridge turns into core
occupancy and fair-share network flows.  ``price``, ``price_copy``,
``encode_seconds`` and ``load_seconds`` are the only places a count meets
a knob; latencies, rate caps and NIC names apply as-is where they are used.

``NULL_COST_MODEL`` (every parameter zero) is used by unit tests: the
protocol code runs identically but the clock never moves.
``PAPER_COST_MODEL`` is calibrated against the paper's testbed (§4.1):
1 GbE NICs (~125 MB/s), a per-query producer pipeline that sustains
~40 MB/s on its own (Table 2's 38 MB/s steady state for one connection
per node), textual JDBC wire encoding, and per-row CPU overheads that
reproduce the Figure 9 dimensionality effect.
"""

from __future__ import annotations

import functools
import math
from typing import (
    TYPE_CHECKING, Any, Callable, List, NamedTuple, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    from repro.vertica.engine import CostReport


class Charge(NamedTuple):
    """The simulated resources one statement costs, before scheduling."""

    #: (node, CPU seconds): scan on each node, then aggregate on each node
    cpu: List[Tuple[str, float]]
    #: (node, CPU seconds, bytes): a query's marshal CPU and bytes shipped to
    #: the contacted node, or a COPY's parse CPU and bytes shipped from it
    nodes: List[Tuple[str, float, float]]
    client_bytes: float


#: values from which one C-level pass over a row's types beats the
#: per-value comprehension (CPython 3.11: even up to 6 values, 12 % cheaper
#: at 21); a narrower row pays more for its two iterators than it saves,
#: and a row holding a string pays for both ways
WIDE_ROW = 8


class _Measured(dict):
    """Wire widths by type; NaN for a string or foreign type (measured)."""

    def __missing__(self, kind: type) -> float:
        return math.nan


@functools.lru_cache(maxsize=64, typed=True)
def _fixed_widths(
    bool_bytes: int, float_bytes: int, int_bytes: int
) -> Tuple[Callable[[type], Optional[int]], Callable[[type], float]]:
    """The wire width of each fixed-width type as two lookups by type,
    built once per set of widths in use: the first gives ``None`` for any
    other type, the second NaN (so a row's sum is NaN when it holds a
    string or a foreign type)."""
    fixed = {type(None): 1, bool: bool_bytes, float: float_bytes,
             int: int_bytes}
    return fixed.get, _Measured({**fixed, str: math.nan}).__getitem__


class VerticaCostModel:
    """Tunable knobs mapping statement counts to simulated resources."""

    def __init__(
        self,
        connect_latency: float = 0.0,
        query_latency: float = 0.0,
        ddl_latency: float = 0.0,
        query_plan_cpu: float = 0.0,
        scan_cpu_per_row: float = 0.0,
        agg_cpu_per_row: float = 0.0,
        output_cpu_per_row: float = 0.0,
        output_cpu_per_byte: float = 0.0,
        per_connection_rate_cap: Optional[float] = None,
        load_cpu_per_row: float = 0.0,
        load_cpu_per_byte: float = 0.0,
        columnar_load_cpu_factor: float = 1.0,
        encode_cpu_per_row: float = 0.0,
        encode_cpu_per_byte: float = 0.0,
        columnar_encode_cpu_factor: float = 1.0,
        copy_rate_cap: Optional[float] = None,
        jdbc_float_bytes: int = 19,
        jdbc_int_bytes: int = 12,
        jdbc_bool_bytes: int = 5,
        internal_nic: str = "internal",
        external_nic: str = "external",
    ):
        self.connect_latency = connect_latency
        self.query_latency = query_latency
        #: CREATE/DROP/ALTER are heavyweight catalog transactions in Vertica
        self.ddl_latency = ddl_latency
        self.query_plan_cpu = query_plan_cpu
        self.scan_cpu_per_row = scan_cpu_per_row
        #: per input row of a GROUP BY/aggregate: group-hash + accumulate
        self.agg_cpu_per_row = agg_cpu_per_row
        self.output_cpu_per_row = output_cpu_per_row
        self.output_cpu_per_byte = output_cpu_per_byte
        #: max throughput of one query's producer pipeline (V2S stream)
        self.per_connection_rate_cap = per_connection_rate_cap
        self.load_cpu_per_row = load_cpu_per_row
        self.load_cpu_per_byte = load_cpu_per_byte
        #: per-row parse discount for COPY FORMAT COLUMNAR: bulk columnar
        #: loads map column chunks straight into the ROS and skip the
        #: per-row Avro/CSV unpack that dominates row-wise COPY CPU
        self.columnar_load_cpu_factor = columnar_load_cpu_factor
        #: Spark-side Avro encode cost (charged on the executor's node)
        self.encode_cpu_per_row = encode_cpu_per_row
        self.encode_cpu_per_byte = encode_cpu_per_byte
        #: per-row discount when encoding columnar staging files: the
        #: writer packs whole column chunks instead of marshaling each
        #: row's fields through the Avro datum path
        self.columnar_encode_cpu_factor = columnar_encode_cpu_factor
        #: max throughput of one COPY ingest stream (S2V alternation cap)
        self.copy_rate_cap = copy_rate_cap
        self.jdbc_float_bytes = jdbc_float_bytes
        self.jdbc_int_bytes = jdbc_int_bytes
        self.jdbc_bool_bytes = jdbc_bool_bytes
        self.internal_nic = internal_nic
        self.external_nic = external_nic

    # -- wire sizes -----------------------------------------------------------
    def jdbc_value_bytes(self, value: Any) -> int:
        """Textual JDBC wire width of one value (plus field delimiter)."""
        if isinstance(value, str):
            return len(value.encode("utf-8")) + 1
        if value is None:
            return 1
        if isinstance(value, bool):
            return self.jdbc_bool_bytes
        if isinstance(value, float):
            return self.jdbc_float_bytes
        if isinstance(value, int):
            return self.jdbc_int_bytes
        return 9

    def jdbc_row_bytes(self, row: Sequence[Any]) -> int:
        """:meth:`jdbc_value_bytes` summed over one result row.

        A wide row's fixed widths are summed in one C-level pass over its
        values' types; a narrow row, or one holding a string (measured) or
        a foreign type, is one type-keyed lookup per value, and only its
        strings and foreign types are asked one by one.
        """
        fixed, or_nan = _fixed_widths(
            self.jdbc_bool_bytes, self.jdbc_float_bytes, self.jdbc_int_bytes)
        if len(row) >= WIDE_ROW:
            total = sum(map(or_nan, map(type, row)))
            if total == total:  # not NaN: every width was fixed
                return total
        value_bytes = self.jdbc_value_bytes
        return sum([fixed(type(v)) or value_bytes(v) for v in row])

    # -- the cost rules every transport shares -----------------------------------
    @staticmethod
    def virtual_bytes(real_bytes: int, header_bytes: int, scale: float) -> float:
        """Virtual volume of one real file or container.

        The header (magic, schema JSON, sync marker) is paid once per real
        file, not once per virtual row: only the data behind it scales, or
        small real partitions would charge phantom header gigabytes.
        """
        return header_bytes + max(0, real_bytes - header_bytes) * scale

    def encode_seconds(self, rows: int, real_bytes: int, header_bytes: int,
                       scale: float, columnar: bool = False) -> float:
        """Sender-side CPU to encode ``rows`` into a ``real_bytes`` payload."""
        factor = self.columnar_encode_cpu_factor if columnar else 1.0
        data_bytes = max(0, real_bytes - header_bytes)
        return (
            scale * rows * self.encode_cpu_per_row * factor
            + data_bytes * scale * self.encode_cpu_per_byte
        )

    def load_seconds(self, virtual_rows: float, virtual_bytes: float,
                     columnar: bool = False) -> float:
        """COPY parse/unpack CPU on the node that loads the rows."""
        factor = self.columnar_load_cpu_factor if columnar else 1.0
        return (
            virtual_rows * self.load_cpu_per_row * factor
            + virtual_bytes * self.load_cpu_per_byte
        )

    # -- a statement's charge -------------------------------------------------------
    def price(self, report: CostReport, rows: Sequence[Sequence[Any]],
              w: float, w_out: float) -> Charge:
        """What a query that touched ``report`` and returned ``rows`` costs;
        ``w`` scales the scan and aggregate, ``w_out`` the output side.  A
        result-cache hit re-scans and re-aggregates nothing, so it is charged
        no CPU for either; its client gets the same bytes, charged as cold.
        """
        cpu: List[Tuple[str, float]] = []
        if not report.cache_hit:
            for counts, knob in ((report.node_rows_scanned, self.scan_cpu_per_row),
                                 (report.node_rows_aggregated, self.agg_cpu_per_row)):
                cpu += [(node, n * w * knob) for node, n in counts.items()]
        # textual JDBC bytes, attributed to nodes by their binary output;
        # a zero output weight (a staged export) zeroes every term they
        # enter, so its rows are not sized
        wire = float(sum(map(self.jdbc_row_bytes, rows))) if w_out else 0.0
        total_binary = sum(report.node_output_bytes.values()) or 1.0
        nodes: List[Tuple[str, float, float]] = []
        for node, binary_bytes in report.node_output_bytes.items():
            share = wire * (binary_bytes / total_binary)
            seconds = (
                report.node_rows_output.get(node, 0) * w_out * self.output_cpu_per_row
                + share * w_out * self.output_cpu_per_byte
            )
            nodes.append((node, seconds, share * w_out))
        return Charge(cpu, nodes, wire * w_out)

    def price_copy(self, report: CostReport, payload_bytes: int, w: float,
                   columnar: bool) -> Charge:
        """What a COPY of ``payload_bytes`` costs: each node that owns
        written rows receives its share of the payload and parses it."""
        payload = payload_bytes * w
        total_rows = report.rows_written or 1
        nodes: List[Tuple[str, float, float]] = []
        for node, rows in report.node_rows_written.items():
            share = payload * (rows / total_rows)
            nodes.append((node, self.load_seconds(rows * w, share, columnar), share))
        return Charge([], nodes, payload)


#: zero-cost model for functional tests — the clock never moves
NULL_COST_MODEL = VerticaCostModel()

#: calibrated against the paper's testbed (see module docstring and
#: EXPERIMENTS.md for the calibration rationale per parameter)
PAPER_COST_MODEL = VerticaCostModel(
    connect_latency=0.8,
    query_latency=0.02,
    ddl_latency=0.35,
    query_plan_cpu=0.03,
    scan_cpu_per_row=0.15e-6,
    agg_cpu_per_row=0.5e-6,  # group-hash + accumulator update per input row
    output_cpu_per_row=6e-6,  # JDBC marshal + per-row hash eval (Fig 9)
    output_cpu_per_byte=0.4e-9,
    per_connection_rate_cap=40e6,  # Table 2: one connection ≈ 38-40 MB/s
    load_cpu_per_row=8e-6,  # COPY parse/unpack per Avro row (Fig 9, Tab 3)
    load_cpu_per_byte=1.2e-9,
    columnar_load_cpu_factor=0.25,  # columnar bulk load skips row unpack
    encode_cpu_per_row=3e-6,  # Spark-side Avro encode per row
    encode_cpu_per_byte=2.0e-9,
    columnar_encode_cpu_factor=0.25,  # column-chunk packing, no row marshal
    copy_rate_cap=9e6,  # single COPY ingest stream
    jdbc_float_bytes=22,
)
