"""Ablation: aggregate pushdown vs driver-side aggregation.

The same ``group_by("ikey").agg(...)`` over D1+int, once compiled into
per-hash-range partial GROUP BY queries inside Vertica and once forced
down the driver-side fallback (collect all raw rows, aggregate in Spark).
The wire carries one partial row per group per range, not the table.
"""

from repro import telemetry
from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric
from repro.workloads import load_direct, make_d1_with_int_column

AGGREGATES = [("*", "count"), ("c000", "sum"), ("c001", "avg"),
              ("c002", "min"), ("c003", "max")]


def run_cell(params, config):
    # A fresh fabric installs a fresh global registry, so the wire-row
    # counters below start at zero for this cell.
    fabric = Fabric()
    dataset = make_d1_with_int_column(real_rows=config["real_rows"])
    load_direct(fabric.vertica, dataset, "d1int")
    pushdown = params["mode"] == "pushdown"
    elapsed, groups = fabric.load(
        "vertica", "d1int", dataset.scale, group_by=(["ikey"], AGGREGATES),
        numpartitions=config["partitions"], agg_pushdown=pushdown,
    )
    wire_rows = telemetry.counter(
        "v2s.agg_pushdown.partial_rows" if pushdown else "v2s.rows_fetched"
    ).value
    return {
        "sim_seconds": elapsed,
        "groups": int(groups),
        "wire_rows": int(wire_rows),
        "external_gb": round(fabric.vertica.external_bytes() / 1e9, 6),
    }


def checks(cells):
    t = keyed(cells)
    groups, wire, gb = (keyed(cells, m)
                        for m in ("groups", "wire_rows", "external_gb"))
    return [
        ("both modes produce the same number of groups",
         groups["pushdown"] == groups["driver"]),
        ("pushdown ships fewer rows over the wire",
         wire["pushdown"] < wire["driver"]),
        ("pushdown moves <1% of the baseline's external bytes",
         gb["pushdown"] < 0.01 * gb["driver"]),
        ("pushdown is >5x faster end-to-end", t["pushdown"] * 5 < t["driver"]),
    ]


AREA = BenchArea(
    "agg",
    "Ablation: group_by().agg(), per-range partial GROUP BY vs driver-side",
    axes={"mode": ("pushdown", "driver")},
    runner=run_cell,
    config={"real_rows": 2000, "partitions": 32},
    checks=checks,
    gate=SIM_GATE,
    notes=["both modes compute identical group rows; pushdown ships partial "
           "aggregates per hash range and merges them driver-side"],
)
