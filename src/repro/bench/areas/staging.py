"""Staged (distributed-FS) transport vs direct JDBC, both directions.

Direct streams every row over JDBC/COPY, bounded by the per-stream caps.
Staging writes columnar files on the simulated HDFS instead: S2V tasks
stage attempt files the driver bulk-loads with one COPY per node; V2S
exports segment-local files that scan tasks read block-locally.  The
headline claim: at 8+ partitions staged beats direct in both directions.
"""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric, transfer
from repro.workloads import make_d1

#: staged must win at and above this partition count
GATE_PARTITIONS = 8


def run_cell(params, config):
    fabric = Fabric(with_hdfs=True)
    dataset = make_d1(config["real_rows"], config["virtual_rows"],
                      config["num_cols"], config["seed"])
    options = {}
    if params["transport"] == "staged":
        options = {"transport": "staging", "staging_root": "/staging",
                   "staging_fs": fabric.hdfs}
    return {"sim_seconds": transfer(params["direction"], dataset,
                                    params["partitions"], fabric, **options)}


def checks(cells):
    times = keyed(cells)
    return [
        (f"{direction} staged beats direct at {partitions} partitions",
         staged < times[direction, "direct", partitions])
        for (direction, transport, partitions), staged in sorted(times.items())
        if transport == "staged" and partitions >= GATE_PARTITIONS
    ]


AREA = BenchArea(
    "staging",
    "Staged (distributed-FS) transport vs direct JDBC, both directions",
    axes={"direction": ("s2v", "v2s"),
          "transport": ("direct", "staged"),
          "partitions": (2, 4, 8, 16)},
    runner=run_cell,
    config={"real_rows": 400, "num_cols": 10, "seed": 7,
            "virtual_rows": 16_000_000},
    checks=checks,
    gate=SIM_GATE,
)
