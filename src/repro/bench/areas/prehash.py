"""Ablation: the paper's §5 future work — pre-hashed S2V partitioning."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric
from repro.workloads import make_d1


def run_cell(params, config):
    fabric = Fabric()
    partitions = config["partitions"]
    elapsed = fabric.save(
        "vertica", make_d1(real_rows=config["real_rows"]), "dest", partitions,
        numpartitions=partitions,
        prehash_partitioning=params["mode"] == "prehash")
    return {"sim_seconds": elapsed,
            "internal_gb": round(fabric.vertica.internal_bytes() / 1e9, 3)}


def checks(cells):
    t, internal = keyed(cells), keyed(cells, "internal_gb")
    return [
        ("prehash eliminates intra-Vertica traffic",
         internal["prehash"] == 0.0 and internal["default"] > 0.0),
        # At these sizes the benefit is the freed internal network, not
        # end-to-end time (small-sample bucket skew costs a few percent).
        ("prehash within 15% of default end-to-end",
         t["prehash"] <= t["default"] * 1.15),
    ]


AREA = BenchArea(
    "prehash",
    "Ablation: S2V with and without pre-hashed partitioning",
    axes={"mode": ("default", "prehash")},
    runner=run_cell,
    config={"real_rows": 2000, "partitions": 128},
    checks=checks,
    gate=SIM_GATE,
)
