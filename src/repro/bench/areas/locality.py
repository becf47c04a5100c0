"""Ablation: locality-aware hash-ring V2S queries vs single-host ranges.

Quantifies the intra-Vertica shuffle the connector's node-local queries
eliminate: JDBC value ranges hit one host, which gathers from the rest.
"""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric
from repro.workloads import load_direct, make_d1_with_int_column


def run_cell(params, config):
    dataset = make_d1_with_int_column(real_rows=config["real_rows"])
    fabric = Fabric()
    load_direct(fabric.vertica, dataset, "d1int")
    options = ({} if params["method"] == "v2s" else
               {"partitioncolumn": "ikey", "lowerbound": 0, "upperbound": 100})
    elapsed, __ = fabric.load(
        "vertica" if params["method"] == "v2s" else "jdbc", "d1int",
        dataset.scale, numpartitions=config["partitions"], **options)
    return {"sim_seconds": elapsed,
            "internal_gb": round(fabric.vertica.internal_bytes() / 1e9, 3),
            "external_gb": round(fabric.vertica.external_bytes() / 1e9, 3)}


def checks(cells):
    internal, external = keyed(cells, "internal_gb"), keyed(cells, "external_gb")
    return [
        ("V2S induces zero intra-Vertica traffic", internal["v2s"] == 0.0),
        ("JDBC shuffles most of the table internally (>= 50% of data)",
         internal["jdbc"] > 0.5 * external["v2s"]),
    ]


AREA = BenchArea(
    "locality",
    "Ablation: intra-Vertica shuffle, hash-ring V2S vs JDBC value ranges",
    axes={"method": ("v2s", "jdbc")},
    runner=run_cell,
    config={"real_rows": 2000, "partitions": 32},
    checks=checks,
    gate=SIM_GATE,
)
