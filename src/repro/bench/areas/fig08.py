"""Figure 8: cluster scalability at fixed per-node data volume."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric, transfer
from repro.workloads import make_d1

#: Vertica:Spark nodes -> (rows, V2S partitions, S2V partitions); data and
#: parallelism double with the cluster
CLUSTERS = {"2:4": (100_000_000, 16, 64),
            "4:8": (200_000_000, 32, 128),
            "8:16": (400_000_000, 64, 256)}


def run_cell(params, config):
    rows, v2s_parts, s2v_parts = config["clusters"][params["cluster"]]
    vertica_nodes, spark_nodes = map(int, params["cluster"].split(":"))
    dataset = make_d1(real_rows=config["real_rows"]).with_virtual_rows(rows)
    return {"sim_seconds": transfer(
        params["direction"], dataset,
        v2s_parts if params["direction"] == "v2s" else s2v_parts,
        fabric=Fabric(num_vertica=vertica_nodes, num_spark=spark_nodes),
    )}


def checks(cells):
    t = keyed(cells)
    order = list(CLUSTERS)
    return [
        (f"{direction.upper()} degradation step {step} below 15%",
         t[direction, order[step]] < t[direction, order[step - 1]] * 1.15)
        for step in (1, 2) for direction in ("v2s", "s2v")
    ]


AREA = BenchArea(
    "fig08",
    "Figure 8: scaling the cluster 2:4 -> 4:8 -> 8:16, data doubled alongside",
    axes={"direction": ("v2s", "s2v"), "cluster": tuple(CLUSTERS)},
    runner=run_cell,
    config={"real_rows": 2000, "clusters": CLUSTERS},
    checks=checks,
    gate=SIM_GATE,
    notes=["paper: slight (<10%) degradation per doubling"],
)
