"""Ablation: single-stage S2V vs the §5 two-stage landing-zone design."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric
from repro.connector.twostage import save_two_stage
from repro.workloads import make_d1


def run_cell(params, config):
    dataset = make_d1(real_rows=config["real_rows"])
    partitions = config["partitions"]
    if params["approach"] == "single":
        return {"sim_seconds": Fabric().s2v_save(dataset, "dest", partitions)}
    fabric = Fabric(with_hdfs=True)
    df = fabric.dataframe_of(dataset, partitions)
    save_two_stage(
        fabric.spark, fabric.hdfs, df,
        {"db": fabric.vertica, "table": "dest", "numpartitions": partitions,
         "scale_factor": dataset.scale},
    )
    return {"sim_seconds": fabric.env.now}


def checks(cells):
    t = keyed(cells)
    return [
        ("two-stage is slower (the extra full copy costs time)",
         t["two_stage"] > t["single"]),
        ("two-stage is not catastrophically slower (< 6x)",
         t["two_stage"] < 6 * t["single"]),
    ]


AREA = BenchArea(
    "twostage",
    "Ablation: S2V single-stage vs two-stage via a landing zone",
    axes={"approach": ("single", "two_stage")},
    runner=run_cell,
    config={"real_rows": 2000, "partitions": 128},
    checks=checks,
    gate=SIM_GATE,
    notes=["paper §5: the two-stage design requires an intermediate write of "
           "a full copy of the data and a third system, but decouples the "
           "two ends"],
)
