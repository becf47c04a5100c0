"""Ablation: S2V's Avro deflate codec vs uncompressed, on compressible D2."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import transfer
from repro.workloads import make_d2


def run_cell(params, config):
    return {"sim_seconds": transfer(
        "s2v", make_d2(real_rows=config["real_rows"]), config["partitions"],
        avro_codec=params["codec"])}


def checks(cells):
    t = keyed(cells)
    return [("deflate is faster on compressible text",
             t["deflate"] < t["null"])]


AREA = BenchArea(
    "avro",
    "Ablation: S2V Avro codec, deflate vs null (dataset D2)",
    axes={"codec": ("deflate", "null")},
    runner=run_cell,
    config={"real_rows": 4000, "partitions": 128},
    checks=checks,
    gate=SIM_GATE,
)
