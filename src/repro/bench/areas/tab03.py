"""Table 3: dataset D2 (1.46B rows of tweets, the same 140 GB as D1)."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import transfer
from repro.workloads import make_d1, make_d2


def run_cell(params, config):
    make = make_d2 if params["dataset"] == "d2" else make_d1
    dataset = make(real_rows=config["real_rows"][params["dataset"]])
    partitions = config["partitions"][params["direction"]]
    return {"sim_seconds": transfer(params["direction"], dataset, partitions)}


def checks(cells):
    t = keyed(cells)
    return [
        ("V2S loads D2 faster than D1", t["v2s", "d2"] < t["v2s", "d1"]),
        ("S2V saves D2 slower than D1", t["s2v", "d2"] > t["s2v", "d1"]),
    ]


AREA = BenchArea(
    "tab03",
    "Table 3: performance with dataset D2 (V2S @32, S2V @128)",
    axes={"direction": ("v2s", "s2v"), "dataset": ("d2", "d1")},
    runner=run_cell,
    config={"real_rows": {"d1": 2000, "d2": 4000},
            "partitions": {"v2s": 32, "s2v": 128}},
    checks=checks,
    gate=SIM_GATE,
    paper={"direction=v2s,dataset=d2": 378.0, "direction=v2s,dataset=d1": 490.0,
           "direction=s2v,dataset=d2": 386.0, "direction=s2v,dataset=d1": 252.0},
)
