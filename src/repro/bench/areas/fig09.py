"""Figure 9: same cell count, different shape (100x100M vs 1x10000M)."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import transfer
from repro.workloads import make_d1, make_d1_reshaped

SHAPES = {"100colsx100Mrows": make_d1, "1colx10000Mrows": make_d1_reshaped}


def run_cell(params, config):
    dataset = SHAPES[params["shape"]](real_rows=config["real_rows"])
    partitions = config["partitions"][params["direction"]]
    return {"sim_seconds": transfer(params["direction"], dataset, partitions)}


def checks(cells):
    t = keyed(cells)
    wide, tall = SHAPES
    return [
        ("V2S: 1-col variant at least 1.5x slower",
         t["v2s", tall] > 1.5 * t["v2s", wide]),
        ("S2V: 1-col variant at least 1.5x slower",
         t["s2v", tall] > 1.5 * t["s2v", wide]),
    ]


AREA = BenchArea(
    "fig09",
    "Figure 9: varying data dimensionality at a fixed 10,000M-cell volume",
    axes={"direction": ("v2s", "s2v"), "shape": tuple(SHAPES)},
    runner=run_cell,
    config={"real_rows": 2000, "partitions": {"v2s": 32, "s2v": 128}},
    checks=checks,
    gate=SIM_GATE,
    notes=["paper: the 1-column variant is significantly slower — a fixed "
           "per-row overhead dominates when rows are 100x more numerous"],
)
