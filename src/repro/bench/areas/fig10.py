"""Figure 10: load — V2S vs the JDBC Default Source, with/without pushdown."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric
from repro.spark.datasource import GreaterThanOrEqual, LessThan
from repro.workloads import load_direct, make_d1_with_int_column


def run_cell(params, config):
    dataset = make_d1_with_int_column(real_rows=config["real_rows"])
    fabric = Fabric()
    load_direct(fabric.vertica, dataset, "d1int")
    # ikey is uniform over 0..99, so [0, 5) selects 5% of the rows
    filters = ([GreaterThanOrEqual("ikey", 0), LessThan("ikey", 5)]
               if params["pushdown"] else [])
    options = ({} if params["source"] == "v2s" else
               {"partitioncolumn": "ikey", "lowerbound": 0, "upperbound": 100})
    elapsed, __ = fabric.load(
        "vertica" if params["source"] == "v2s" else "jdbc", "d1int",
        dataset.scale, filters, numpartitions=config["partitions"], **options)
    return {"sim_seconds": elapsed}


def checks(cells):
    t = keyed(cells)
    ratio = t["jdbc", False] / t["v2s", False]
    return [
        ("without pushdown V2S is 3-6x faster (paper: ~4x)", 3.0 < ratio < 6.0),
        ("pushdown shrinks both by >5x",
         t["v2s", True] < t["v2s", False] / 5
         and t["jdbc", True] < t["jdbc", False] / 5),
        ("with pushdown the gap narrows (JDBC within ~4x of V2S)",
         t["jdbc", True] / t["v2s", True] < ratio),
    ]


AREA = BenchArea(
    "fig10",
    "Figure 10: load, V2S vs JDBC DefaultSource, 5% selectivity pushdown",
    axes={"source": ("v2s", "jdbc"), "pushdown": (False, True)},
    runner=run_cell,
    config={"real_rows": 2000, "partitions": 32},
    checks=checks,
    gate=SIM_GATE,
    notes=["paper: without pushdown V2S is ~4x faster; with 5% selectivity "
           "pushed down the two are similar"],
)
