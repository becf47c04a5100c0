"""Figure 11: save — S2V vs the JDBC Default Source at small sizes."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric
from repro.workloads import make_d1


def run_cell(params, config):
    rows = params["rows"]
    dataset = make_d1(
        real_rows=min(rows, config["real_rows"])).with_virtual_rows(rows)
    if params["method"] == "jdbc":
        source, partitions = "jdbc", 4
    else:
        source, partitions = "vertica", 4 if rows <= 10_000 else 128
    return {"sim_seconds": Fabric().save(source, dataset, "dest", partitions,
                                         numpartitions=partitions)}


def checks(cells):
    t = keyed(cells)
    return [
        ("1 row: JDBC cheaper than S2V (S2V pays exactly-once setup)",
         t["jdbc", 1] < t["s2v", 1]),
        ("1 row: S2V overhead is a few seconds (2..12 s)",
         2.0 < t["s2v", 1] < 12.0),
        ("1K rows: JDBC's advantage is gone (within 1.5x of S2V)",
         t["s2v", 1000] < 1.5 * t["jdbc", 1000]),
        ("10K rows: S2V faster", t["s2v", 10_000] < t["jdbc", 10_000]),
        ("1M rows: S2V faster by >100x",
         t["jdbc", 1_000_000] > 100 * t["s2v", 1_000_000]),
        ("1M rows: JDBC takes hours (>3600 s)", t["jdbc", 1_000_000] > 3600),
    ]


AREA = BenchArea(
    "fig11",
    "Figure 11: save, S2V vs JDBC DefaultSource (D1 subsets)",
    axes={"method": ("s2v", "jdbc"), "rows": (1, 1000, 10_000, 1_000_000)},
    runner=run_cell,
    config={"real_rows": 2000},
    checks=checks,
    gate=SIM_GATE,
    paper={"method=s2v,rows=1": 5.0, "method=jdbc,rows=1": 3.0,
           "method=s2v,rows=1000000": 19.0,
           "method=jdbc,rows=1000000": 10800.0},
    notes=["paper stopped the JDBC 1M-row run after 3 hours (10800 s)"],
)
