"""Figure 7: data scalability, 1M to 1000M rows (log-log linear)."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import transfer
from repro.workloads import make_d1


def run_cell(params, config):
    dataset = make_d1(real_rows=config["real_rows"]).with_virtual_rows(
        params["rows"])
    partitions = config["partitions"][params["direction"]]
    return {"sim_seconds": transfer(params["direction"], dataset, partitions)}


def checks(cells):
    t = keyed(cells)
    m1, m100, m1000 = 1_000_000, 100_000_000, 1_000_000_000
    return [
        ("V2S scales ~linearly at large sizes (x10 rows -> x7..12 time)",
         7.0 < t["v2s", m1000] / t["v2s", m100] < 12.0),
        ("S2V scales ~linearly at large sizes (x10 rows -> x7..12 time)",
         7.0 < t["s2v", m1000] / t["s2v", m100] < 12.0),
        ("S2V slower than V2S at 1M rows (fixed overheads)",
         t["s2v", m1] > t["v2s", m1]),
        ("S2V faster than V2S at 1000M rows (crossover)",
         t["s2v", m1000] < t["v2s", m1000]),
    ]


AREA = BenchArea(
    "fig07",
    "Figure 7: varying the data size (D1), V2S @32 / S2V @128",
    axes={"direction": ("v2s", "s2v"),
          "rows": (1_000_000, 10_000_000, 100_000_000, 1_000_000_000)},
    runner=run_cell,
    config={"real_rows": 2000, "partitions": {"v2s": 32, "s2v": 128}},
    checks=checks,
    gate=SIM_GATE,
    paper={"direction=v2s,rows=100000000": 497.0,
           "direction=s2v,rows=1000000": 19.0,
           "direction=s2v,rows=100000000": 252.0},
)
