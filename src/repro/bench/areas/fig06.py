"""Figure 6: execution time vs number of partitions (the bowl).

4 partitions generate too little work per connection, 256 add overhead
without transfer benefit; paper values exact where its text states them.
"""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import transfer
from repro.workloads import make_d1


def run_cell(params, config):
    dataset = make_d1(real_rows=config["real_rows"])
    return {"sim_seconds": transfer(params["direction"], dataset,
                                    params["partitions"])}


def checks(cells):
    times = keyed(cells)
    v2s = {p: t for (d, p), t in times.items() if d == "v2s"}
    s2v = {p: t for (d, p), t in times.items() if d == "s2v"}
    return [
        ("bowl: V2S @4 partitions is >2x its best",
         v2s[4] > 2 * min(v2s.values())),
        ("bowl: S2V @4 partitions is >2x its best",
         s2v[4] > 2 * min(s2v.values())),
        ("V2S best occurs in the middle ranges (32..256)",
         min(v2s, key=v2s.get) >= 32),
        ("S2V best occurs at high parallelism (>=64)",
         min(s2v, key=s2v.get) >= 64),
        ("S2V best is faster than V2S best",
         min(s2v.values()) < min(v2s.values())),
        ("V2S @32 within 25% of paper's 497 s",
         abs(v2s[32] - 497.0) / 497.0 < 0.25),
    ]


AREA = BenchArea(
    "fig06",
    "Figure 6: varying the number of partitions (D1, 100M rows)",
    axes={"direction": ("v2s", "s2v"),
          "partitions": (4, 8, 16, 32, 64, 128, 256)},
    runner=run_cell,
    config={"real_rows": 2000},
    checks=checks,
    gate=SIM_GATE,
    paper={"direction=v2s,partitions=32": 497.0,
           "direction=v2s,partitions=128": 475.0,
           "direction=s2v,partitions=128": 252.0},
    notes=["other paper points are unlabeled in the figure"],
)
