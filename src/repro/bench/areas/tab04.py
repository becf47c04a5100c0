"""Table 4: S2V vs Vertica's native parallel COPY over pre-split files."""

from repro.baselines.native_copy import parallel_copy, split_csv
from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric, transfer
from repro.workloads import make_d1


def run_cell(params, config):
    method, parts = params["load"].split("_")
    dataset = make_d1(real_rows=config["real_rows"])
    if method == "s2v":
        return {"sim_seconds": transfer("s2v", dataset, int(parts))}
    fabric = Fabric()
    with fabric.vertica.db.connect() as session:
        session.execute(dataset.create_table_sql("bulk"))
    csv = dataset.csv_text()
    return {"sim_seconds": parallel_copy(
        fabric.vertica, "bulk", split_csv(csv, int(parts)),
        scale_factor=dataset.virtual_csv_bytes() / len(csv.encode()),
    )}


def checks(cells):
    t = keyed(cells)
    s2v = t.pop("s2v_128")
    copy_best = min(t.values())
    return [
        ("S2V within 25% of native COPY (paper: ~6% slower)",
         abs(s2v - copy_best) / copy_best < 0.25),
        ("COPY benefits from multiple splits (4 parts > best)",
         t["copy_4"] >= copy_best),
    ]


AREA = BenchArea(
    "tab04",
    "Table 4: save with S2V vs native bulk-load COPY",
    axes={"load": ("s2v_128",) + tuple(
        f"copy_{parts}" for parts in (4, 8, 16, 32, 64, 128))},
    runner=run_cell,
    config={"real_rows": 2000},
    checks=checks,
    gate=SIM_GATE,
    paper={"load=s2v_128": 252.0},
    notes=["paper: COPY's best is 238 s, S2V ~6% slower"],
)
