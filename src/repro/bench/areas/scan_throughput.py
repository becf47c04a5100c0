"""Plan-pipeline scan throughput: full scan, filtered scan, grouped agg.

Wall-clock rows/sec over a 20,000-row table, best of N.  Machine-dependent,
so never banded against the baseline: the only bar is the 20k rows/s
smoke floor — an order of magnitude under the deleted legacy interpreter
(see docs/ENGINE.md) — which the gate enforces as a shape check.
"""

import time

from repro.bench.area import BenchArea, GridCellError
from repro.vertica import VerticaDatabase

QUERIES = {
    "full_scan": "SELECT id, grp, v, name FROM big",
    "filtered_scan": "SELECT id, v FROM big WHERE v > 50.0",
    "grouped_agg": (
        "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM big GROUP BY grp"
    ),
}
FLOOR_ROWS_PER_SEC = 20_000


def load_scan_table(session, rows: int, chunk: int = 2_000) -> None:
    """Create and populate the scan bench's ``big`` table."""
    session.execute(
        "CREATE TABLE big (id INTEGER, grp INTEGER, v FLOAT, "
        "name VARCHAR(20)) SEGMENTED BY HASH(id) ALL NODES"
    )
    for start in range(0, rows, chunk):
        values = ", ".join(
            f"({i}, {i % 37}, {float(i % 101)}, 'n{i % 50}')"
            for i in range(start, min(start + chunk, rows))
        )
        session.execute(f"INSERT INTO big VALUES {values}")


def run_cell(params, config):
    db = VerticaDatabase(num_nodes=config["num_nodes"])
    session = db.connect()
    load_scan_table(session, config["rows"])
    sql = QUERIES[params["workload"]]
    best = float("inf")
    result = None
    for __ in range(config["repeats"]):
        started = time.perf_counter()
        result = session.execute(sql)
        best = min(best, time.perf_counter() - started)
    if result.cost.rows_scanned != config["rows"]:
        raise GridCellError(
            f"scanned {result.cost.rows_scanned} rows, wanted {config['rows']}"
        )
    return {"sim_seconds": None,
            "rows_per_sec": round(config["rows"] / best)}


def checks(cells):
    return [
        (f"{cell['params']['workload']} above the 20k rows/s smoke floor",
         cell["metrics"]["rows_per_sec"] > FLOOR_ROWS_PER_SEC)
        for cell in cells
    ]


AREA = BenchArea(
    "scan_throughput",
    "Plan-pipeline scan throughput vs the legacy interpreter floor",
    axes={"workload": tuple(QUERIES)},
    runner=run_cell,
    config={"rows": 20_000, "num_nodes": 4, "repeats": 3},
    checks=checks,
)
