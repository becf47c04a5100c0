"""Plan-pipeline scan throughput: full scan, filtered scan, grouped agg.

Wall-clock rows/sec over a 20,000-row table, best of N.  Machine-dependent,
so never banded against the baseline: the only bar is the 20k rows/s
smoke floor — an order of magnitude under the deleted legacy interpreter
(see docs/ENGINE.md) — which the gate enforces as a shape check.
"""

from repro.bench.area import BenchArea, GridCellError
from repro.bench.fabric import best_of, insert_rows
from repro.vertica import VerticaDatabase

QUERIES = {
    "full_scan": "SELECT id, grp, v, name FROM big",
    "filtered_scan": "SELECT id, v FROM big WHERE v > 50.0",
    "grouped_agg": (
        "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM big GROUP BY grp"
    ),
}
FLOOR_ROWS_PER_SEC = 20_000


def load_scan_table(session, rows: int) -> None:
    """Create and populate the scan bench's ``big`` table."""
    session.execute(
        "CREATE TABLE big (id INTEGER, grp INTEGER, v FLOAT, "
        "name VARCHAR(20)) SEGMENTED BY HASH(id) ALL NODES"
    )
    insert_rows(session, "big", [(i, i % 37, float(i % 101), f"'n{i % 50}'")
                                 for i in range(rows)])


def run_cell(params, config):
    db = VerticaDatabase(num_nodes=config["num_nodes"])
    session = db.connect()
    load_scan_table(session, config["rows"])
    sql = QUERIES[params["workload"]]
    best, result = best_of(config["repeats"], lambda: session.execute(sql))
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
