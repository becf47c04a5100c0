"""Plan-pipeline scan throughput: full scan, filtered scan, grouped agg.

Each cell loads a 20,000-row table and hands its statement to the grid,
which times it as ``wall_norm``, banded by ``WALL_GATE``.  The checks
are the deterministic half: what each statement scans and returns.
"""

from repro.bench.area import WALL_GATE, BenchArea, keyed
from repro.bench.fabric import insert_rows
from repro.vertica import VerticaDatabase

ROWS = 20_000
QUERIES = {
    "full_scan": "SELECT id, grp, v, name FROM big",
    "filtered_scan": "SELECT id, v FROM big WHERE v > 50.0",
    "grouped_agg": (
        "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM big GROUP BY grp"
    ),
}
#: each statement's answer size over ``ROWS`` rows: ``v`` is ``i % 101``,
#: of which 50 values exceed 50, and ``grp`` is ``i % 37``
ROWS_OUT = {"full_scan": ROWS, "filtered_scan": 9_900, "grouped_agg": 37}


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
    result = session.execute(sql)
    return {"sim_seconds": None,
            "rows_scanned": result.cost.rows_scanned,
            "rows_out": len(result.rows),
            "wall": lambda: session.execute(sql)}


def checks(cells):
    scanned, out = keyed(cells, "rows_scanned"), keyed(cells, "rows_out")
    return ([(f"{w} scans all {ROWS} rows", scanned[w] == ROWS) for w in QUERIES]
            + [(f"{w} returns {n} rows", out[w] == n) for w, n in ROWS_OUT.items()])


AREA = BenchArea(
    "scan_throughput",
    "Plan-pipeline scan throughput: full, filtered and grouped scans",
    axes={"workload": tuple(QUERIES)},
    runner=run_cell,
    config={"rows": ROWS, "num_nodes": 4},
    checks=checks,
    gate=WALL_GATE,
)
