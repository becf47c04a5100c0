"""Star joins over stale statistics: reordering, and builds on held rows.

The sim clock cannot see join work yet (ROADMAP item 2), so each cell
hands its statement to the grid, which times it as ``wall_norm`` and
bands it against the baseline (``WALL_GATE``); the check is that every
plan shows its JOIN ORDER, and a wrong count fails the cell.
"""

from typing import Dict, Tuple

from repro.bench.area import WALL_GATE, BenchArea, GridCellError
from repro.bench.fabric import insert_rows
from repro.vertica import VerticaDatabase

STAR_WIDE_KEYS = ("ka", "kb", "kc")


def star_sizes(fact_rows: int) -> Dict[str, int]:
    """Derived star-schema sizes for one ``fact_rows`` scale.

    The fact is ANALYZEd at 1% of its final size, so its estimate is two
    orders of magnitude stale; the selective dim keeps 5% of fact rows;
    the wide dims are larger than the (stale) intermediate estimate but
    smaller than its observed size, so an estimate-chosen build side
    would be the wrong one — the join builds on the rows it holds.
    """
    return {
        "analyzed_rows": max(fact_rows // 100, 10),
        "wide_rows": max(fact_rows // 100, 10),
        "sel_rows": max(fact_rows // 10, 20),
        "sel_keep": max(fact_rows // 200, 1),
    }


def load_star_tables(session, fact_rows: int,
                     relations: int) -> Dict[str, int]:
    """Create/populate the star bench's fact, wide dims and selective dim.

    Every fact row matches exactly one row in each wide dim (joins there
    never shrink the stream); the selective dim sits *last* in FROM
    order and its pushed-down predicate keeps ``sel_keep`` of
    ``sel_rows`` keys.  Only the fact's statistics are stale.
    """
    sizes = star_sizes(fact_rows)
    session.execute(
        "CREATE TABLE sfact (ka INTEGER, kb INTEGER, kc INTEGER, "
        "kd INTEGER, fv FLOAT) SEGMENTED BY HASH(ka) ALL NODES"
    )
    wide = sizes["wide_rows"]
    for idx in range(relations - 2):
        session.execute(
            f"CREATE TABLE dwide{idx} (w{idx}_id INTEGER, w{idx}_pay INTEGER) "
            f"SEGMENTED BY HASH(w{idx}_id) ALL NODES"
        )
        insert_rows(session, f"dwide{idx}",
                    [(i, i + idx) for i in range(wide)])
    sel = sizes["sel_rows"]
    session.execute(
        "CREATE TABLE dsel (sel_id INTEGER, sel_pay INTEGER) "
        "SEGMENTED BY HASH(sel_id) ALL NODES"
    )
    insert_rows(session, "dsel", [(i, i) for i in range(sel)])
    fact = [(i % wide, i % wide, i % wide, i % sel, float(i % 89))
            for i in range(fact_rows)]
    analyzed = sizes["analyzed_rows"]
    insert_rows(session, "sfact", fact[:analyzed])
    for idx in range(relations - 2):
        session.execute(f"ANALYZE dwide{idx}")
    session.execute("ANALYZE dsel")
    session.execute("ANALYZE sfact")  # deliberately before the bulk load
    insert_rows(session, "sfact", fact[analyzed:])
    return sizes


def star_join_sql(relations: int, sizes: Dict[str, int]) -> Tuple[str, int]:
    """The ``relations``-way star COUNT(*) and its expected value."""
    joins = [
        f"JOIN dwide{idx} ON {STAR_WIDE_KEYS[idx]} = w{idx}_id"
        for idx in range(relations - 2)
    ]
    joins.append("JOIN dsel ON kd = sel_id")
    sql = ("SELECT COUNT(*) FROM sfact " + " ".join(joins)
           + f" WHERE sel_pay < {sizes['sel_keep']}")
    return sql, sizes["expected_rows"]


def run_cell(params, config):
    db = VerticaDatabase(num_nodes=config["num_nodes"])
    session = db.connect()
    fact_rows = params["fact_rows"]
    sizes = load_star_tables(session, fact_rows, params["relations"])
    sizes["expected_rows"] = sum(
        1 for i in range(fact_rows) if i % sizes["sel_rows"] < sizes["sel_keep"]
    )
    sql, expected = star_join_sql(params["relations"], sizes)
    report = session.execute("PROFILE " + sql)
    reordered = any("JOIN ORDER:" in row[0] for row in report.rows)
    rows_out = session.execute(sql).scalar()
    if rows_out != expected:
        raise GridCellError(
            f"star join returned {rows_out} rows, wanted {expected}"
        )
    return {"sim_seconds": None,
            "reordered": reordered,
            "rows_shuffled": report.cost.rows_shuffled,
            "rows_out": rows_out,
            "wall": lambda: session.execute(sql).scalar()}


def checks(cells):
    out = []
    for cell in cells:
        relations = cell["params"]["relations"]
        out += [
            (f"{relations}-way plan shows its JOIN ORDER",
             bool(cell["metrics"]["reordered"])),
        ]
    return out


AREA = BenchArea(
    "join_reorder",
    "Star joins over stale statistics: reordered, built on held rows",
    axes={"relations": (3, 5), "fact_rows": (4_000,)},
    runner=run_cell,
    config={"num_nodes": 4},
    checks=checks,
    gate=WALL_GATE,
)
