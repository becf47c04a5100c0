"""Join strategies: hash/merge vs the nested-loop floor, co-located or not.

Wall-clock only (the sim clock cannot see join work yet — ROADMAP item 1),
so nothing is banded; the shape checks are ratios within one run.
"""

from repro.bench.area import BenchArea, GridCellError
from repro.bench.fabric import best_of, insert_rows
from repro.vertica import VerticaDatabase


def load_join_tables(session, probe_rows: int, build_rows: int,
                     colocated: bool) -> None:
    """Create and populate the join bench's ``probe``/``build`` pair.

    Every probe key hits exactly one build row.  The co-located variant
    segments both tables on the join key; the other segments ``build`` on
    its payload column, so the same ring places matching rows on
    different nodes and the join must move build rows.
    """
    session.execute(
        "CREATE TABLE probe (k INTEGER, pv FLOAT) "
        "SEGMENTED BY HASH(k) ALL NODES"
    )
    seg = "k2" if colocated else "pay"
    session.execute(
        f"CREATE TABLE build (k2 INTEGER, pay INTEGER) "
        f"SEGMENTED BY HASH({seg}) ALL NODES"
    )
    insert_rows(session, "probe", [(i % build_rows, float(i % 97))
                                   for i in range(probe_rows)])
    insert_rows(session, "build", [(i, i + 7) for i in range(build_rows)])


def run_cell(params, config):
    db = VerticaDatabase(num_nodes=config["num_nodes"])
    session = db.connect()
    load_join_tables(session, params["probe_rows"], params["build_rows"],
                     params["colocated"])
    session.execute("ANALYZE probe")
    session.execute("ANALYZE build")
    session.execute(f"SET JOIN_STRATEGY = '{params['strategy']}'")
    sql = "SELECT COUNT(*) FROM probe JOIN build ON k = k2"
    repeats = 1 if params["strategy"] == "nested-loop" else config["repeats"]
    best, rows_out = best_of(repeats, lambda: session.execute(sql).scalar())
    if rows_out != params["probe_rows"]:
        raise GridCellError(
            f"join returned {rows_out} rows, wanted {params['probe_rows']}"
        )
    profile = session.execute("PROFILE " + sql).profile
    shuffled = sum(op.stats.rows_shuffled for __, op in profile.operators())
    return {"sim_seconds": None,
            "join_seconds": round(best, 4),
            "rows_shuffled": shuffled,
            "rows_out": rows_out}


def checks(cells):
    by = {(c["params"]["strategy"], c["params"]["colocated"]): c["metrics"]
          for c in cells}
    out = [
        (f"hash join >=5x faster than nested loop (colocated={colocated})",
         by["hash", colocated]["join_seconds"] * 5.0
         <= by["nested-loop", colocated]["join_seconds"])
        for colocated in (True, False)
    ]
    for strategy in ("hash", "merge"):
        out += [
            (f"co-located {strategy} join moves 0 cross-node rows",
             by[strategy, True]["rows_shuffled"] == 0),
            (f"non-co-located {strategy} join moves build rows",
             by[strategy, False]["rows_shuffled"] > 0),
        ]
    return out


AREA = BenchArea(
    "join",
    "Join strategies: hash/merge vs nested loop, co-located vs shuffled",
    axes={"strategy": ("nested-loop", "hash", "merge"),
          "colocated": (True, False),
          "probe_rows": (4_000,),
          "build_rows": (200,)},
    runner=run_cell,
    config={"num_nodes": 4, "repeats": 3},
    checks=checks,
)
