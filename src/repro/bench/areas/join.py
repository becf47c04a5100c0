"""Join strategies: the hash join vs the nested-loop floor, co-located or not.

The planner picks the algorithm from the condition alone: ``k = k2`` is
an equi-join and hash-joins; ``k = k2 + 0`` has no equi key, so it runs
the nested loop over every pair.  The sim clock cannot see join work yet
(ROADMAP item 2), so each cell hands its statement to the grid, which
times it as ``wall_ms``, and ``grid --pairs`` judges it against the
parent tree; the shape checks are ratios within one run.
"""

from repro.bench.area import BenchArea, GridCellError
from repro.bench.fabric import insert_rows
from repro.vertica import VerticaDatabase

#: the equi-join condition, which hash-joins
HASHED = "k = k2"
#: the same match with no equi key, which nested-loops
NESTED = "k = k2 + 0"


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
    sql = f"SELECT COUNT(*) FROM probe JOIN build ON {params['condition']}"
    rows_out = session.execute(sql).scalar()
    if rows_out != params["probe_rows"]:
        raise GridCellError(
            f"join returned {rows_out} rows, wanted {params['probe_rows']}"
        )
    report = session.execute("PROFILE " + sql)
    operators = [op for __, op in report.profile.operators()]
    return {"sim_seconds": None,
            "rows_shuffled": report.cost.rows_shuffled,
            "candidate_pairs": sum(op.stats.candidate_pairs for op in operators),
            "rows_out": rows_out,
            "wall": lambda: session.execute(sql).scalar()}


def checks(cells):
    by = {(c["params"]["condition"], c["params"]["colocated"]): c["metrics"]
          for c in cells}
    out = []
    for colocated in (True, False):
        hashed = by[HASHED, colocated]
        out += [
            (f"equi-join hash-joins: one candidate per match "
             f"(colocated={colocated})",
             hashed["candidate_pairs"] == hashed["rows_out"]),
            (f"hash join >=5x faster than nested loop (colocated={colocated})",
             hashed["wall_ms"] * 5.0 <= by[NESTED, colocated]["wall_ms"]),
        ]
    return out + [
        ("co-located hash join moves 0 cross-node rows",
         by[HASHED, True]["rows_shuffled"] == 0),
        ("non-co-located hash join moves build rows",
         by[HASHED, False]["rows_shuffled"] > 0),
    ]


AREA = BenchArea(
    "join",
    "Join strategies: the hash join vs nested loop, co-located vs shuffled",
    axes={"condition": (NESTED, HASHED),
          "colocated": (True, False),
          "probe_rows": (4_000,),
          "build_rows": (200,)},
    runner=run_cell,
    config={"num_nodes": 4},
    checks=checks,
    wall=True,
)
