"""Zipf read-mostly serving: what the caching tiers buy in read latency.

The same client mix runs with the result cache off then on.  Writes
advance the epoch and so invalidate every cached answer: the hit rate is
earned against real churn, not a static table.
"""

import bisect
import itertools
import random
from functools import partial
from typing import Iterator, List

from repro.bench.area import SIM_GATE, BenchArea, GridCellError, keyed
from repro.bench.clients import ClientStats, Op, ServeRun, percentile, run_clients
from repro.bench.fabric import LIGHT_COST_MODEL, Fabric

ZIPF_TABLE = "zipf_src"
ZIPF_GROUPS = 40
ZIPF_ROWS = 600
#: stretches each point read so a cold scan costs ~0.25 s simulated —
#: the gap the result cache is supposed to close on the hot keys
ZIPF_READ_WEIGHT = 200.0


def zipf_cdf(groups: int, skew: float) -> List[float]:
    """Cumulative Zipf(``skew``) distribution over group ranks 0..G-1."""
    weights = [(rank + 1) ** -skew for rank in range(groups)]
    total = sum(weights)
    return list(itertools.accumulate(weight / total for weight in weights))


def _zipf_ops(fabric: Fabric, client: int, ops: int, cdf: List[float],
              read_fraction: float, rng: random.Random,
              row_ids: Iterator[int]) -> Iterator[Op]:
    """One client's ops over one connection: Zipf-ranked point reads,
    occasional epoch-advancing inserts."""
    cluster = fabric.vertica
    node = cluster.node_names[client % len(cluster.node_names)]
    with cluster.connect(node) as conn:
        for __ in range(ops):
            is_read = rng.random() < read_fraction
            grp = bisect.bisect_left(cdf, rng.random())
            if is_read:
                yield "read", partial(
                    conn.execute,
                    f"SELECT COUNT(*), SUM(v) FROM {ZIPF_TABLE} "
                    f"WHERE grp = {grp}",
                    weight=ZIPF_READ_WEIGHT,
                )
            else:
                row_id = next(row_ids)
                yield "write", partial(
                    conn.execute,
                    f"INSERT INTO {ZIPF_TABLE} VALUES "
                    f"({row_id}, {grp}, {float(row_id % 23)})",
                )


def run_zipf_serve(clients: int = 6, ops: int = 60, skew: float = 1.2,
                   read_fraction: float = 0.95, result_cache: bool = True,
                   seed: int = 11) -> ServeRun:
    """One Zipf-skewed read-mostly serving round.

    ``skew`` is the Zipf exponent over :data:`ZIPF_GROUPS` group ranks
    (0 = uniform); ``read_fraction`` is each op's probability of being a
    point read rather than an INSERT.  With ``result_cache`` every
    session runs ``SET RESULT_CACHE = 'on'``, and cached bytes are
    charged into the GENERAL pool's WLM memory ledger.
    """
    fabric = Fabric(num_vertica=3, num_spark=2, cost_model=LIGHT_COST_MODEL,
                    wlm=True)
    db = fabric.vertica.db
    fabric.create_table(
        f"{ZIPF_TABLE} (id INTEGER, grp INTEGER, v FLOAT) "
        f"SEGMENTED BY HASH(id) ALL NODES",
        [(i, i % ZIPF_GROUPS, float((i * 7) % 23)) for i in range(ZIPF_ROWS)],
    )
    with db.connect() as session:
        session.execute(f"ANALYZE {ZIPF_TABLE}")
    db.result_cache_default = result_cache
    cdf = zipf_cdf(ZIPF_GROUPS, skew)
    row_ids = itertools.count(ZIPF_ROWS)
    return run_clients(
        fabric, f"zipf:{'warm' if result_cache else 'cold'}",
        [(ClientStats(c),
          _zipf_ops(fabric, c, ops, cdf, read_fraction,
                    random.Random(seed * 10_007 + c), row_ids))
         for c in range(clients)],
    )


def run_cell(params, config):
    run = run_zipf_serve(**config, **params)
    if not run.ok:
        raise GridCellError(f"serving invariants failed:\n{run.describe()}")
    reads = run.latencies("read")
    return {
        "sim_seconds": run.elapsed,
        "read_p50": round(percentile(reads, 0.50), 4),
        "read_p95": round(percentile(reads, 0.95), 4),
        "result_hit_rate": round(run.hit_rate("result"), 3),
        "plan_hit_rate": round(run.hit_rate("plan"), 3),
    }


def checks(cells):
    p50, hits = keyed(cells, "read_p50"), keyed(cells, "result_hit_rate")
    out = []
    for skew in sorted({s for s, __ in p50 if s >= 1.0}):
        out += [
            (f"warm read p50 >=5x lower than cold at skew={skew:g}",
             p50[skew, True] * 5.0 <= p50[skew, False]),
            (f"warm result-cache hit rate > 0.5 at skew={skew:g}",
             hits[skew, True] > 0.5),
        ]
    return out


AREA = BenchArea(
    "serving",
    "Zipf read-mostly serving: caching tiers' hit rate vs read latency",
    axes={"skew": (0.0, 0.6, 1.2, 1.4), "result_cache": (False, True)},
    runner=run_cell,
    config={"clients": 6, "ops": 60, "read_fraction": 0.95, "seed": 11},
    checks=checks,
    gate=SIM_GATE,
)
