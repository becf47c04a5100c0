"""Zipf read-mostly serving: what the caching tiers buy in read latency.

The same client mix runs with the result cache off then on.  Writes
advance the epoch and so invalidate every cached answer: the hit rate is
earned against real churn, not a static table.
"""

from repro.bench.area import SIM_GATE, BenchArea, GridCellError, keyed
from repro.bench.concurrent_serve import run_zipf_serve


def run_cell(params, config):
    report = run_zipf_serve(
        clients=config["clients"],
        ops=config["ops"],
        skew=params["skew"],
        read_fraction=config["read_fraction"],
        result_cache=params["result_cache"],
        seed=config["seed"],
    )
    if not report.ok:
        raise GridCellError(
            f"serving invariants failed:\n{report.report.describe()}"
        )
    return {
        "sim_seconds": report.elapsed,
        "read_p50": round(report.read_p50, 4),
        "read_p95": round(report.read_p95, 4),
        "result_hit_rate": round(report.result_hit_rate, 3),
        "plan_hit_rate": round(report.plan_hit_rate, 3),
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
    smoke_axes={"skew": (1.2,), "result_cache": (False, True)},
    runner=run_cell,
    config={"clients": 6, "ops": 60, "read_fraction": 0.95, "seed": 11},
    checks=checks,
    gate=SIM_GATE,
)
