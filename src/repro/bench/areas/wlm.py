"""WLM isolation: the same tenant mix in one shared pool vs a PREMIUM pool.

Every tenant runs a V2S / S2V / model-scoring rotation through admission
control.  ``shared`` crams everyone into a deliberately congested GENERAL
pool; ``pools`` moves tenant 0 to a dedicated high-priority PREMIUM pool,
which must lower its p95 — workload management doing its job.
"""

from repro.bench.area import SIM_GATE, BenchArea, GridCellError, keyed
from repro.bench.concurrent_serve import run_serve


def run_cell(params, config):
    report = run_serve(config["tenants"], config["ops"],
                       premium=params["mode"] == "pools",
                       session_pool_size=config["session_pool_size"])
    if not report.ok:
        raise GridCellError(f"serving invariants failed:\n{report.describe()}")
    tenant0 = report.tenant(0)
    return {
        "sim_seconds": round(report.elapsed, 3),
        "tenant0_p50": round(tenant0.p50, 4),
        "tenant0_p95": round(tenant0.p95, 4),
        "completed": sum(s.completed for s in report.tenants),
        "rejections": sum(s.rejections for s in report.tenants),
    }


def checks(cells):
    p95 = keyed(cells, "tenant0_p95")
    return [("PREMIUM pool lowers tenant 0's p95 vs the shared GENERAL pool",
             p95["pools"] < p95["shared"])]


AREA = BenchArea(
    "wlm",
    "WLM isolation: tenant 0 in the shared GENERAL pool vs a PREMIUM pool",
    axes={"mode": ("shared", "pools")},
    runner=run_cell,
    config={"tenants": 4, "ops": 6, "session_pool_size": 4},
    checks=checks,
    gate=SIM_GATE,
)
