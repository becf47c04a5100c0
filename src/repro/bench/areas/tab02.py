"""Table 2: per-node resource usage during V2S, 4 vs 32 partitions.

CPU% is producer-pipeline core occupancy; network is the external NIC
outbound rate of one Vertica node, both over the first 300 s.
"""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric
from repro.sim.trace import UsageTrace
from repro.workloads import load_direct, make_d1


def run_cell(params, config):
    dataset = make_d1(real_rows=config["real_rows"])
    fabric = Fabric()
    load_direct(fabric.vertica, dataset, "d1")
    elapsed, __ = fabric.load("vertica", "d1", dataset.scale,
                              numpartitions=params["partitions"])
    node = fabric.vertica.sim_nodes["node0001"]
    nic = node.nics[fabric.vertica.cost_model.external_nic].tx
    net = UsageTrace.from_log(
        "net", [(t, rate / 1e6) for t, rate in nic.rate_log], 0, 300, 5)
    cpu = UsageTrace.from_log(
        "cpu", [(t, 100.0 * used / node.streams.capacity)
                for t, used in node.streams.usage_log], 0, 300, 5)
    return {"sim_seconds": elapsed,
            "net_mbps": round(net.steady_state(), 2),
            "cpu_pct": round(cpu.steady_state(), 2),
            "net_trace": net.sparkline(40, peak=125),
            "cpu_trace": cpu.sparkline(40, peak=100)}


def checks(cells):
    net, cpu = keyed(cells, "net_mbps"), keyed(cells, "cpu_pct")
    return [
        ("4 partitions: network unsaturated near the per-connection cap "
         "(~38 MB/s)", 25.0 <= net[4] <= 45.0),
        ("32 partitions: network saturated (~120 MB/s)",
         105.0 <= net[32] <= 126.0),
        ("CPU rises with parallelism but stays modest (<40%)",
         cpu[4] < cpu[32] < 40.0),
    ]


AREA = BenchArea(
    "tab02",
    "Table 2: Vertica node CPU / outbound network in the first 300 s of V2S",
    axes={"partitions": (4, 32)},
    runner=run_cell,
    config={"real_rows": 2000},
    checks=checks,
    gate=SIM_GATE,
    notes=["paper steady state: 38 MB/s, 5% CPU @4 partitions; "
           "120 MB/s, 20% CPU @32"],
)
