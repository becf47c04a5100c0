"""Figure 12: V2S/S2V vs Spark's native HDFS read/write (4:8 clusters)."""

from repro.bench.area import SIM_GATE, BenchArea, keyed
from repro.bench.fabric import Fabric, transfer
from repro.hdfs.columnar import write_columnar
from repro.workloads import make_d1

#: the paper's 140 GB at 64 MB per block
PAPER_BLOCKS = 2240


def run_cell(params, config):
    dataset = make_d1(real_rows=config["real_rows"])
    # Size HDFS blocks so the stored file splits into ~2240 blocks like the
    # paper's (the warm file is written with few partitions so per-part
    # file headers stay negligible).
    file_bytes = len(write_columnar(dataset.schema.to_avro(), dataset.rows))
    fabric = Fabric(with_hdfs=True,
                    hdfs_block_size=max(1, -(-file_bytes // 2232)))
    if params["system"] == "vertica":
        direction = "v2s" if params["operation"] == "read" else "s2v"
        return {"sim_seconds": transfer(
            direction, dataset, config["partitions"][direction], fabric)}
    if params["operation"] == "write":
        return {"sim_seconds": fabric.save("hdfs", dataset, "/out", 128)}
    # Write once (unmeasured) to have something to read; drain the
    # background replication flows so they do not contend with the read.
    fabric.save("hdfs", dataset, "/warm", 8)
    fabric.env.run()
    parts = fabric.hdfs.fs.list("/warm/part-")
    stored = sum(fabric.hdfs.fs.file_size(p) for p in parts)
    elapsed, __ = fabric.load("hdfs", "/warm", config["virtual_bytes"] / stored)
    return {"sim_seconds": elapsed,
            "blocks": sum(fabric.hdfs.fs.total_blocks(p) for p in parts)}


def checks(cells):
    t = keyed(cells)
    blocks = keyed(cells, "blocks")["read", "hdfs"]
    return [
        ("HDFS read faster than V2S (paper: ~30% faster)",
         t["read", "hdfs"] < t["read", "vertica"]),
        ("HDFS read not absurdly faster (within 4x)",
         t["read", "hdfs"] > t["read", "vertica"] / 4),
        ("HDFS write within 50% of S2V (paper: about the same)",
         abs(t["write", "hdfs"] - t["write", "vertica"])
         / t["write", "vertica"] < 0.5),
        ("read task count within 25% of the paper's 2240",
         abs(blocks - PAPER_BLOCKS) / PAPER_BLOCKS < 0.25),
    ]


AREA = BenchArea(
    "fig12",
    "Figure 12: read/write Vertica (4:8) vs read/write HDFS (4:8)",
    axes={"operation": ("read", "write"), "system": ("vertica", "hdfs")},
    runner=run_cell,
    config={"real_rows": 2000, "virtual_bytes": 140e9,
            "partitions": {"v2s": 32, "s2v": 128}},
    checks=checks,
    gate=SIM_GATE,
    notes=["paper: HDFS reads ~30% faster, writes about the same; one read "
           "task per HDFS block (metric `blocks`, paper: 2240)"],
)
