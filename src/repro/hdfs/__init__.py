"""An HDFS-like block filesystem plus a parquet-like columnar file format.

The paper's experimental setup stores every dataset in HDFS (co-located
with Spark) and compares the connector against Spark's native HDFS
read/write path using parquet files (§4.1, §4.7.2).  This package
provides both pieces, and the simulated machines they run on:

- :mod:`repro.hdfs.filesystem` — a namenode/datanode cluster with fixed
  block size (64 MB by default, like the paper's config), configurable
  replication (default 3×) and block-location metadata, so readers can
  schedule one task per block like Spark does.
- :mod:`repro.hdfs.columnar` — a columnar container ("parquet-like") for
  DataFrame rows: schema-carrying, column-chunked, per-column deflate.
- :mod:`repro.hdfs.simcluster` — the filesystem on simulated datanodes:
  the routes, replication pipeline and per-block row shares every reader
  and writer (Spark's native source, the connector's staged transport)
  charges through.
"""

from repro.hdfs.columnar import read_columnar, read_columnar_concat, write_columnar
from repro.hdfs.filesystem import Block, HdfsCluster, HdfsError
from repro.hdfs.simcluster import SimHdfsCluster

__all__ = [
    "Block",
    "HdfsCluster",
    "HdfsError",
    "SimHdfsCluster",
    "read_columnar",
    "read_columnar_concat",
    "write_columnar",
]
