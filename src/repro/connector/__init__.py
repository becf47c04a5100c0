"""The HPE Vertica Connector for Apache Spark — the paper's contribution.

Three components, all initiated from the Spark side (Figure 1):

- **V2S** (:mod:`repro.connector.v2s`) — load Vertica tables (and views /
  unsegmented tables, via synthetic hash ranges) into Spark DataFrames
  with locality-aware hash-range queries, epoch-pinned snapshot
  consistency and project/filter/count pushdown.
- **S2V** (:mod:`repro.connector.s2v`) — save Spark DataFrames to Vertica
  with exactly-once semantics via the 5-phase staging-table protocol
  (Figure 5), Avro encoding and the COPY bulk-load path.
- **MD** (:mod:`repro.connector.md`) — deploy PMML models into Vertica's
  DFS and score them in-database through the ``PMMLPredict`` UDx.

:mod:`repro.connector.cluster` hosts the simulation bridge: a Vertica
database whose sessions run inside the discrete-event simulator, charging
network flows and CPU time according to a calibrated cost model.

The Spark-facing entry point is the registered data source
``com.vertica.spark.datasource.DefaultSource`` (alias ``"vertica"``),
used exactly as in Table 1 of the paper::

    df = spark.read.format("vertica").options(
        db=vc, table="T", numpartitions=32).load()
    df.write.format("vertica").options(db=vc, table="T2").mode("overwrite").save()
"""

from repro.connector.costmodel import NULL_COST_MODEL, PAPER_COST_MODEL, VerticaCostModel
from repro.connector.cluster import SimVerticaCluster
from repro.connector.jdbc import SimVerticaConnection
from repro.connector.options import ConnectorOptions, OptionsError
from repro.connector.v2s import VerticaRelation
from repro.connector.s2v import S2VWriter, S2VResult
from repro.connector.md import (
    PMML_MODELS_TABLE,
    deploy_pmml_model,
    get_pmml,
    install_pmml_udx,
    list_models,
)
from repro.connector.defaultsource import DefaultSource, VERTICA_SOURCE_NAME
from repro.connector.jobs import (
    cleanup_all_orphans,
    cleanup_job,
    find_orphaned_jobs,
    job_status,
    list_jobs,
)
from repro.connector.rdd_api import (
    rdd_to_vertica,
    vertica_to_labeled_points,
    vertica_to_rdd,
)

__all__ = [
    "ConnectorOptions",
    "DefaultSource",
    "NULL_COST_MODEL",
    "OptionsError",
    "PAPER_COST_MODEL",
    "PMML_MODELS_TABLE",
    "S2VResult",
    "S2VWriter",
    "SimVerticaCluster",
    "SimVerticaConnection",
    "VERTICA_SOURCE_NAME",
    "VerticaCostModel",
    "VerticaRelation",
    "cleanup_all_orphans",
    "cleanup_job",
    "deploy_pmml_model",
    "find_orphaned_jobs",
    "get_pmml",
    "install_pmml_udx",
    "job_status",
    "list_jobs",
    "list_models",
    "rdd_to_vertica",
    "vertica_to_labeled_points",
    "vertica_to_rdd",
]
