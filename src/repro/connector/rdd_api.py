"""The RDD-based connector API.

The paper's implementation is presented through DataFrames and the
External Data Source API, but notes: "Our implementation using RDD (for
Spark ML methods that operate on RDDs) provides a similar functionality"
(§3).  This module is that surface: load a Vertica table straight into an
RDD (including a LabeledPoint convenience for MLlib trainers) and save an
RDD back through the same exactly-once S2V machinery.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.connector.s2v import S2VResult, S2VWriter
from repro.connector.v2s import VerticaRelation
from repro.spark.dataframe import DataFrame
from repro.spark.errors import AnalysisError
from repro.spark.rdd import RDD
from repro.spark.row import StructType


def vertica_to_rdd(
    spark: "SparkSession",  # noqa: F821
    options: Dict[str, Any],
    columns: Optional[Sequence[str]] = None,
) -> RDD:
    """Load a Vertica table/view as an RDD of tuples.

    Same semantics as the DataFrame path: locality-aware hash-range
    partition queries pinned to one epoch, with optional column pruning.
    """
    relation = VerticaRelation(spark, options)
    return relation.build_scan(required_columns=columns)


def vertica_to_labeled_points(
    spark: "SparkSession",  # noqa: F821
    options: Dict[str, Any],
    label_column: str,
    feature_columns: Sequence[str],
) -> RDD:
    """Load training data as an RDD of :class:`LabeledPoint`.

    The label and features are pruned server-side, so only the training
    columns cross the wire — the V2S + MLlib hand-off of Figure 1.
    """
    # MLlib, and numpy with it, loads only when something trains
    from repro.spark.mllib.base import LabeledPoint

    if not feature_columns:
        raise AnalysisError("at least one feature column is required")
    relation = VerticaRelation(spark, options)
    wanted = [label_column] + list(feature_columns)
    for name in wanted:
        relation.schema.field(name)  # validate against the table schema
    scan = relation.build_scan(required_columns=wanted)
    return scan.map(lambda row: LabeledPoint(row[0], list(row[1:])))


def rdd_to_vertica(
    spark: "SparkSession",  # noqa: F821
    rdd: RDD,
    schema: StructType,
    options: Dict[str, Any],
    mode: str = "overwrite",
) -> Optional[S2VResult]:
    """Save an RDD of tuples with the full exactly-once S2V protocol."""
    width = len(schema)
    checked = rdd.map(lambda row: _check_row(row, width))
    dataframe = DataFrame(spark, schema, rdd=checked)
    writer = S2VWriter(spark, mode, options, dataframe)
    return writer.save()


def _check_row(row: Any, width: int) -> tuple:
    out = tuple(row)
    if len(out) != width:
        raise AnalysisError(
            f"RDD row arity {len(out)} does not match schema width {width}"
        )
    return out
