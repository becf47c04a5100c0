"""MD: model deployment from Spark to Vertica (§3.3).

Models trained by :mod:`repro.spark.mllib` (or any other PMML producer)
are deployed with :func:`deploy_pmml_model`: the PMML document goes into
Vertica's internal DFS and its metadata (name, type, size, feature count)
into the ``PMML_MODELS`` table.  :func:`install_pmml_udx` registers the
``PMMLPredict`` scalar UDx — a generic evaluator for models whose input
is a numeric vector and whose output is a number — so predictions run
in-database, a block of rows per call::

    SELECT PMMLPredict(sepal_length, sepal_width, petal_length, petal_width
                       USING PARAMETERS model_name='regression')
    FROM IrisTable
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro import telemetry
from repro.pmml import ModelEvaluator, PmmlError, parse_pmml
from repro.vertica import VerticaDatabase
from repro.vertica.errors import CatalogError, SqlError

PMML_MODELS_TABLE = "PMML_MODELS"
_DFS_PREFIX = "pmml_models/"


def _ensure_metadata_table(db: VerticaDatabase) -> None:
    if not db.catalog.has_table(PMML_MODELS_TABLE):
        with db.connect() as session:
            session.execute(
                f"CREATE TABLE IF NOT EXISTS {PMML_MODELS_TABLE} ("
                "model_name VARCHAR(200), model_type VARCHAR(80), "
                "size_bytes INTEGER, num_features INTEGER) UNSEGMENTED ALL NODES"
            )


def deploy_pmml_model(
    db: VerticaDatabase, name: str, pmml_xml: str, overwrite: bool = False
) -> None:
    """Store a PMML document in the DFS and record its metadata.

    The XML is validated by parsing before anything is stored, so a bad
    document never reaches the DFS.
    """
    document = parse_pmml(pmml_xml)
    path = _DFS_PREFIX + name
    if db.dfs.exists(path) and not overwrite:
        raise CatalogError(f"model {name!r} is already deployed")
    _ensure_metadata_table(db)
    with db.connect() as session:
        if overwrite and db.dfs.exists(path):
            session.execute(
                f"DELETE FROM {PMML_MODELS_TABLE} WHERE model_name = '{name}'"
            )
        db.dfs.write(path, pmml_xml.encode("utf-8"), overwrite=overwrite)
        session.execute(
            f"INSERT INTO {PMML_MODELS_TABLE} VALUES ("
            f"'{name}', '{document.model_type}', {len(pmml_xml)}, "
            f"{len(document.feature_names)})"
        )
        telemetry.counter("md.models_deployed").inc()


def get_pmml(db: VerticaDatabase, name: str) -> str:
    """Read a deployed model's PMML XML back from the DFS."""
    return db.dfs.read(_DFS_PREFIX + name).decode("utf-8")


def delete_model(db: VerticaDatabase, name: str) -> None:
    """Remove a deployed model (DFS document + metadata row)."""
    path = _DFS_PREFIX + name
    db.dfs.delete(path)
    with db.connect() as session:
        session.execute(
            f"DELETE FROM {PMML_MODELS_TABLE} WHERE model_name = '{name}'"
        )


def list_models(db: VerticaDatabase) -> List[Dict[str, Any]]:
    """Deployed model metadata, from the ``PMML_MODELS`` table."""
    if not db.catalog.has_table(PMML_MODELS_TABLE):
        return []
    with db.connect() as session:
        result = session.execute(
            f"SELECT model_name, model_type, size_bytes, num_features "
            f"FROM {PMML_MODELS_TABLE} ORDER BY model_name"
        )
        return result.to_dicts()


def install_pmml_udx(db: VerticaDatabase, cache_size: int = 32) -> None:
    """Register the ``PMMLPredict`` scalar UDx on the database.

    Once per block the UDx checks its parameters and reads the named
    model's document from the DFS (GetPMML), so a redeployed model scores
    with its new document and a deleted one fails as an unknown model
    does; evaluators are cached by document, so XML is parsed once.  The
    block is scored column-wise and ``md.predictions`` rises by its length
    once it has been.  If it fails, its rows are scored one by one as a
    row-at-a-time UDx would, counting each row before scoring it, and the
    first row's error is raised.
    """
    cache: Dict[bytes, ModelEvaluator] = {}

    def pmml_predict(
        columns: List[List[Any]], parameters: Dict[str, Any], num_rows: int
    ) -> List[float]:
        model_name = parameters.get("model_name")
        if not model_name:
            raise SqlError("PMMLPredict requires USING PARAMETERS model_name='...'")
        document = db.dfs.read(_DFS_PREFIX + model_name)
        evaluator = cache.get(document)
        if evaluator is None:
            evaluator = ModelEvaluator.from_xml(document.decode("utf-8"))
            if len(cache) >= cache_size:
                cache.pop(next(iter(cache)))
            cache[document] = evaluator
        predictions = telemetry.counter("md.predictions")
        try:
            scores = evaluator.evaluate_block(columns)
        except (PmmlError, ArithmeticError):
            for row in zip(*columns) if columns else [()] * num_rows:
                predictions.inc()
                evaluator.evaluate(list(row))
            raise
        predictions.inc(len(scores))
        return scores

    db.udx.register("PMMLPredict", pmml_predict, replace=True)
