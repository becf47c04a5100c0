"""A generic JPMML-style model evaluator.

The paper (§3.3) describes "a generic model evaluator for models whose
input is a numeric vector and the output is a number (e.g., logistic
regression, k-means, etc)."  :class:`ModelEvaluator` is that component: it
wraps a parsed :class:`~repro.pmml.document.PmmlDocument`, validates the
argument arity against the model's mining schema, and scores one row
(``evaluate``) or a block of rows given column by column
(``evaluate_block``, what the ``PMMLPredict`` UDx calls once per batch).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.pmml.document import PmmlDocument, PmmlError
from repro.pmml.xmlio import parse_pmml


class ModelEvaluator:
    """Evaluates a PMML model over numeric feature vectors."""

    def __init__(self, document: PmmlDocument):
        self.document = document

    @classmethod
    def from_xml(cls, text: str) -> "ModelEvaluator":
        return cls(parse_pmml(text))

    @property
    def feature_names(self) -> List[str]:
        return self.document.feature_names

    @property
    def model_type(self) -> str:
        return self.document.model_type

    def evaluate(self, vector: Sequence[float]) -> float:
        """Score one positional numeric vector."""
        return self.document.predict(vector)

    def evaluate_named(self, values: Dict[str, float]) -> float:
        """Score a row given as a name→value mapping."""
        try:
            vector = [values[name] for name in self.feature_names]
        except KeyError as exc:
            raise PmmlError(f"input row missing feature {exc}") from None
        return self.document.predict(vector)

    def evaluate_block(self, columns: Sequence[Sequence[Any]]) -> List[float]:
        """Score a block given as one list per feature: ``evaluate`` of
        every row, bit for bit, and on a failure the error ``evaluate``
        raises at the first failing row.  Regression and SVM models score
        column-wise; k-means loops over the rows."""
        return self.document.predict_block(columns)
