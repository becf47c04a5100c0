"""PMML document model.

A :class:`PmmlDocument` pairs a data dictionary (the named input fields)
with exactly one model.  Three model families cover what Spark 1.x could
export to PMML and what the paper's generic evaluator supports — models
whose input is a numeric vector and whose output is a number:

- :class:`RegressionModel` — linear regression, and binary logistic
  regression via the ``logit`` normalization method;
- :class:`ClusteringModel` — k-means (squared-Euclidean nearest centre);
- :class:`SupportVectorMachineModel` — linear SVM classification by the
  sign of the margin.

Every model scores one row (``predict``, a vector) or a block of rows
(``predict_block``, one list per feature).  A block's scores are the row
scores, bit for bit, and a block raises exactly what ``predict`` raises
at its first failing row.
"""

from __future__ import annotations

import math
import operator
from typing import Any, List, Optional, Sequence


class PmmlError(Exception):
    """Raised for malformed PMML documents or evaluation mismatches."""


class DataField:
    """One named input field in the data dictionary."""

    def __init__(self, name: str, dtype: str = "double", optype: str = "continuous"):
        if not name:
            raise PmmlError("data field requires a name")
        self.name = name
        self.dtype = dtype
        self.optype = optype

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataField):
            return NotImplemented
        return (self.name, self.dtype, self.optype) == (
            other.name,
            other.dtype,
            other.optype,
        )

    def __repr__(self) -> str:
        return f"DataField({self.name!r}, {self.dtype!r})"


class _Model:
    """Shared behaviour: every model maps a numeric vector to a number."""

    model_kind = "model"

    def __init__(self, feature_names: Sequence[str], model_name: str = ""):
        if not feature_names:
            raise PmmlError("a model requires at least one feature")
        self.feature_names = list(feature_names)
        self.model_name = model_name or self.model_kind

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    def _check_arity(self, count: int) -> None:
        if count != self.num_features:
            raise PmmlError(
                f"model {self.model_name!r} expects {self.num_features} "
                f"features, got {count}"
            )

    def _check_vector(self, vector: Sequence[float]) -> List[float]:
        self._check_arity(len(vector))
        try:
            return [float(v) for v in vector]
        except (TypeError, ValueError) as exc:
            raise PmmlError(f"non-numeric feature value: {exc}") from exc

    def _check_block(self, columns: Sequence[Sequence[Any]]) -> List[List[float]]:
        """``_check_vector`` over a block of feature columns: the arity
        once, then ``float()`` of every value; on a failure, the error
        ``_check_vector`` raises at the first failing row."""
        self._check_arity(len(columns))
        try:
            return [list(map(float, column)) for column in columns]
        except (TypeError, ValueError, ArithmeticError):
            for row in zip(*columns):
                self._check_vector(row)
            raise

    def predict(self, vector: Sequence[float]) -> float:
        raise NotImplementedError

    def predict_block(self, columns: Sequence[Sequence[Any]]) -> List[float]:
        """``predict`` of every row of a block of feature columns (the
        arity is checked first, so a block of no columns raises too)."""
        self._check_arity(len(columns))
        return [self.predict(row) for row in zip(*columns)]


def _linear_block(
    intercept: float, weights: Sequence[float], columns: List[List[float]]
) -> List[float]:
    """``intercept + sum(w * v for w, v in zip(weights, row))`` per row,
    one feature column at a time.  The running sum starts at 0, as
    ``sum`` does, so a ``-0.0`` first product becomes ``0.0`` here too."""
    totals: List[Any] = [0] * len(columns[0])
    for weight, column in zip(weights, columns):
        totals = list(map(operator.add, totals, map(weight.__mul__, column)))
    return list(map(intercept.__add__, totals))


def _logit(score: float) -> float:
    if score >= 0:
        return 1.0 / (1.0 + math.exp(-score))
    expx = math.exp(score)
    return expx / (1.0 + expx)


class RegressionModel(_Model):
    """PMML ``RegressionModel``.

    ``function_name`` is ``"regression"`` (output = linear score) or
    ``"classification"`` with ``normalization="logit"`` (output = positive
    class probability, as Spark's logistic regression exports).
    """

    model_kind = "RegressionModel"

    def __init__(
        self,
        feature_names: Sequence[str],
        coefficients: Sequence[float],
        intercept: float = 0.0,
        function_name: str = "regression",
        normalization: str = "none",
        model_name: str = "",
    ):
        super().__init__(feature_names, model_name)
        if len(coefficients) != len(feature_names):
            raise PmmlError(
                f"{len(coefficients)} coefficients for "
                f"{len(feature_names)} features"
            )
        if function_name not in ("regression", "classification"):
            raise PmmlError(f"unsupported functionName {function_name!r}")
        if normalization not in ("none", "logit"):
            raise PmmlError(f"unsupported normalizationMethod {normalization!r}")
        self.coefficients = [float(c) for c in coefficients]
        self.intercept = float(intercept)
        self.function_name = function_name
        self.normalization = normalization

    def score(self, vector: Sequence[float]) -> float:
        values = self._check_vector(vector)
        return self.intercept + sum(c * v for c, v in zip(self.coefficients, values))

    def predict(self, vector: Sequence[float]) -> float:
        score = self.score(vector)
        return _logit(score) if self.normalization == "logit" else score

    def predict_block(self, columns: Sequence[Sequence[Any]]) -> List[float]:
        scores = _linear_block(
            self.intercept, self.coefficients, self._check_block(columns)
        )
        return list(map(_logit, scores)) if self.normalization == "logit" else scores


class ClusteringModel(_Model):
    """PMML ``ClusteringModel`` with squared-Euclidean comparison (k-means)."""

    model_kind = "ClusteringModel"

    def __init__(
        self,
        feature_names: Sequence[str],
        centers: Sequence[Sequence[float]],
        model_name: str = "",
    ):
        super().__init__(feature_names, model_name)
        if not centers:
            raise PmmlError("clustering model requires at least one cluster")
        self.centers = [[float(v) for v in center] for center in centers]
        for center in self.centers:
            if len(center) != self.num_features:
                raise PmmlError(
                    f"cluster centre has {len(center)} values for "
                    f"{self.num_features} features"
                )

    @property
    def num_clusters(self) -> int:
        return len(self.centers)

    def predict(self, vector: Sequence[float]) -> float:
        """Index of the nearest cluster centre."""
        values = self._check_vector(vector)
        best_index = 0
        best_distance = math.inf
        for index, center in enumerate(self.centers):
            distance = sum((v - c) ** 2 for v, c in zip(values, center))
            if distance < best_distance:
                best_distance = distance
                best_index = index
        return float(best_index)


class SupportVectorMachineModel(_Model):
    """A linear-kernel PMML ``SupportVectorMachineModel`` (binary)."""

    model_kind = "SupportVectorMachineModel"

    def __init__(
        self,
        feature_names: Sequence[str],
        weights: Sequence[float],
        intercept: float = 0.0,
        model_name: str = "",
    ):
        super().__init__(feature_names, model_name)
        if len(weights) != len(feature_names):
            raise PmmlError(f"{len(weights)} weights for {len(feature_names)} features")
        self.weights = [float(w) for w in weights]
        self.intercept = float(intercept)

    def margin(self, vector: Sequence[float]) -> float:
        values = self._check_vector(vector)
        return self.intercept + sum(w * v for w, v in zip(self.weights, values))

    def predict(self, vector: Sequence[float]) -> float:
        """Class label: 1.0 for non-negative margin, else 0.0."""
        return 1.0 if self.margin(vector) >= 0 else 0.0

    def predict_block(self, columns: Sequence[Sequence[Any]]) -> List[float]:
        margins = _linear_block(
            self.intercept, self.weights, self._check_block(columns)
        )
        return [1.0 if margin >= 0 else 0.0 for margin in margins]


class PmmlDocument:
    """A complete PMML document: data dictionary + one model."""

    def __init__(
        self,
        model: _Model,
        data_fields: Optional[Sequence[DataField]] = None,
        version: str = "4.1",
        description: str = "",
    ):
        self.model = model
        self.data_fields = (
            list(data_fields)
            if data_fields is not None
            else [DataField(name) for name in model.feature_names]
        )
        dictionary_names = {f.name for f in self.data_fields}
        for name in model.feature_names:
            if name not in dictionary_names:
                raise PmmlError(
                    f"model feature {name!r} missing from the data dictionary"
                )
        self.version = version
        self.description = description

    @property
    def model_type(self) -> str:
        return self.model.model_kind

    @property
    def feature_names(self) -> List[str]:
        return list(self.model.feature_names)

    def predict(self, vector: Sequence[float]) -> float:
        return self.model.predict(vector)

    def predict_block(self, columns: Sequence[Sequence[Any]]) -> List[float]:
        return self.model.predict_block(columns)
