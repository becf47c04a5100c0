"""Unit and property tests for the PMML substrate."""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pmml import (
    ClusteringModel,
    DataField,
    ModelEvaluator,
    PmmlDocument,
    PmmlError,
    RegressionModel,
    SupportVectorMachineModel,
    parse_pmml,
    to_xml,
)

FEATURES = ["sepal_length", "sepal_width", "petal_length", "petal_width"]


def make_regression(normalization="none", function_name="regression"):
    return RegressionModel(
        FEATURES,
        [0.5, -1.25, 2.0, 0.0],
        intercept=0.75,
        function_name=function_name,
        normalization=normalization,
        model_name="regression",
    )


class TestRegressionModel:
    def test_linear_prediction(self):
        model = make_regression()
        value = model.predict([1.0, 2.0, 3.0, 4.0])
        assert value == pytest.approx(0.75 + 0.5 - 2.5 + 6.0)

    def test_logit_prediction_is_probability(self):
        model = make_regression(normalization="logit", function_name="classification")
        p = model.predict([1.0, 2.0, 3.0, 4.0])
        assert 0.0 < p < 1.0
        score = model.score([1.0, 2.0, 3.0, 4.0])
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-score)))

    def test_logit_extreme_scores_stable(self):
        model = RegressionModel(["x"], [1000.0], normalization="logit",
                                function_name="classification")
        assert model.predict([1.0]) == pytest.approx(1.0)
        assert model.predict([-1.0]) == pytest.approx(0.0)

    def test_arity_mismatch(self):
        with pytest.raises(PmmlError):
            make_regression().predict([1.0, 2.0])

    def test_coefficient_count_checked(self):
        with pytest.raises(PmmlError):
            RegressionModel(FEATURES, [1.0])

    def test_bad_function_name(self):
        with pytest.raises(PmmlError):
            RegressionModel(["x"], [1.0], function_name="ranking")

    def test_non_numeric_input(self):
        with pytest.raises(PmmlError):
            make_regression().predict(["a", "b", "c", "d"])


class TestClusteringModel:
    def test_nearest_center(self):
        model = ClusteringModel(["x", "y"], [[0.0, 0.0], [10.0, 10.0]])
        assert model.predict([1.0, 1.0]) == 0.0
        assert model.predict([9.0, 9.5]) == 1.0

    def test_center_arity_checked(self):
        with pytest.raises(PmmlError):
            ClusteringModel(["x", "y"], [[1.0]])

    def test_requires_clusters(self):
        with pytest.raises(PmmlError):
            ClusteringModel(["x"], [])


class TestSvmModel:
    def test_sign_classification(self):
        model = SupportVectorMachineModel(["x", "y"], [1.0, -1.0], intercept=0.0)
        assert model.predict([2.0, 1.0]) == 1.0
        assert model.predict([1.0, 2.0]) == 0.0

    def test_margin(self):
        model = SupportVectorMachineModel(["x"], [2.0], intercept=-1.0)
        assert model.margin([3.0]) == pytest.approx(5.0)


class TestDocument:
    def test_default_data_dictionary(self):
        doc = PmmlDocument(make_regression())
        assert [f.name for f in doc.data_fields] == FEATURES

    def test_missing_dictionary_entry_rejected(self):
        with pytest.raises(PmmlError):
            PmmlDocument(make_regression(), data_fields=[DataField("other")])

    def test_model_type(self):
        assert PmmlDocument(make_regression()).model_type == "RegressionModel"


class TestXmlRoundTrip:
    def test_regression_round_trip(self):
        doc = PmmlDocument(make_regression(), description="iris model")
        parsed = parse_pmml(to_xml(doc))
        assert parsed.model_type == "RegressionModel"
        assert parsed.feature_names == FEATURES
        assert parsed.description == "iris model"
        for vector in ([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]):
            assert parsed.predict(vector) == pytest.approx(doc.predict(vector))

    def test_logistic_round_trip(self):
        doc = PmmlDocument(
            make_regression(normalization="logit", function_name="classification")
        )
        parsed = parse_pmml(to_xml(doc))
        assert parsed.model.normalization == "logit"
        assert parsed.predict([1, 1, 1, 1]) == pytest.approx(doc.predict([1, 1, 1, 1]))

    def test_clustering_round_trip(self):
        doc = PmmlDocument(
            ClusteringModel(["x", "y"], [[0.5, -0.5], [3.0, 4.0], [-2.0, 1.0]])
        )
        parsed = parse_pmml(to_xml(doc))
        assert parsed.model_type == "ClusteringModel"
        assert parsed.model.centers == doc.model.centers
        assert parsed.predict([3.1, 3.9]) == 1.0

    def test_svm_round_trip(self):
        doc = PmmlDocument(
            SupportVectorMachineModel(["a", "b"], [0.25, -0.75], intercept=0.1)
        )
        parsed = parse_pmml(to_xml(doc))
        assert parsed.model_type == "SupportVectorMachineModel"
        assert parsed.predict([1.0, 0.0]) == doc.predict([1.0, 0.0])

    def test_parse_garbage(self):
        with pytest.raises(PmmlError):
            parse_pmml("this is not xml <<<")

    def test_parse_wrong_root(self):
        with pytest.raises(PmmlError):
            parse_pmml("<NotPMML/>")

    def test_parse_no_model(self):
        with pytest.raises(PmmlError):
            parse_pmml(
                "<PMML version='4.1'><DataDictionary numberOfFields='0'/></PMML>"
            )

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_regression_round_trip(self, coefficients, intercept):
        names = [f"f{i}" for i in range(len(coefficients))]
        doc = PmmlDocument(RegressionModel(names, coefficients, intercept=intercept))
        parsed = parse_pmml(to_xml(doc))
        vector = [0.5] * len(coefficients)
        assert parsed.predict(vector) == pytest.approx(doc.predict(vector))


class TestEvaluator:
    def test_from_xml_and_batch(self):
        doc = PmmlDocument(make_regression())
        evaluator = ModelEvaluator.from_xml(to_xml(doc))
        assert evaluator.model_type == "RegressionModel"
        rows = [[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]]
        columns = [list(column) for column in zip(*rows)]
        assert evaluator.evaluate_block(columns) == [
            pytest.approx(doc.predict(rows[0])),
            pytest.approx(doc.predict(rows[1])),
        ]

    def test_evaluate_named(self):
        doc = PmmlDocument(make_regression())
        evaluator = ModelEvaluator(doc)
        row = dict(zip(FEATURES, [1.0, 2.0, 3.0, 4.0]))
        assert evaluator.evaluate_named(row) == pytest.approx(
            doc.predict([1.0, 2.0, 3.0, 4.0])
        )

    def test_evaluate_named_missing_feature(self):
        evaluator = ModelEvaluator(PmmlDocument(make_regression()))
        with pytest.raises(PmmlError):
            evaluator.evaluate_named({"sepal_length": 1.0})


# ------------------------------------------------ block vs. row scoring
#: what a scored column may hold: the UDx hands ``evaluate_block`` the
#: engine's values as they are, so NULLs, bools, strings (numeric or not)
#: and ints too big for a float meet ``float()`` there
feature_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.just(10**400),
    st.floats(width=64),
    st.sampled_from([-0.0, 1e200, "1.5", "-0.0", "nan", "inf", "x", ""]),
)
weights = st.one_of(
    st.floats(min_value=-4, max_value=4, width=64),
    st.sampled_from([-0.0, math.inf]),
)


@st.composite
def models(draw):
    names = [f"f{i}" for i in range(draw(st.integers(1, 3)))]
    some = st.lists(weights, min_size=len(names), max_size=len(names))
    intercept = draw(st.one_of(weights, st.just(-0.0)))
    kind = draw(st.sampled_from(["none", "logit", "kmeans", "svm"]))
    if kind == "kmeans":
        return ClusteringModel(names, draw(st.lists(some, min_size=1, max_size=3)))
    if kind == "svm":
        return SupportVectorMachineModel(names, draw(some), intercept=intercept)
    return RegressionModel(names, draw(some), intercept=intercept,
                           normalization=kind)


@st.composite
def scored_blocks(draw):
    """A model and 1–5 rows, usually of its arity, sometimes one column off."""
    model = draw(models())
    arity = max(1, model.num_features + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
    rows = draw(st.integers(1, 5))
    return model, [
        draw(st.lists(feature_values, min_size=rows, max_size=rows))
        for __ in range(arity)
    ]


def bit_outcome(score):
    """``("ok", bits of each value)`` or ``(error class, message)``."""
    try:
        return "ok", [struct.pack("<d", value) for value in score()]
    except Exception as error:  # the row path may raise anything
        return type(error), str(error)


class TestBlockScoring:
    @given(case=scored_blocks())
    # the row path's sum() starts at 0, and 0 + -0.0 is 0.0: a block sum
    # started from its first product would keep -0.0 (== but not bitwise)
    @example(case=(RegressionModel(["f0"], [-1.0], intercept=-0.0), [[0.0]]))
    # column by column, float() meets row 1's None first; the row path
    # fails at row 0's "x"
    @example(case=(make_regression(), [[1, None], ["x", 2], [1, 2], [1, 2]]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_a_block_scores_as_its_rows_do(self, case):
        """``evaluate_block`` returns ``evaluate`` of each row, bit for bit,
        or raises the first failing row's error, class and message."""
        model, columns = case
        evaluator = ModelEvaluator(PmmlDocument(model))
        assert bit_outcome(lambda: evaluator.evaluate_block(columns)) == (
            bit_outcome(lambda: [evaluator.evaluate(list(row))
                                 for row in zip(*columns)])
        )
