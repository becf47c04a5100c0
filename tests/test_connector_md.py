"""Tests for MD: model deployment and in-database scoring (§3.3)."""

import pytest

from repro import telemetry
from repro.connector import (
    SimVerticaCluster,
    deploy_pmml_model,
    get_pmml,
    install_pmml_udx,
    list_models,
)
from repro.connector.md import delete_model
from repro.pmml import PmmlDocument, PmmlError, RegressionModel, to_xml
from repro.sim import Environment
from repro.spark import SparkSession
from repro.spark.mllib import (
    LabeledPoint,
    train_kmeans,
    train_linear_regression,
    train_logistic_regression,
)
from repro.telemetry import MetricsRegistry
from repro.vertica.errors import CatalogError


@pytest.fixture
def fabric():
    env = Environment()
    vc = SimVerticaCluster(env=env, num_nodes=4)
    spark = SparkSession(env=env, cluster=vc.sim_cluster, num_workers=4)
    return vc, spark


def iris_like_table(vc):
    session = vc.db.connect()
    session.execute(
        "CREATE TABLE iristable (sepal_length FLOAT, sepal_width FLOAT, "
        "petal_length FLOAT, petal_width FLOAT)"
    )
    rows = [
        (5.1, 3.5, 1.4, 0.2),
        (7.0, 3.2, 4.7, 1.4),
        (6.3, 3.3, 6.0, 2.5),
        (4.9, 3.0, 1.4, 0.2),
    ]
    values = ", ".join(f"({a}, {b}, {c}, {d})" for a, b, c, d in rows)
    session.execute(f"INSERT INTO iristable VALUES {values}")
    return session, rows


class TestDeployment:
    def test_deploy_and_get(self, fabric):
        vc, __ = fabric
        model = train_linear_regression(
            [LabeledPoint(2 * x, [float(x)]) for x in range(5)]
        )
        xml = model.to_pmml("m1")
        deploy_pmml_model(vc.db, "m1", xml)
        assert get_pmml(vc.db, "m1") == xml

    def test_metadata_recorded(self, fabric):
        vc, __ = fabric
        model = train_linear_regression(
            [LabeledPoint(2 * x, [float(x), 0.0]) for x in range(5)]
        )
        deploy_pmml_model(vc.db, "meta_model", model.to_pmml())
        models = list_models(vc.db)
        assert len(models) == 1
        entry = models[0]
        assert entry["MODEL_NAME"] == "meta_model"
        assert entry["MODEL_TYPE"] == "RegressionModel"
        assert entry["NUM_FEATURES"] == 2
        assert entry["SIZE_BYTES"] > 100

    def test_duplicate_deploy_rejected(self, fabric):
        vc, __ = fabric
        model = train_linear_regression([LabeledPoint(1, [1.0])])
        deploy_pmml_model(vc.db, "dup", model.to_pmml())
        with pytest.raises(CatalogError):
            deploy_pmml_model(vc.db, "dup", model.to_pmml())
        deploy_pmml_model(vc.db, "dup", model.to_pmml(), overwrite=True)
        assert len(list_models(vc.db)) == 1

    def test_invalid_pmml_rejected_before_storage(self, fabric):
        vc, __ = fabric
        with pytest.raises(PmmlError):
            deploy_pmml_model(vc.db, "bad", "<NotPMML/>")
        assert not vc.db.dfs.exists("pmml_models/bad")
        assert list_models(vc.db) == []

    def test_delete_model(self, fabric):
        vc, __ = fabric
        model = train_linear_regression([LabeledPoint(1, [1.0])])
        deploy_pmml_model(vc.db, "gone", model.to_pmml())
        delete_model(vc.db, "gone")
        assert list_models(vc.db) == []
        with pytest.raises(CatalogError):
            get_pmml(vc.db, "gone")

    def test_model_stored_in_dfs(self, fabric):
        vc, __ = fabric
        model = train_linear_regression([LabeledPoint(1, [1.0])])
        deploy_pmml_model(vc.db, "dfs_model", model.to_pmml())
        assert vc.db.dfs.list("pmml_models/") == ["pmml_models/dfs_model"]
        assert vc.db.dfs.owner_node("pmml_models/dfs_model") in vc.db.node_names


class TestInDatabaseScoring:
    def test_pmml_predict_regression(self, fabric):
        """The paper's §3.3 example, end to end."""
        vc, __ = fabric
        session, rows = iris_like_table(vc)
        points = [
            LabeledPoint(a + 2 * b - c + 0.5 * d, [a, b, c, d])
            for a, b, c, d in rows
        ]
        model = train_linear_regression(
            points,
            names=["sepal_length", "sepal_width", "petal_length", "petal_width"],
        )
        deploy_pmml_model(vc.db, "regression", model.to_pmml("regression"))
        install_pmml_udx(vc.db)
        result = session.execute(
            "SELECT sepal_length, sepal_width, petal_length, petal_width, "
            "PMMLPredict(sepal_length, sepal_width, petal_length, "
            "petal_width USING PARAMETERS model_name='regression') "
            "FROM IrisTable"
        )
        assert len(result.rows) == len(rows)
        for row in result.rows:
            features, prediction = list(row[:4]), row[4]
            assert prediction == pytest.approx(model.predict(features))

    def test_pmml_predict_kmeans(self, fabric):
        vc, __ = fabric
        session, rows = iris_like_table(vc)
        model = train_kmeans([list(r) for r in rows], k=2)
        deploy_pmml_model(vc.db, "clusters", model.to_pmml("clusters"))
        install_pmml_udx(vc.db)
        result = session.execute(
            "SELECT sepal_length, sepal_width, petal_length, petal_width, "
            "PMMLPredict(sepal_length, sepal_width, petal_length, "
            "petal_width USING PARAMETERS model_name='clusters') FROM iristable"
        )
        for row in result.rows:
            assert int(row[4]) == model.predict(list(row[:4]))

    def test_predict_requires_model_name(self, fabric):
        from repro.vertica.errors import SqlError

        vc, __ = fabric
        session, __ = iris_like_table(vc)
        install_pmml_udx(vc.db)
        with pytest.raises(SqlError):
            session.execute(
                "SELECT PMMLPredict(sepal_length USING PARAMETERS x=1) "
                "FROM iristable"
            )

    def test_predict_unknown_model(self, fabric):
        vc, __ = fabric
        session, __ = iris_like_table(vc)
        install_pmml_udx(vc.db)
        with pytest.raises(CatalogError):
            session.execute(
                "SELECT PMMLPredict(sepal_length USING PARAMETERS "
                "model_name='ghost') FROM iristable"
            )


def one_weight_model(weight):
    return to_xml(PmmlDocument(RegressionModel(["x"], [weight])))


@pytest.fixture
def registry():
    reg = telemetry.install(MetricsRegistry(enabled=True))
    yield reg
    telemetry.reset()


class TestBlockScoring:
    """``PMMLPredict`` scores a batch per call and reads the model's
    document from the DFS once per call."""

    def scored(self, session, where=""):
        return session.execute(
            "SELECT id, PMMLPredict(x USING PARAMETERS model_name='m') "
            f"FROM t {where} ORDER BY id"
        ).rows

    @pytest.fixture
    def session(self, fabric):
        vc, __ = fabric
        session = vc.db.connect()
        session.execute(
            "CREATE TABLE t (id INTEGER, x VARCHAR(10)) UNSEGMENTED ALL NODES"
        )
        session.execute(
            "INSERT INTO t VALUES (0, '1'), (1, '2'), (2, '3'), (3, 'bad'), "
            "(4, '5'), (5, '6')"
        )
        deploy_pmml_model(vc.db, "m", one_weight_model(2))
        install_pmml_udx(vc.db)
        return session

    def test_a_redeployed_model_scores_with_its_new_document(self, fabric, session):
        vc, __ = fabric
        assert self.scored(session, "WHERE id < 2") == [(0, 2.0), (1, 4.0)]
        deploy_pmml_model(vc.db, "m", one_weight_model(5), overwrite=True)
        assert self.scored(session, "WHERE id < 2") == [(0, 5.0), (1, 10.0)]

    def test_a_deleted_model_fails_as_an_unknown_one(self, fabric, session):
        vc, __ = fabric
        assert self.scored(session, "WHERE id < 2") == [(0, 2.0), (1, 4.0)]
        delete_model(vc.db, "m")
        with pytest.raises(CatalogError) as deleted:
            self.scored(session, "WHERE id < 2")
        with pytest.raises(CatalogError) as unknown:
            session.execute(
                "SELECT PMMLPredict(x USING PARAMETERS model_name='ghost') FROM t"
            )
        assert str(deleted.value) == str(unknown.value).replace("ghost", "m")

    def test_predictions_count_the_scored_rows(self, registry, session):
        assert len(self.scored(session, "WHERE id < 3")) == 3
        assert registry.snapshot().counter("md.predictions") == 3

    def test_a_failing_row_counts_as_a_row_at_a_time_udx_did(
        self, registry, session
    ):
        # Row 3 fails.  A row-at-a-time UDx counted rows 0-3 on the batch's
        # pass, then again when the row evaluator re-ran the batch to
        # report the error; the failed block scores its rows one by one
        # the same way, so the count stays 2 * (3 + 1).
        with pytest.raises(PmmlError, match="'bad'"):
            self.scored(session)
        assert registry.snapshot().counter("md.predictions") == 8


class TestFullAnalyticsPipeline:
    def test_v2s_train_deploy_score_loop(self, fabric):
        """Figure 1's closed loop: V2S → train in Spark → MD → in-DB predict."""
        vc, spark = fabric
        session = vc.db.connect()
        session.execute(
            "CREATE TABLE events (x1 FLOAT, x2 FLOAT, label INTEGER) "
            "SEGMENTED BY HASH(x1) ALL NODES"
        )
        rows = [(float(i % 10), float((i * 3) % 7), 1 if (i % 10) > 4 else 0)
                for i in range(200)]
        values = ", ".join(f"({a}, {b}, {c})" for a, b, c in rows)
        session.execute(f"INSERT INTO events VALUES {values}")

        # V2S: load training data into Spark.
        df = spark.read.format("vertica").options(
            db=vc, table="events", numpartitions=8
        ).load()
        training = df.collect()
        assert len(training) == 200

        # Train in Spark MLlib.
        points = [LabeledPoint(float(label), [a, b]) for a, b, label in training]
        model = train_logistic_regression(points, iterations=150,
                                          names=["x1", "x2"])

        # MD: deploy to Vertica and score in-database.
        deploy_pmml_model(vc.db, "clicks", model.to_pmml("clicks"))
        install_pmml_udx(vc.db)
        result = session.execute(
            "SELECT x1, x2, PMMLPredict(x1, x2 USING PARAMETERS "
            "model_name='clicks') AS p FROM events"
        )
        for x1, x2, probability in result.rows:
            assert probability == pytest.approx(
                model.predict_probability([x1, x2])
            )
        # The model actually learned the boundary.
        correct = sum(
            1 for x1, x2, p in result.rows
            if (p >= 0.5) == (x1 > 4)
        )
        assert correct >= 180
