"""Tests for the RDD-based connector API and the §5 landing-zone save."""

import pytest

from repro.baselines.hdfs_source import SimHdfsCluster
from repro.bench.fabric import Fabric
from repro.connector import SimVerticaCluster
from repro.connector.rdd_api import (
    rdd_to_vertica,
    vertica_to_labeled_points,
    vertica_to_rdd,
)
from repro.connector.s2v import S2VError, S2VWriter
from repro.sim import Environment
from repro.spark import SparkSession, StructField, StructType
from repro.spark.errors import AnalysisError
from repro.workloads import make_d1

SCHEMA = StructType([StructField("id", "long"), StructField("v", "double")])


@pytest.fixture
def fabric():
    env = Environment()
    vertica = SimVerticaCluster(env=env, num_nodes=4)
    spark = SparkSession(env=env, cluster=vertica.sim_cluster, num_workers=4)
    return vertica, spark


@pytest.fixture
def populated(fabric):
    vertica, spark = fabric
    session = vertica.db.connect()
    session.execute(
        "CREATE TABLE src (id INTEGER, x FLOAT, label INTEGER) "
        "SEGMENTED BY HASH(id) ALL NODES"
    )
    values = ", ".join(
        f"({i}, {i * 0.5}, {1 if i % 2 else 0})" for i in range(100)
    )
    session.execute(f"INSERT INTO src VALUES {values}")
    return vertica, spark, session


class TestRddApi:
    def test_vertica_to_rdd(self, populated):
        vertica, spark, __ = populated
        rdd = vertica_to_rdd(spark, {"db": vertica, "table": "src",
                                     "numpartitions": 8})
        rows = rdd.collect()
        assert len(rows) == 100
        assert sorted(r[0] for r in rows) == list(range(100))

    def test_rdd_transformations_compose(self, populated):
        vertica, spark, __ = populated
        rdd = vertica_to_rdd(spark, {"db": vertica, "table": "src",
                                     "numpartitions": 4})
        doubled = rdd.map(lambda r: r[1] * 2).filter(lambda v: v > 90)
        assert len(doubled.collect()) == 9

    def test_column_pruning(self, populated):
        vertica, spark, __ = populated
        rdd = vertica_to_rdd(
            spark, {"db": vertica, "table": "src", "numpartitions": 4},
            columns=["X"],
        )
        rows = rdd.collect()
        assert all(len(r) == 1 for r in rows)

    def test_labeled_points(self, populated):
        vertica, spark, __ = populated
        points = vertica_to_labeled_points(
            spark,
            {"db": vertica, "table": "src", "numpartitions": 4},
            label_column="LABEL",
            feature_columns=["X", "ID"],
        ).collect()
        assert len(points) == 100
        sample = next(p for p in points if p.features[1] == 3.0)
        assert sample.label == 1.0
        assert sample.features == [1.5, 3.0]

    def test_labeled_points_validates_columns(self, populated):
        vertica, spark, __ = populated
        with pytest.raises(AnalysisError):
            vertica_to_labeled_points(
                spark, {"db": vertica, "table": "src"},
                label_column="NOPE", feature_columns=["X"],
            )
        with pytest.raises(AnalysisError):
            vertica_to_labeled_points(
                spark, {"db": vertica, "table": "src"},
                label_column="LABEL", feature_columns=[],
            )

    def test_rdd_to_vertica_round_trip(self, fabric):
        vertica, spark = fabric
        rdd = spark.parallelize([(i, float(i)) for i in range(50)], 4)
        result = rdd_to_vertica(
            spark, rdd, SCHEMA, {"db": vertica, "table": "out",
                                 "numpartitions": 4}
        )
        assert result.status == "SUCCESS"
        assert result.rows_loaded == 50
        back = vertica_to_rdd(spark, {"db": vertica, "table": "out",
                                      "numpartitions": 4})
        assert sorted(back.collect()) == [(i, float(i)) for i in range(50)]

    def test_rdd_arity_validated(self, fabric):
        vertica, spark = fabric
        from repro.spark.errors import JobFailedError

        rdd = spark.parallelize([(1, 2.0, "extra")], 1)
        with pytest.raises(JobFailedError):
            rdd_to_vertica(spark, rdd, SCHEMA,
                           {"db": vertica, "table": "bad", "numpartitions": 1})


class TestTwoStage:
    """Paper §5's landing-zone alternative, which is ``transport="staging"``."""

    @pytest.fixture
    def hdfs(self, fabric):
        vertica, __ = fabric
        return SimHdfsCluster(vertica.env, vertica.sim_cluster, num_nodes=4,
                              block_size=1 << 20)

    def save(self, fabric, hdfs, df, table, partitions, mode="overwrite"):
        vertica, spark = fabric
        return S2VWriter(spark, mode, {
            "db": vertica, "table": table, "numpartitions": partitions,
            "transport": "staging", "staging_fs": hdfs,
        }, df).save()

    def test_overwrite_round_trip(self, fabric, hdfs):
        vertica, spark = fabric
        rows = [(i, i * 0.5) for i in range(120)]
        df = spark.create_dataframe(rows, SCHEMA, num_partitions=4)
        result = self.save(fabric, hdfs, df, "ts", 4)
        assert result.status == "SUCCESS"
        assert result.rows_loaded == 120
        session = vertica.db.connect()
        assert sorted(session.execute("SELECT * FROM ts").rows) == sorted(rows)

    def test_landing_zone_cleaned_up(self, fabric, hdfs):
        __, spark = fabric
        df = spark.create_dataframe([(1, 1.0)], SCHEMA, num_partitions=1)
        self.save(fabric, hdfs, df, "ts", 1)
        assert hdfs.fs.list("/") == []

    def test_append_mode(self, fabric, hdfs):
        vertica, spark = fabric
        df1 = spark.create_dataframe([(1, 1.0)], SCHEMA, num_partitions=1)
        df2 = spark.create_dataframe([(2, 2.0)], SCHEMA, num_partitions=1)
        self.save(fabric, hdfs, df1, "ts", 1)
        self.save(fabric, hdfs, df2, "ts", 1, mode="append")
        session = vertica.db.connect()
        assert session.scalar("SELECT COUNT(*) FROM ts") == 2

    def test_append_requires_target(self, fabric, hdfs):
        __, spark = fabric
        df = spark.create_dataframe([(1, 1.0)], SCHEMA, num_partitions=1)
        with pytest.raises(S2VError, match="append mode requires"):
            self.save(fabric, hdfs, df, "missing", 1, mode="append")

    def test_two_stage_moves_data_twice(self):
        """The §5 prediction: an intermediate full copy of the data.

        In bytes, the landing write and the bulk-load pull each carry the
        dataset's virtual volume where a direct save moves it once.  In
        seconds that copy shows where the direct path has parallelism of
        its own: at 128 partitions.  (At 16 the staged transport *wins*,
        450 vs 603 sim-s — see the ``twostage`` area's note.)
        """
        d1 = make_d1(real_rows=500)
        volume = d1.virtual_rows * len(d1.schema.fields) * 8  # random doubles
        staged = Fabric(with_hdfs=True)
        staged_time = staged.save(
            "vertica", d1, "ts", 128, numpartitions=128,
            transport="staging", staging_fs=staged.hdfs,
        )
        counters = staged.metrics_snapshot().counters
        direct = Fabric()
        direct_time = direct.save("vertica", d1, "ss", 128, numpartitions=128)
        one_copy = sum(
            node.nics["external"].bytes_received
            for node in direct.vertica.sim_nodes.values()
        )
        assert one_copy == pytest.approx(volume, rel=0.05)
        for copy in ("hdfs.staging.bytes_written", "hdfs.staging.bytes_read"):
            # a full copy each (columnar framing of small files adds some)
            assert volume <= counters[copy] < 1.5 * volume
        assert staged_time > direct_time
