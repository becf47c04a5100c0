"""Tests for V2S: locality-aware parallel loads with snapshot consistency."""

import gc
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avrolite.codec import CODECS
from repro.connector import SimVerticaCluster
from repro.connector.options import OptionsError
from repro.sim import Environment
from repro.spark import (
    EqualTo,
    GreaterThan,
    GreaterThanOrEqual,
    In,
    IsNotNull,
    IsNull,
    LessThan,
    LessThanOrEqual,
    SparkSession,
    StructField,
    StructType,
)
from repro.spark.datasource import apply_filters


@pytest.fixture
def fabric():
    env = Environment()
    vc = SimVerticaCluster(env=env, num_nodes=4)
    spark = SparkSession(env=env, cluster=vc.sim_cluster, num_workers=8)
    return vc, spark


@pytest.fixture
def loaded(fabric):
    vc, spark = fabric
    session = vc.db.connect()
    session.execute(
        "CREATE TABLE src (id INTEGER, val FLOAT, name VARCHAR(30)) "
        "SEGMENTED BY HASH(id) ALL NODES"
    )
    values = ", ".join(f"({i}, {i * 0.5}, 'row{i}')" for i in range(300))
    session.execute(f"INSERT INTO src VALUES {values}")
    return vc, spark, session


def read_src(vc, spark, **extra):
    options = {"db": vc, "table": "src", "numpartitions": 8}
    options.update(extra)
    return spark.read.format("vertica").options(options).load()


class TestBasicLoad:
    def test_full_load(self, loaded):
        vc, spark, __ = loaded
        df = read_src(vc, spark)
        rows = sorted(df.collect())
        assert len(rows) == 300
        assert rows[0] == (0, 0.0, "row0")
        assert df.columns == ["ID", "VAL", "NAME"]

    def test_partition_count_is_user_option(self, loaded):
        vc, spark, __ = loaded
        for partitions in (1, 2, 3, 7, 16):
            df = read_src(vc, spark, numpartitions=partitions)
            assert df.rdd().num_partitions == partitions
            assert len(df.collect()) == 300

    def test_more_partitions_than_segments(self, loaded):
        vc, spark, __ = loaded
        df = read_src(vc, spark, numpartitions=64)
        assert len(df.collect()) == 300

    def test_schema_discovered_from_catalog(self, loaded):
        vc, spark, __ = loaded
        df = read_src(vc, spark)
        assert [f.data_type for f in df.schema] == ["long", "double", "string"]

    def test_missing_table_fails(self, fabric):
        vc, spark = fabric
        from repro.vertica.errors import CatalogError

        with pytest.raises(CatalogError):
            spark.read.format("vertica").options(db=vc, table="nope").load()

    def test_bad_options(self, fabric):
        vc, spark = fabric
        with pytest.raises(OptionsError):
            spark.read.format("vertica").options(db=vc).load()
        with pytest.raises(OptionsError):
            spark.read.format("vertica").options(
                db=vc, table="t", bogus_option=1
            ).load()


class TestPushdown:
    def test_filter_pushdown(self, loaded):
        vc, spark, __ = loaded
        df = read_src(vc, spark).filter(GreaterThan("ID", 290))
        rows = df.collect()
        assert sorted(r[0] for r in rows) == list(range(291, 300))

    def test_combined_filters(self, loaded):
        vc, spark, __ = loaded
        df = read_src(vc, spark).filter(GreaterThan("ID", 100)).filter(
            LessThan("ID", 105)
        )
        assert sorted(r[0] for r in df.collect()) == [101, 102, 103, 104]

    def test_column_pruning(self, loaded):
        vc, spark, __ = loaded
        df = read_src(vc, spark).select("NAME")
        rows = df.collect()
        assert len(rows) == 300
        assert all(len(r) == 1 for r in rows)

    def test_count_pushdown_single_query(self, loaded):
        vc, spark, __ = loaded
        df = read_src(vc, spark)
        assert df.count() == 300
        assert df.filter(GreaterThan("ID", 149)).count() == 150

    def test_pushdown_reduces_transfer(self, loaded):
        vc, spark, __ = loaded
        env_before = vc.external_bytes()
        read_src(vc, spark).filter(GreaterThan("ID", 294)).collect()
        selective_bytes = vc.external_bytes() - env_before
        before_full = vc.external_bytes()
        read_src(vc, spark).collect()
        full_bytes = vc.external_bytes() - before_full
        assert selective_bytes < full_bytes / 10


#: a FLOAT column's edge values, each stored on several rows
EDGE_VALUES = (0.0, -0.0, 1.5, -2.5, 1e300, 1e-320, math.inf, -math.inf,
               math.nan, None)

COMPARISONS = {
    "EqualTo": EqualTo,
    "GreaterThan": GreaterThan,
    "GreaterThanOrEqual": GreaterThanOrEqual,
    "LessThan": LessThan,
    "LessThanOrEqual": LessThanOrEqual,
    "In": lambda attribute, value: In(attribute, (1.5, value)),
}


def multiset(rows):
    """Rows as a multiset that tells NaN, ``-0.0`` and ``0.0`` apart."""
    return Counter(map(repr, rows))


class TestNonFiniteFilterLiterals:
    """A filter on ±inf or NaN returns what Spark's own evaluation of it
    returns: ±inf is pushed as a literal the engine reads back to the
    same float, and NaN, which SQL cannot spell, stays Spark-side."""

    @pytest.fixture
    def edges(self, fabric):
        vc, spark = fabric
        vc.db.connect().execute(
            "CREATE TABLE edges (id INTEGER, val FLOAT) "
            "SEGMENTED BY HASH(id) ALL NODES"
        )
        values = list(EDGE_VALUES) * 3
        txn = vc.db.begin()
        vc.db.engine.insert_rows(
            "EDGES", [list(range(len(values))), values], txn)
        txn.commit(vc.db.storage)
        return vc, spark

    @pytest.mark.parametrize("partitions", (1, 3))
    @pytest.mark.parametrize("literal", (math.inf, -math.inf, math.nan),
                             ids=("inf", "-inf", "nan"))
    @pytest.mark.parametrize("comparison", sorted(COMPARISONS))
    def test_pushed_load_equals_spark_side_filter(self, edges, comparison,
                                                  literal, partitions):
        vc, spark = edges
        where = COMPARISONS[comparison]("VAL", literal)
        df = spark.read.format("vertica").options(
            db=vc, table="edges", numpartitions=partitions).load()
        want = apply_filters([where], df.schema, df.collect())
        pushed = df.filter(where)
        assert multiset(pushed.collect()) == multiset(want)
        # count and partial-aggregate pushdown agree, or decline
        assert pushed.count() == len(want)
        assert multiset(pushed.group_by("ID").count().collect()) == multiset(
            (row[0], 1) for row in want)

    def test_a_nan_filter_on_a_dropped_column(self, edges):
        """The residual NaN filter reads ``VAL`` though the projection
        keeps only ``ID``: the scan reads both, filters, then projects."""
        vc, spark = edges
        df = spark.read.format("vertica").options(
            db=vc, table="edges", numpartitions=3).load()
        for where in (LessThanOrEqual("VAL", math.nan),
                      In("VAL", (math.nan, 1.5))):
            want = apply_filters([where], df.schema, df.collect())
            got = df.filter(where).select("ID").collect()
            assert sorted(got) == sorted((row[0],) for row in want)

class TestStoredHashAnswersTheRange:
    """The node answers a task's ``HASH(seg) >= lo AND HASH(seg) < hi`` from
    the hash it stored with each row; nothing is hashed at read time."""

    def test_segmented_load_hashes_nothing(self, loaded, hash_calls):
        vc, spark, __ = loaded
        full = read_src(vc, spark, numpartitions=16)
        filtered = full.filter(GreaterThan("ID", 100)).filter(LessThan("VAL", 120.0))
        grouped = full.filter(LessThan("ID", 200)).group_by("NAME").count()
        hash_calls[0] = 0
        assert len(full.collect()) == 300
        assert sorted(r[0] for r in filtered.collect()) == list(range(101, 240))
        assert len(grouped.collect()) == 200
        assert hash_calls[0] == 0

    def test_unsegmented_and_view_loads_hash_each_row_once_per_query(
        self, loaded, hash_calls
    ):
        """Nothing is stored for ``SYNTHETIC_HASH()``; every one of the 16
        task queries hashes the relation's rows once — not once per bound —
        (a view's rows once more, to attribute them to a node)."""
        vc, spark, session = loaded
        session.execute("CREATE TABLE u (a INTEGER, b FLOAT) UNSEGMENTED ALL NODES")
        session.execute(
            "INSERT INTO u VALUES " + ", ".join(f"({i}, {i}.5)" for i in range(40))
        )
        session.execute(
            "CREATE VIEW big_rows AS SELECT id, val FROM src WHERE id >= 200"
        )
        for table, rows, per_row in (("u", 40, 1), ("big_rows", 100, 2)):
            df = read_src(vc, spark, table=table, numpartitions=16)
            hash_calls[0] = 0
            assert len(df.collect()) == rows
            assert hash_calls[0] == 16 * rows * per_row


class TestLocality:
    def test_no_internal_shuffle(self, loaded):
        """§3.1.2: hash-range queries touch only node-local data."""
        vc, spark, __ = loaded
        read_src(vc, spark, numpartitions=16).collect()
        assert vc.internal_bytes() == 0.0
        assert vc.external_bytes() > 0.0

    def test_tasks_connect_to_all_nodes(self, loaded):
        vc, spark, __ = loaded
        read_src(vc, spark, numpartitions=16).collect()
        model = vc.cost_model
        per_node = [
            node.nics[model.external_nic].tx.bytes_total
            for node in vc.sim_nodes.values()
        ]
        assert all(nbytes > 0 for nbytes in per_node)

    def test_partition_union_is_exact(self, loaded):
        """Ranges are disjoint + complete: no row lost, none duplicated."""
        vc, spark, __ = loaded
        for partitions in (2, 4, 8, 13, 32):
            rows = read_src(vc, spark, numpartitions=partitions).collect()
            ids = sorted(r[0] for r in rows)
            assert ids == list(range(300)), f"partitions={partitions}"


class TestLongLivedSession:
    def test_repeated_loads_do_not_retain_their_rows(self, loaded):
        """One session, one fabric, 20 collects of one 300-row load: what
        stays allocated from collect 5 to collect 20 is the sim's change
        logs and statement caches, ~74 kB here.  When the scheduler kept
        every finished job with its task results, it was ~547 kB (~36 kB,
        one load's rows, per collect)."""
        vc, spark, __ = loaded
        df = read_src(vc, spark)
        traced = []
        tracemalloc.start()
        try:
            for __ in range(20):
                assert len(df.collect()) == 300
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert traced[19] - traced[4] < 150_000


class TestSnapshotConsistency:
    def test_concurrent_writes_do_not_tear_the_load(self, loaded):
        """Tasks pin one epoch, so a mid-job commit is invisible (§3.1.2)."""
        vc, spark, session = loaded
        from repro.connector.v2s import VerticaRelation

        relation = VerticaRelation(spark, {"db": vc, "table": "src",
                                           "numpartitions": 4})
        epoch = relation.pin_epoch()
        scan = relation.build_scan()
        # A writer commits between "job start" and task execution.
        session.execute("DELETE FROM src WHERE id < 150")
        rows = scan.collect()
        assert len(rows) == 300  # the pinned snapshot still sees all rows
        # A fresh load sees the new state.
        fresh = read_src(vc, spark).collect()
        assert len(fresh) == 150

    def test_restarted_task_sees_same_epoch(self, loaded):
        from repro.spark.faults import FailOncePerTaskPolicy

        vc, spark, session = loaded

        class Policy(FailOncePerTaskPolicy):
            def on_task_start(self, ctx):
                self.on_probe(ctx, self.label)

        env = vc.env
        spark_faulty = SparkSession(
            env=env, cluster=vc.sim_cluster,
            fault_policy=Policy("start"), worker_prefix="spark",
        )
        df = spark_faulty.read.format("vertica").options(
            db=vc, table="src", numpartitions=8
        ).load()
        rows = df.collect()
        assert sorted(r[0] for r in rows) == list(range(300))


class TestViewsAndUnsegmented:
    def test_view_load_with_synthetic_ranges(self, loaded):
        vc, spark, session = loaded
        session.execute(
            "CREATE VIEW big_rows AS SELECT id, val FROM src WHERE id >= 200"
        )
        df = spark.read.format("vertica").options(
            db=vc, table="big_rows", numpartitions=8
        ).load()
        rows = df.collect()
        assert sorted(r[0] for r in rows) == list(range(200, 300))

    def test_view_pushes_down_aggregation(self, loaded):
        vc, spark, session = loaded
        session.execute(
            "CREATE VIEW stats AS SELECT COUNT(*) AS n, SUM(id) AS total FROM src"
        )
        df = spark.read.format("vertica").options(
            db=vc, table="stats", numpartitions=4
        ).load()
        assert df.collect() == [(300, sum(range(300)))]

    def test_view_join_pushdown(self, loaded):
        vc, spark, session = loaded
        session.execute("CREATE TABLE dims (id INTEGER, category VARCHAR(10))")
        session.execute(
            "INSERT INTO dims VALUES (1, 'a'), (2, 'b'), (3, 'a')"
        )
        session.execute(
            "CREATE VIEW joined AS SELECT src.id, category FROM src "
            "JOIN dims ON src.id = dims.id"
        )
        df = spark.read.format("vertica").options(
            db=vc, table="joined", numpartitions=4
        ).load()
        assert sorted(df.collect()) == [(1, "a"), (2, "b"), (3, "a")]

    def test_a_null_first_row_types_a_view_column_by_its_first_value(
            self, fabric):
        vc, spark = fabric
        session = vc.db.connect()
        session.execute(
            "CREATE TABLE t (k INTEGER, i INTEGER, f FLOAT, b BOOLEAN, "
            "s VARCHAR(8), n INTEGER) UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO t VALUES (1, NULL, NULL, NULL, 'x', NULL)")
        session.execute(
            "INSERT INTO t VALUES (2, 5, 2.5, true, 'y', NULL), "
            "(3, -1, 0.5, false, NULL, NULL), (4, NULL, -3.0, NULL, 'z', NULL)")
        session.execute("CREATE VIEW v AS SELECT i, f, b, s, n, k FROM t")
        # the row a one-row sample sees holds the NULLs
        assert session.execute("SELECT * FROM v LIMIT 1").rows == [
            (None, None, None, "x", None, 1)]
        df = spark.read.format("vertica").options(
            db=vc, table="v", numpartitions=3).load()
        # an all-NULL column stays a string
        assert [(f.name, f.data_type) for f in df.schema] == [
            ("I", "long"), ("F", "double"), ("B", "boolean"), ("S", "string"),
            ("N", "string"), ("K", "long")]
        literal = {"long": 0, "double": 1.0, "boolean": False, "string": "y"}
        rows = df.collect()
        for field in df.schema:
            for kind in (EqualTo, GreaterThan, LessThanOrEqual):
                where = kind(field.name, literal[field.data_type])
                assert multiset(df.filter(where).collect()) == multiset(
                    apply_filters([where], df.schema, rows))

    def test_unsegmented_table_load(self, fabric):
        vc, spark = fabric
        session = vc.db.connect()
        session.execute("CREATE TABLE u (a INTEGER, b VARCHAR(10)) UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO u VALUES " + ", ".join(f"({i}, 'x{i}')" for i in range(40)))
        df = spark.read.format("vertica").options(
            db=vc, table="u", numpartitions=8
        ).load()
        rows = df.collect()
        assert sorted(r[0] for r in rows) == list(range(40))

    def test_unsegmented_load_is_local(self, fabric):
        vc, spark = fabric
        session = vc.db.connect()
        session.execute("CREATE TABLE u (a INTEGER) UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO u VALUES " + ", ".join(f"({i})" for i in range(40)))
        spark.read.format("vertica").options(db=vc, table="u", numpartitions=8).load().collect()
        assert vc.internal_bytes() == 0.0


# -- the Data Source contract, property-tested --------------------------------
SQL_TYPES = {"long": "INTEGER", "double": "FLOAT", "string": "VARCHAR(80)",
             "boolean": "BOOLEAN"}
#: stored values and filter literals per column type, edges first
VALUES = {
    "long": st.one_of(st.sampled_from((0, -1, 7, 2**63 - 1, -(2**63 - 1))),
                      st.integers(-3, 3)),
    "double": st.one_of(st.sampled_from(EDGE_VALUES[:-1]),
                        st.floats(-4.0, 4.0, width=16)),
    "string": st.one_of(st.sampled_from(("", "a", "it's", "\U0001F600")),
                        st.text("ab'é\U0001F600", max_size=4)),
    "boolean": st.booleans(),
}
#: a literal of another type that compares cleanly with the column's
#: values (an INTEGER column against 10^20 or 1.5, a FLOAT against 3)
LITERALS = {
    "long": st.one_of(VALUES["long"], st.sampled_from((10**20, 1.5))),
    "double": st.one_of(st.sampled_from(EDGE_VALUES[:-1]), st.integers(-3, 3),
                        st.just(math.nan)),  # NaN stays Spark-side: drawn often
    "string": VALUES["string"],
    "boolean": VALUES["boolean"],
}


@st.composite
def tables(draw):
    """(schema, rows): every type in some order, and maybe one more
    column of any type; NULLs in each."""
    types = draw(st.permutations(sorted(SQL_TYPES))) + draw(
        st.lists(st.sampled_from(sorted(SQL_TYPES)), max_size=1))
    schema = StructType([StructField(f"C{i}", t) for i, t in enumerate(types)])
    row = st.tuples(*(st.one_of(st.none(), VALUES[t]) for t in types))
    return schema, draw(st.lists(row, min_size=1, max_size=30))


@st.composite
def filters_on(draw, schema):
    """1–3 filters, each of any ``Filter`` class, on any column."""
    found = []
    for __ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(schema.fields))
        literal = LITERALS[field.data_type]
        kind = draw(st.sampled_from(FILTER_CLASSES))
        if kind is In:
            found.append(In(field.name, tuple(draw(
                st.lists(st.one_of(st.none(), literal), max_size=3)))))
        elif kind in (IsNull, IsNotNull):
            found.append(kind(field.name))
        else:
            found.append(kind(field.name, draw(literal)))
    return found


FILTER_CLASSES = (EqualTo, GreaterThan, GreaterThanOrEqual, LessThan,
                  LessThanOrEqual, In, IsNull, IsNotNull)


@st.composite
def loads(draw):
    """A table, the filters and the required columns of a load of it, and
    the column order of a projection view over it (None: load the table)."""
    schema, rows = draw(tables())
    filters = draw(filters_on(schema))
    required = draw(st.none() | st.lists(st.sampled_from(schema.names),
                                         min_size=1, unique=True))
    view = draw(st.none() | st.permutations(schema.names))
    return schema, rows, filters, required, view


def create(vc, schema, rows, segmented):
    columns = ", ".join(f"{f.name} {SQL_TYPES[f.data_type]}" for f in schema)
    where = (f"SEGMENTED BY HASH({schema.fields[0].name}) ALL NODES"
             if segmented else "UNSEGMENTED ALL NODES")
    vc.db.connect().execute(f"CREATE TABLE t ({columns}) {where}")
    txn = vc.db.begin()
    vc.db.engine.insert_rows(
        "T", [list(column) for column in zip(*rows)] or [[] for __ in schema],
        txn)
    txn.commit(vc.db.storage)


def outcome(run):
    """What ``run`` returned, as a multiset, or the class it raised."""
    try:
        return multiset(run())
    except Exception as exc:  # noqa: BLE001 - the class is the answer
        return type(exc)


class TestDataSourceContract:
    """Whatever the schema, filters, projection and partitioning, a pushed
    load returns what Spark's own evaluation over an unpushed load returns
    (or both raise the same class), and S2V then V2S returns what was
    saved."""

    @given(case=loads(), partitions=st.sampled_from((1, 3, 8)),
           segmented=st.booleans())
    @settings(max_examples=4 * settings.default.max_examples, deadline=None)
    def test_pushed_load_equals_spark_side_filters(self, case, partitions,
                                                   segmented):
        # Filter literals follow the stored types: a view's column that is
        # NULL in every row reads as a string.
        schema, rows, filters, required, view = case
        env = Environment()
        vc = SimVerticaCluster(env=env, num_nodes=4)
        spark = SparkSession(env=env, cluster=vc.sim_cluster, num_workers=4)
        create(vc, schema, rows, segmented)
        if view is not None:
            vc.db.connect().execute(
                f"CREATE VIEW v AS SELECT {', '.join(view)} FROM t")
        df = spark.read.format("vertica").options(
            db=vc, table="t" if view is None else "v",
            numpartitions=partitions).load()
        pushed = df
        for where in filters:
            pushed = pushed.filter(where)
        if required is not None:
            pushed = pushed.select(*required)
        keep = [df.schema.index_of(c) for c in required or df.columns]

        def spark_side():
            kept = apply_filters(filters, df.schema, df.collect())
            return [tuple(row[i] for i in keep) for row in kept]

        want = outcome(spark_side)
        assert outcome(pushed.collect) == want
        if required is None and isinstance(want, Counter):
            assert pushed.count() == sum(want.values())

    @given(table=tables(), partitions=st.sampled_from((1, 3, 8)),
           codec=st.sampled_from(sorted(CODECS)))
    @settings(max_examples=settings.default.max_examples, deadline=None)
    def test_s2v_then_v2s_returns_what_was_saved(self, table, partitions,
                                                 codec):
        schema, rows = table
        env = Environment()
        vc = SimVerticaCluster(env=env, num_nodes=4)
        spark = SparkSession(env=env, cluster=vc.sim_cluster, num_workers=4)
        spark.create_dataframe(rows, schema, num_partitions=partitions) \
            .write.format("vertica").options(
                db=vc, table="t", numpartitions=partitions, avro_codec=codec,
            ).mode("overwrite").save()
        loaded = spark.read.format("vertica").options(
            db=vc, table="t", numpartitions=partitions).load()
        assert multiset(loaded.collect()) == multiset(rows)
