"""Integration tests for the query engine through the session API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica import HASH_SPACE, VerticaDatabase, vertica_hash
from repro.vertica.engine import (
    CostReport,
    HashRange,
    _value_bytes,
    _value_widths,
    extract_hash_range,
)
from repro.vertica.errors import CatalogError, SqlError
from repro.vertica.plan.physical import ProjectOp
from repro.vertica.sql.parser import parse_expression
from repro.vertica.storage import RosContainer
from tests.test_plan_differential import JOIN_MATRIX, MATRIX, join_db
from tests.test_plan_differential import db as matrix_db  # noqa: F401 - fixtures


@pytest.fixture
def db():
    return VerticaDatabase(num_nodes=4)


@pytest.fixture
def session(db):
    return db.connect()


@pytest.fixture
def people(session):
    session.execute(
        "CREATE TABLE people (id INTEGER, name VARCHAR(40), age INTEGER, "
        "score FLOAT) SEGMENTED BY HASH(id) ALL NODES"
    )
    rows = [
        (1, "alice", 30, 1.5),
        (2, "bob", 25, 2.5),
        (3, "carol", 35, 3.5),
        (4, "dan", None, None),
        (5, "erin", 30, 5.5),
    ]
    values = ", ".join(
        f"({i}, '{n}', {a if a is not None else 'NULL'}, "
        f"{s if s is not None else 'NULL'})"
        for i, n, a, s in rows
    )
    session.execute(f"INSERT INTO people VALUES {values}")
    return session


class TestSelect:
    def test_select_star_order(self, people):
        result = people.execute("SELECT * FROM people ORDER BY id")
        assert result.columns == ["ID", "NAME", "AGE", "SCORE"]
        assert [r[0] for r in result.rows] == [1, 2, 3, 4, 5]

    def test_where_filters(self, people):
        result = people.execute("SELECT name FROM people WHERE age = 30 ORDER BY name")
        assert result.rows == [("alice",), ("erin",)]

    def test_null_where_excluded(self, people):
        result = people.execute("SELECT id FROM people WHERE age > 0")
        assert len(result.rows) == 4  # dan's NULL age excluded

    def test_projection_expression(self, people):
        result = people.execute("SELECT id * 10 AS tens FROM people WHERE id = 2")
        assert result.columns == ["TENS"]
        assert result.rows == [(20,)]

    def test_limit(self, people):
        result = people.execute("SELECT id FROM people ORDER BY id LIMIT 2")
        assert result.rows == [(1,), (2,)]

    def test_order_desc_nulls(self, people):
        result = people.execute("SELECT age FROM people ORDER BY age DESC")
        ages = [r[0] for r in result.rows]
        assert ages[0] == 35
        assert ages[-1] is None

    def test_select_without_from(self, session):
        assert session.scalar("SELECT 2 + 3") == 5

    def test_unknown_table(self, session):
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM missing")

    def test_unknown_column(self, people):
        with pytest.raises(SqlError):
            people.execute("SELECT nope FROM people")


class TestAggregates:
    def test_count_star(self, people):
        assert people.scalar("SELECT COUNT(*) FROM people") == 5

    def test_count_column_skips_nulls(self, people):
        assert people.scalar("SELECT COUNT(age) FROM people") == 4

    def test_sum_avg_min_max(self, people):
        result = people.execute(
            "SELECT SUM(age), AVG(age), MIN(age), MAX(age) FROM people"
        )
        assert result.rows == [(120, 30.0, 25, 35)]

    def test_count_distinct(self, people):
        assert people.scalar("SELECT COUNT(DISTINCT age) FROM people") == 3

    def test_aggregate_on_empty(self, people):
        result = people.execute("SELECT COUNT(*), SUM(age) FROM people WHERE id > 99")
        assert result.rows == [(0, None)]

    def test_group_by(self, people):
        result = people.execute(
            "SELECT age, COUNT(*) AS n FROM people WHERE age IS NOT NULL "
            "GROUP BY age ORDER BY age"
        )
        assert result.rows == [(25, 1), (30, 2), (35, 1)]

    def test_min_max_on_strings(self, people):
        result = people.execute("SELECT MIN(name), MAX(name) FROM people")
        assert result.rows == [("alice", "erin")]


class TestJoins:
    def test_inner_join(self, people):
        people.execute("CREATE TABLE pets (owner_id INTEGER, pet VARCHAR(20))")
        people.execute(
            "INSERT INTO pets VALUES (1, 'cat'), (1, 'dog'), (3, 'fish')"
        )
        result = people.execute(
            "SELECT name, pet FROM people JOIN pets ON id = owner_id "
            "ORDER BY name, pet"
        )
        assert result.rows == [("alice", "cat"), ("alice", "dog"), ("carol", "fish")]

    def test_join_with_aliases(self, people):
        people.execute("CREATE TABLE pets (owner_id INTEGER, pet VARCHAR(20))")
        people.execute("INSERT INTO pets VALUES (2, 'rat')")
        result = people.execute(
            "SELECT p.name, q.pet FROM people p JOIN pets q ON p.id = q.owner_id"
        )
        assert result.rows == [("bob", "rat")]

    def test_join_in_view_enables_pushdown(self, people):
        # §3.1.1: joins can be pushed down by pre-defining a view.
        people.execute("CREATE TABLE pets (owner_id INTEGER, pet VARCHAR(20))")
        people.execute("INSERT INTO pets VALUES (1, 'cat'), (3, 'fish')")
        people.execute(
            "CREATE VIEW owner_pets AS SELECT name, pet FROM people "
            "JOIN pets ON id = owner_id"
        )
        result = people.execute("SELECT * FROM owner_pets ORDER BY name")
        assert result.rows == [("alice", "cat"), ("carol", "fish")]


class TestViews:
    def test_simple_view(self, people):
        people.execute("CREATE VIEW adults AS SELECT id, name FROM people WHERE age >= 30")
        result = people.execute("SELECT name FROM adults ORDER BY name")
        assert result.rows == [("alice",), ("carol",), ("erin",)]

    def test_view_with_aggregation(self, people):
        people.execute(
            "CREATE VIEW age_counts AS SELECT age, COUNT(*) AS n FROM people "
            "WHERE age IS NOT NULL GROUP BY age"
        )
        result = people.execute("SELECT * FROM age_counts ORDER BY age")
        assert [r[1] for r in result.rows] == [1, 2, 1]

    def test_view_synthetic_hash_filter(self, people):
        # The connector's view-parallelism trick: tile the synthetic hash
        # space and check the union of parts equals the whole view.
        people.execute("CREATE VIEW v AS SELECT id, name FROM people")
        whole = people.execute("SELECT * FROM v ORDER BY id").rows
        parts = []
        bounds = [0, HASH_SPACE // 3, 2 * (HASH_SPACE // 3), HASH_SPACE]
        for lo, hi in zip(bounds, bounds[1:]):
            result = people.execute(
                f"SELECT * FROM v WHERE SYNTHETIC_HASH() >= {lo} "
                f"AND SYNTHETIC_HASH() < {hi}"
            )
            parts.extend(result.rows)
        assert sorted(parts) == sorted(whole)

    def test_drop_view(self, people):
        people.execute("CREATE VIEW v AS SELECT id FROM people")
        people.execute("DROP VIEW v")
        with pytest.raises(CatalogError):
            people.execute("SELECT * FROM v")


class TestSystemTables:
    def test_nodes(self, session, db):
        result = session.execute("SELECT node_name FROM v_catalog.nodes ORDER BY node_name")
        assert [r[0] for r in result.rows] == db.node_names

    def test_segments_cover_ring(self, people, db):
        result = people.execute(
            "SELECT segment_lower_bound, segment_upper_bound FROM "
            "v_catalog.segments WHERE table_name = 'PEOPLE' "
            "ORDER BY segment_lower_bound"
        )
        assert result.rows[0][0] == 0
        assert result.rows[-1][1] == HASH_SPACE
        for (_, hi), (lo, _) in zip(result.rows, result.rows[1:]):
            assert hi == lo

    def test_epochs_advance_on_commit(self, session):
        session.execute("CREATE TABLE t (a INTEGER)")
        before = session.scalar("SELECT current_epoch FROM v_catalog.epochs")
        session.execute("INSERT INTO t VALUES (1)")
        after = session.scalar("SELECT current_epoch FROM v_catalog.epochs")
        assert after == before + 1

    def test_tables_lists_segmentation(self, people):
        result = people.execute(
            "SELECT is_segmented, row_segmentation FROM v_catalog.tables "
            "WHERE table_name = 'PEOPLE'"
        )
        assert result.rows == [(True, "ID")]


class TestHashRangeQueries:
    def test_extract_range(self):
        where = parse_expression("HASH(ID) >= 100 AND HASH(ID) < 200 AND AGE > 1")
        hash_range = extract_hash_range(where, ["ID"])
        assert (hash_range.lo, hash_range.hi) == (100, 200)

    def test_extract_requires_matching_columns(self):
        where = parse_expression("HASH(OTHER) >= 100")
        hash_range = extract_hash_range(where, ["ID"])
        assert hash_range.is_full

    def test_extract_reversed_comparison(self):
        where = parse_expression("100 <= HASH(ID) AND 200 > HASH(ID)")
        hash_range = extract_hash_range(where, ["ID"])
        assert (hash_range.lo, hash_range.hi) == (100, 200)

    def test_extract_between(self):
        where = parse_expression("HASH(ID) BETWEEN 10 AND 19")
        hash_range = extract_hash_range(where, ["ID"])
        assert (hash_range.lo, hash_range.hi) == (10, 20)

    def test_disjunction_not_extracted(self):
        where = parse_expression("HASH(ID) >= 100 OR AGE > 1")
        assert extract_hash_range(where, ["ID"]).is_full

    def test_hash_range_union_reconstructs_table(self, people, db):
        table = db.catalog.table("people")
        collected = []
        for lo, hi, node in table.ring.split(8):
            result = people.execute(
                f"SELECT id FROM people WHERE HASH(id) >= {lo} AND HASH(id) < {hi}"
            )
            collected.extend(r[0] for r in result.rows)
        assert sorted(collected) == [1, 2, 3, 4, 5]

    def test_hash_range_scan_touches_single_node(self, people, db):
        table = db.catalog.table("people")
        segment = table.ring.segments[0]
        result = people.execute(
            f"SELECT id FROM people WHERE HASH(id) >= {segment.lo} "
            f"AND HASH(id) < {segment.hi}"
        )
        scanned_nodes = set(result.cost.node_rows_scanned)
        assert scanned_nodes <= {segment.node}

    def test_rows_live_on_hashed_node(self, people, db):
        table = db.catalog.table("people")
        result = people.execute("SELECT id FROM people")
        for node, nbytes in result.cost.node_output_bytes.items():
            assert nbytes > 0
        # every row's producing node matches the ring
        for row in result.rows:
            expected = table.ring.node_for(vertica_hash(row[0]))
            single = people.execute(f"SELECT id FROM people WHERE id = {row[0]}")
            assert list(single.cost.node_output_bytes) == [expected]


class TestUnsegmentedTables:
    def test_replicated_reads_have_one_copy(self, session, db):
        session.execute("CREATE TABLE u (a INTEGER) UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO u VALUES (1), (2)")
        assert session.scalar("SELECT COUNT(*) FROM u") == 2
        # physically present on every node
        for node in db.node_names:
            assert db.storage[node].live_row_count("U", db.epochs.current) == 2

    def test_read_is_local_to_initiator(self, db):
        s1 = db.connect(db.node_names[2])
        s1.execute("CREATE TABLE u (a INTEGER) UNSEGMENTED ALL NODES")
        s1.execute("INSERT INTO u VALUES (1)")
        result = s1.execute("SELECT a FROM u")
        assert list(result.cost.node_output_bytes) == [db.node_names[2]]

    def test_update_applies_to_all_copies(self, session, db):
        session.execute("CREATE TABLE u (a INTEGER) UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO u VALUES (1)")
        result = session.execute("UPDATE u SET a = 2 WHERE a = 1")
        assert result.rowcount == 1
        for node in db.node_names:
            other = db.connect(node)
            assert other.scalar("SELECT a FROM u") == 2

    def test_delete_applies_to_all_copies(self, session, db):
        session.execute("CREATE TABLE u (a INTEGER) UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO u VALUES (1), (2)")
        session.execute("DELETE FROM u WHERE a = 1")
        for node in db.node_names:
            assert db.connect(node).scalar("SELECT COUNT(*) FROM u") == 1


    def test_dml_counts_value_equal_rows_once_per_copy(self):
        # Regression: replicated copies were deduplicated by *value*, so two
        # equal rows counted (and were re-inserted) as one.
        db = VerticaDatabase(num_nodes=3)
        session = db.connect()
        session.execute(
            "CREATE TABLE u (a INTEGER, b VARCHAR(5)) UNSEGMENTED ALL NODES"
        )
        session.execute("INSERT INTO u VALUES (1, 'x'), (1, 'x'), (2, 'y')")
        assert session.execute("UPDATE u SET b = 'z' WHERE a = 1").rowcount == 2
        for node in db.node_names:
            rows = db.connect(node).execute("SELECT a, b FROM u").rows
            assert sorted(rows) == [(1, "z"), (1, "z"), (2, "y")]
        assert session.execute("DELETE FROM u WHERE a = 1").rowcount == 2
        for node in db.node_names:
            assert db.connect(node).execute("SELECT a, b FROM u").rows == [(2, "y")]


class TestDml:
    def test_update_rowcount(self, people):
        result = people.execute("UPDATE people SET age = 31 WHERE age = 30")
        assert result.rowcount == 2
        assert people.scalar("SELECT COUNT(*) FROM people WHERE age = 31") == 2

    def test_update_no_match(self, people):
        assert people.execute("UPDATE people SET age = 1 WHERE id = 999").rowcount == 0

    def test_update_unknown_column(self, people):
        with pytest.raises(SqlError):
            people.execute("UPDATE people SET nope = 1")

    def test_delete_and_count(self, people):
        result = people.execute("DELETE FROM people WHERE age IS NULL")
        assert result.rowcount == 1
        assert people.scalar("SELECT COUNT(*) FROM people") == 4

    def test_insert_select(self, people):
        people.execute("CREATE TABLE people2 (id INTEGER, name VARCHAR(40), "
                       "age INTEGER, score FLOAT)")
        people.execute("INSERT INTO people2 SELECT * FROM people WHERE id <= 2")
        assert people.scalar("SELECT COUNT(*) FROM people2") == 2

    def test_insert_column_subset_defaults_null(self, people):
        people.execute("INSERT INTO people (id, name) VALUES (99, 'zed')")
        result = people.execute("SELECT age, score FROM people WHERE id = 99")
        assert result.rows == [(None, None)]

    def test_insert_type_error_aborts_statement(self, people):
        from repro.vertica.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            people.execute("INSERT INTO people VALUES ('x', 'y', 1, 1.0)")
        assert people.scalar("SELECT COUNT(*) FROM people") == 5

    def test_truncate(self, people):
        people.execute("TRUNCATE TABLE people")
        assert people.scalar("SELECT COUNT(*) FROM people") == 0


class TestEpochSnapshots:
    def test_at_epoch_reads_history(self, people, db):
        epoch_before = db.epochs.current
        people.execute("DELETE FROM people WHERE id = 1")
        people.execute("INSERT INTO people VALUES (6, 'frank', 1, 1.0)")
        latest = people.execute("SELECT COUNT(*) FROM people").scalar()
        historical = people.scalar(f"AT EPOCH {epoch_before} SELECT COUNT(*) FROM people")
        assert latest == 5
        assert historical == 5
        old_names = people.execute(
            f"AT EPOCH {epoch_before} SELECT name FROM people ORDER BY name"
        ).rows
        assert ("alice",) in old_names
        assert ("frank",) not in old_names

    def test_future_epoch_rejected(self, people, db):
        from repro.vertica.errors import TransactionError

        with pytest.raises(TransactionError):
            people.execute(f"AT EPOCH {db.epochs.current + 10} SELECT * FROM people")

    def test_snapshot_isolation_between_sessions(self, people, db):
        reader = db.connect(db.node_names[1])
        epoch = db.epochs.current
        people.execute("DELETE FROM people")
        count = reader.scalar(f"AT EPOCH {epoch} SELECT COUNT(*) FROM people")
        assert count == 5


class TestHaving:
    def test_having_on_alias(self, people):
        result = people.execute(
            "SELECT age, COUNT(*) AS n FROM people WHERE age IS NOT NULL "
            "GROUP BY age HAVING n > 1 ORDER BY age"
        )
        assert result.rows == [(30, 2)]

    def test_having_on_group_column(self, people):
        result = people.execute(
            "SELECT age, COUNT(*) AS n FROM people WHERE age IS NOT NULL "
            "GROUP BY age HAVING age >= 30 ORDER BY age"
        )
        assert result.rows == [(30, 2), (35, 1)]

    def test_having_filters_everything(self, people):
        result = people.execute(
            "SELECT age, COUNT(*) AS n FROM people GROUP BY age HAVING n > 99"
        )
        assert result.rows == []

    def test_having_inside_view(self, people):
        people.execute(
            "CREATE VIEW frequent AS SELECT age, COUNT(*) AS n FROM people "
            "WHERE age IS NOT NULL GROUP BY age HAVING n > 1"
        )
        assert people.execute("SELECT * FROM frequent").rows == [(30, 2)]


# ------------------------------------------------- the storage/operator seam
small_hash = st.integers(min_value=0, max_value=15)
hash_ranges = st.one_of(
    st.just((0, HASH_SPACE)),
    st.tuples(small_hash, small_hash).filter(lambda r: r[0] < r[1]),
    st.tuples(small_hash, st.just(HASH_SPACE)),
)


class TestValueWidths:
    @pytest.mark.parametrize("values", [
        [1, 2.5], [True, None], ["ab", "h\u00e9llo \u2603", ""], ["a", None],
        [1, "a", None, True, 2.5], [],
    ])
    def test_a_column_is_sized_as_its_values_are(self, values):
        widths = _value_widths(values)
        if isinstance(widths, int):
            widths = [widths] * len(values)
        assert widths == [_value_bytes(value) for value in values]


#: values of each kind a stored column can hold: huge ints, NaN and
#: infinities, ASCII, non-ASCII and unencodable (lone surrogate) strings
KIND_VALUES = {
    int: st.integers(-(2**70), 2**70),
    float: st.floats(),
    bool: st.booleans(),
    type(None): st.none(),
    str: st.one_of(
        st.text(alphabet="abc", max_size=4), st.text(max_size=4),
        st.sampled_from(["h\u00e9\u2603", "\ud800", "a\udfffb"]),
    ),
}


def charged(out_columns, kinds, nodes):
    """``ProjectOp._charge_output``'s per-node charges, or what it raised."""
    project = ProjectOp(None, None, None)
    try:
        project._charge_output(out_columns, kinds, nodes)
    except Exception as error:  # noqa: BLE001 - compared structurally
        return type(error), str(error)
    cost = project.cost
    return (cost.rows_output, cost.bytes_output, list(cost.node_rows_output.items()),
            list(cost.node_output_bytes.items()))


class TestChargedBytesByKind:
    """A column's stored kind sizes it without looking at each value; the
    bytes charged are those of sizing every value (``_value_widths``)."""

    @given(
        data=st.data(),
        runs=st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 4)),
                      max_size=5),
        width=st.integers(0, 4),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_kinds_never_change_a_charged_byte(self, data, runs, width):
        nodes = [node for node, size in runs for __ in range(size)]
        columns = []
        for __ in range(width):
            if data.draw(st.booleans()):  # one kind throughout
                values = KIND_VALUES[data.draw(st.sampled_from(list(KIND_VALUES)))]
            else:
                values = st.one_of(*KIND_VALUES.values())
            columns.append(data.draw(st.lists(
                values, min_size=len(nodes), max_size=len(nodes)
            )))
        kinds = []
        for column in columns:
            types = set(map(type, column))
            kinds.append(types.pop() if len(types) == 1 else None)
        assert charged(columns, kinds, nodes) == charged(
            columns, [None] * width, nodes
        )

    def test_an_unencodable_string_raises_what_sizing_it_raised(self):
        nodes = ["a", "a", "b"]
        columns = [[1, 2, 3], ["ok", "h\u00e9", "\ud800"], ["\ud800x", "", ""]]
        with pytest.raises(UnicodeEncodeError) as raised:
            _value_widths(columns[1])
        assert charged(columns, [int, str, str], nodes) == (
            UnicodeEncodeError, str(raised.value)
        )


class TestScanSlices:
    """``Engine.scan``'s column slices against the per-row definition."""

    @given(
        rows=st.lists(
            # (delete epoch; 0 = live, row hash, staged for delete by the reader)
            st.tuples(st.integers(0, 6), small_hash, st.booleans()),
            max_size=12,
        ),
        commit_epoch=st.integers(1, 6),
        snapshot=st.integers(1, 6),
        staged=st.lists(small_hash, max_size=3),
        hash_range=hash_ranges,
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_slices_equal_brute_force(
        self, rows, commit_epoch, snapshot, staged, hash_range
    ):
        db = VerticaDatabase(num_nodes=1)
        node = db.node_names[0]
        db.connect().execute(
            "CREATE TABLE t (a INTEGER, b INTEGER) SEGMENTED BY HASH(a) ALL NODES"
        )
        container = RosContainer(
            ["A", "B"],
            [list(range(len(rows))), [10 * i for i in range(len(rows))]],
            commit_epoch,
            row_hashes=[row_hash for __, row_hash, __ in rows],
        )
        container.delete_epochs = [deleted for deleted, __, __ in rows]
        db.storage[node].add_container("T", container)
        txn = db.begin()
        for index, (__, __, self_deleted) in enumerate(rows):
            if self_deleted:
                txn.stage_delete(container, index)
        for position, row_hash in enumerate(staged):
            txn.wos_for("T", node, ["A", "B"]).extend(
                [[-position], [None]], [row_hash]
            )

        lo, hi = hash_range
        scanned, expected = 0, []
        for index, (deleted, row_hash, self_deleted) in enumerate(rows):
            visible = commit_epoch <= snapshot and (deleted == 0 or deleted > snapshot)
            if visible and not self_deleted:
                scanned += 1
                if lo <= row_hash < hi:
                    expected.append((index, 10 * index))
        for position, row_hash in enumerate(staged):
            scanned += 1
            if lo <= row_hash < hi:
                expected.append((-position, None))

        cost = CostReport()
        slices = list(
            db.engine.scan("T", snapshot, txn, node, HashRange(lo, hi), cost)
        )
        assert [row for batch in slices for row in batch.rows()] == expected
        assert cost.rows_scanned == scanned  # counted *before* the hash filter
        assert cost.node_rows_scanned == ({node: scanned} if scanned else {})
        for batch in slices:
            assert batch.names == ["A", "B"] and set(batch.nodes) == {node}
            if batch.container is not None:  # ROS: the location is the row
                assert batch.container is container
                for position, index in enumerate(batch.row_ids):
                    located = tuple(column[index] for column in container.columns)
                    assert located == batch.rows()[position]


#: pushed ``column <op> literal`` filters over containers without deletes:
#: the scan's selector reads the stored lists themselves
SELECTED_MATRIX = [
    "SELECT id, name FROM people WHERE age >= 18",
    "SELECT p.id, p.score FROM people p WHERE p.score < 50.0",
    "SELECT * FROM people WHERE name <> 'bob' ORDER BY id",
]


def test_operators_never_mutate_storage_lists(
    matrix_db, join_db, selector_reads  # noqa: F811
):
    """No operator aliased a ROS column list and then wrote through it."""

    def storage_lists(db):
        return [
            (container, [(column, list(column)) for column in container.columns])
            for storage in db.storage.values()
            for held in (storage.containers, storage.replicas)
            for containers in held.values()
            for container in containers
        ]

    before = storage_lists(matrix_db) + storage_lists(join_db)
    assert before
    for db, statements in (
        (matrix_db, MATRIX + SELECTED_MATRIX), (join_db, JOIN_MATRIX)
    ):
        session = db.connect()
        for sql in statements:
            try:
                session.execute(sql)
            except SqlError:
                pass  # the matrices include error-path statements
    read = set(map(id, selector_reads))
    assert read & {id(column) for __, columns in before for column, __ in columns}
    for container, columns in before:
        assert len(container.columns) == len(columns)
        for (column, contents), now in zip(columns, container.columns):
            assert now is column and now == contents
