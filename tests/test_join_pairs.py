"""The join operator's seams: pair sources, late materialization, NaN keys.

``plan/physical.py`` finds a join's candidates as two parallel row-index
sequences and gathers a column only once something needs it.  The
differential suites say the *statements* still answer like the oracle;
these tests hold the pieces to their own contracts:

- the pair sources list exactly the key-equal pairs, in the nested
  loop's left-major order, whichever side builds (the observed-unique
  probe and the bucketed path included);
- a NaN key matches nothing in either join (a dict would pair one NaN
  object with itself) and ``ANALYZE`` survives a column holding one;
- validation gathers the condition's columns only — a join that keeps no
  candidate never touches another column — unless the condition calls
  ``SYNTHETIC_HASH``, which reads them all;
- a join validates its candidates unless its keys decide: a residual
  conjunct, a mixed-class key pair or the nested loop still does;
- a reordered chain gathers, below its root, only the key columns of the
  joins above; the root gathers each column the query reads once more,
  for the output rows, and no other;
- executing a cached plan (a reordered chain and a build on the side no
  estimate picked included) leaves the logical nodes the plan cache
  shares exactly as the optimizer left them.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica import VerticaDatabase
from repro.vertica.batch import ColumnBatch
from repro.vertica.expr import Expression
from repro.vertica.plan import physical
from repro.vertica.plan.logical import LogicalNode
from repro.vertica.plan.pipeline import (
    PipelineExecution,
    build_operator,
    optimized_plan,
)
from repro.vertica.sql.parser import parse_statement
from tests.reference_interpreter import LegacyInterpreter
from tests.test_adaptive_execution import (
    FIVE_WAY,
    JOIN_SQL,
    make_misestimated_db,
    make_star_db,
)
from tests.test_plan_differential import assert_identical
from tests.test_plan_differential import join_db  # noqa: F401 - fixture


# ------------------------------------------------------------- pair sources
#: NULLs, duplicates, ``1`` beside ``1.0`` (equal, and hashed alike), a NaN
key_values = st.one_of(
    st.none(),
    st.integers(0, 3),
    st.sampled_from([1.0, 2.0, 2.5, math.nan]),
)


@st.composite
def key_columns(draw, unique_right=False):
    """(left key columns, right key columns): 1–2 columns, 0–12 rows each."""
    width = draw(st.integers(1, 2))
    row = st.tuples(*[key_values] * width)
    left = draw(st.lists(row, max_size=12))
    right = draw(st.lists(row, max_size=12, unique=unique_right))
    return (
        [list(column) for column in zip(*left)] or [[] for __ in range(width)],
        [list(column) for column in zip(*right)] or [[] for __ in range(width)],
    )


def keys_of(columns):
    names = [f"K{i}" for i in range(len(columns))]
    batch = ColumnBatch(names, columns, ["n"] * len(columns[0]))
    return physical._join_keys({0: (0, range(batch.num_rows), batch)}, 0, names)


def brute_force(left, right):
    """Every (left row, right row) whose keys are equal column by column —
    ``==`` on the values themselves, so NULL and NaN equal nothing — in the
    nested loop's order."""
    pairs = [
        (i, j)
        for i, left_key in enumerate(zip(*left))
        for j, right_key in enumerate(zip(*right))
        if all(
            a is not None and b is not None and a == b
            for a, b in zip(left_key, right_key)
        )
    ]
    return [i for i, __ in pairs], [j for __, j in pairs]


def listed(pair_rows):
    left_rows, right_rows = pair_rows
    return list(left_rows), list(right_rows)


class TestPairSources:
    @given(columns=key_columns())
    @settings(max_examples=300, deadline=None)
    def test_every_source_lists_the_key_equal_pairs_left_major(self, columns):
        left, right = columns
        want = brute_force(left, right)
        left_keys, right_keys = keys_of(left), keys_of(right)
        assert listed(physical._hash_pairs(left_keys, right_keys, False)) == want
        assert listed(physical._hash_pairs(left_keys, right_keys, True)) == want

    @given(columns=key_columns(unique_right=True))
    @settings(max_examples=300, deadline=None)
    def test_unique_probe_agrees_with_the_bucketed_path(self, columns):
        # Distinct right rows may still repeat a key (``1`` and ``1.0``, a
        # NULL or NaN beside anything): uniqueness is observed on the keys.
        left, right = columns
        left_keys, right_keys = keys_of(left), keys_of(right)
        probed = listed(physical._hash_pairs(left_keys, right_keys, False))
        assert probed == listed(physical._hash_pairs(left_keys, right_keys, True))
        assert probed == brute_force(left, right)

    def test_a_foreign_key_probe_is_a_range_over_the_left_rows(self):
        # Every left row finds its one match: the left pair rows are the
        # unit range, which `gather` turns into slices.
        left_rows, right_rows = physical._hash_pairs([2, 0, 1, 2], [0, 1, 2], False)
        assert left_rows == range(4)
        assert right_rows == [2, 0, 1, 2]

    def test_a_single_column_key_is_the_column_itself(self):
        column = [3, None, 1]
        assert keys_of([column]) is column

    def test_nan_keys_are_null_keys(self):
        assert keys_of([[1.0, math.nan, None]]) == [1.0, None, None]
        assert keys_of([[1, 2], [math.nan, 5.0]]) == [None, (2, 5.0)]


# ------------------------------------------------------------------ NaN keys
def nan_db(seed):
    """12-row ``t(id, f)`` and ``u(id, g)``, about 30 % of f and g NaN.

    SQL text has no NaN literal; Avro doubles carry one through S2V and
    land, as here, through ``Engine.insert_rows``.
    """
    rng = random.Random(seed)
    db = VerticaDatabase(num_nodes=3)
    session = db.connect()
    for table, column in (("t", "f"), ("u", "g")):
        session.execute(
            f"CREATE TABLE {table} (id INTEGER, {column} FLOAT) "
            "SEGMENTED BY HASH(id) ALL NODES"
        )
        values = [
            math.nan if rng.random() < 0.3 else float(rng.randrange(4))
            for __ in range(12)
        ]
        txn = db.begin()
        db.engine.insert_rows(table.upper(), [list(range(12)), values], txn)
        txn.commit(db.storage)
    return db


NAN_JOINS = [
    "SELECT t.id, u.id FROM t JOIN u ON f = g",
    "SELECT t.id, u.id FROM t JOIN u ON f = g AND t.id = u.id",
    # the same matches with no equi key: the nested loop
    "SELECT t.id, u.id FROM t JOIN u ON f = g + 0",
    "SELECT t.id, u.id FROM t JOIN u ON f = g + 0 AND t.id = u.id + 0",
]


class TestNanKeys:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("sql", NAN_JOINS)
    def test_nan_matches_nothing_under_every_strategy(self, sql, seed):
        assert_identical(nan_db(seed), sql)

    def test_hash_join_keeps_the_real_matches(self):
        with nan_db(0).connect() as session:
            hashed = session.execute(NAN_JOINS[0]).rows
            looped = session.execute(NAN_JOINS[2]).rows
        assert hashed == looped
        assert len(hashed) == 20

    def test_analyze_survives_nan(self):
        db = nan_db(0)
        session = db.connect()
        session.execute("ANALYZE t")
        session.execute("ANALYZE u")
        stats = db.catalog.statistics["T"].column("F")
        finite = [
            v for (v,) in session.execute("SELECT f FROM t").rows if v == v
        ]
        assert 0 < len(finite) < 12
        # a NaN is a non-NULL row, but no bound and in no bucket
        assert (stats.row_count, stats.null_count) == (12, 0)
        assert (stats.min_value, stats.max_value) == (min(finite), max(finite))
        assert stats.ndv == len(set(finite))
        assert sum(bucket.count for bucket in stats.histogram) == len(finite)
        # and what it feeds still plans, and answers like the oracle
        assert_identical(db, NAN_JOINS[0])
        assert_identical(db, NAN_JOINS[2])
        assert_identical(db, "SELECT id, f FROM t WHERE f > 1.0")
        assert_identical(db, "SELECT id FROM u WHERE g <= 2.0 ORDER BY id")

    def test_analyze_survives_infinities(self):
        db = VerticaDatabase(num_nodes=2)
        session = db.connect()
        session.execute(
            "CREATE TABLE w (id INTEGER, x FLOAT) SEGMENTED BY HASH(id) ALL NODES"
        )
        txn = db.begin()
        db.engine.insert_rows(
            "W", [[0, 1, 2, 3], [-math.inf, 1.0, 3.0, math.inf]], txn
        )
        txn.commit(db.storage)
        session.execute("ANALYZE w")
        stats = db.catalog.statistics["W"].column("X")
        assert (stats.min_value, stats.max_value) == (-math.inf, math.inf)
        assert sum(bucket.count for bucket in stats.histogram) == 2
        assert_identical(db, "SELECT id FROM w WHERE x > 2.0")


# ------------------------------------------------------ late materialization
class GatherSpy:
    """Which lists ``physical.gather`` read, and which batches joins saw."""

    def __init__(self, monkeypatch):
        #: list id -> how many values were gathered from it
        self.gathered = Counter()
        self.inputs = []
        gather, concat = physical.gather, physical._concat

        def spying_gather(values, indices):
            self.gathered[id(values)] += len(indices)
            return gather(values, indices)

        def spying_concat(batches):
            self.inputs.append(concat(batches))
            return self.inputs[-1]

        monkeypatch.setattr(physical, "gather", spying_gather)
        monkeypatch.setattr(physical, "_concat", spying_concat)

    def untouched(self, named):
        """Names of the join inputs' lists (``nodes`` too) never gathered,
        and whether every column in ``named`` was."""
        missed, read = set(), set()
        for batch in self.inputs:
            lists = dict(zip(batch.names, batch.columns), nodes=batch.nodes)
            for name, values in lists.items():
                (read if id(values) in self.gathered else missed).add(name)
        assert named <= read, f"condition columns not gathered: {named - read}"
        return missed


#: four relations; the selective dim written last is reordered to join first
SELECTIVE_LAST = (
    "SELECT v, a_val, d_val FROM f JOIN dima ON ka = a_id "
    "JOIN dimb ON kb = b_id JOIN dimd ON kd = d_id WHERE d_val > 1"
)


class TestLateMaterialization:
    @pytest.mark.parametrize("key", ["k2", "k2 + 0"], ids=["hash", "nested-loop"])
    def test_a_join_that_keeps_nothing_gathers_the_condition_only(
        self, join_db, monkeypatch, key
    ):
        spy = GatherSpy(monkeypatch)
        with join_db.connect() as session:
            result = session.execute(
                f"SELECT v, label FROM fact JOIN dim ON k = {key} AND v < 0.0"
            )
        assert result.rows == []
        assert len(spy.inputs) == 2
        # (FACT.K is K's own list, so it counts as read with it)
        assert spy.untouched({"K", "K2", "V"}) == {"LABEL", "DIM.LABEL", "nodes"}

    def test_survivors_gather_the_output_columns(self, join_db, monkeypatch):
        spy = GatherSpy(monkeypatch)
        rows = join_db.connect().execute(
            "SELECT v, label FROM fact JOIN dim ON k = k2 AND v < 2.0"
        ).rows
        assert rows
        assert spy.untouched({"K", "K2", "V", "LABEL", "nodes"}) <= {"nodes"}

    @pytest.mark.parametrize(
        "key", ["d.k2", "d.k2 + 0"], ids=["hash", "nested-loop"]
    )
    def test_synthetic_hash_in_the_condition_reads_the_whole_row(
        self, join_db, key
    ):
        legacy = LegacyInterpreter(join_db)
        hashes = legacy.select(
            parse_statement(
                "SELECT SYNTHETIC_HASH() FROM fact f JOIN dim d ON f.k = d.k2"
            ),
            join_db.begin(),
            join_db.node_names[0],
        ).rows
        assert hashes
        for (wanted,) in hashes[:2]:
            sql = (
                "SELECT v, label FROM fact f JOIN dim d "
                f"ON f.k = {key} AND SYNTHETIC_HASH() = {wanted}"
            )
            assert_identical(join_db, sql)
            assert join_db.connect().execute(sql).rows

    def test_a_reordered_chain_gathers_each_column_once_at_its_root(
        self, monkeypatch
    ):
        db = make_star_db()
        plan = optimized_plan(
            db.engine, db.plan_cache.parse(SELECTIVE_LAST, parse_statement)
        )
        spy = GatherSpy(monkeypatch)
        root = build_operator(
            db.engine, plan.root, db.begin(), db.node_names[0], db.epochs.current
        )
        rows = [row for batch in root.batches() for row in batch.rows()]
        chain = []
        op = root.children[0]
        while isinstance(op, physical.JoinOp):
            chain.append(op)
            op = op.left
        assert len(chain) == 3
        assert all(join.logical.reorder_chain for join in chain)
        assert chain[0].stats.rows_out == len(rows) > 0
        # each leaf column the query reads: once for the output rows; and
        # any leaf column once more for each join above the bottom one that
        # reads it as a left key
        assert chain[0].logical.read_above == {"V", "A_VAL", "D_VAL"}
        leaves = {name: batch.columns[i] for batch in spy.inputs
                  for i, name in enumerate(batch.names)}
        want = Counter({id(column): 0 for column in leaves.values()})
        for name in chain[0].logical.read_above:
            want[id(leaves[name])] += len(rows)
        for join in chain[:-1]:
            for left_ref, __ in join.logical.equi_keys:
                want[id(leaves[left_ref])] += join.left.stats.rows_out
        assert {i: spy.gathered[i] for i in want} == dict(want)

    def test_a_root_whose_picks_are_in_order_keeps_them(self, monkeypatch):
        # Unique dimension keys: each fact row survives at most once, so the
        # reordered chain's pairs already come in the binder's order and the
        # root emits the pair source's own lists, neither argsorted nor
        # re-gathered.  (Out-of-order picks are still sorted back:
        # test_adaptive_execution's duplicate-key case.)
        db = make_star_db()
        made, emitted = [], []
        hash_pairs, batched = physical._hash_pairs, physical._batched
        monkeypatch.setattr(
            physical, "_hash_pairs", lambda *args: made.append(hash_pairs(*args))
            or made[-1],
        )
        monkeypatch.setattr(
            physical, "_batched", lambda picks: emitted.append(picks)
            or batched(picks),
        )
        assert_identical(db, SELECTIVE_LAST)
        plan = [row[0] for row in db.connect().execute(
            f"EXPLAIN {SELECTIVE_LAST}"
        ).rows]
        assert any(line.startswith("JOIN ORDER: F x DIMD") for line in plan)
        # the root pairs last
        root_made, root_emitted = made[-1], emitted[-1]
        assert root_emitted[0] is root_made[0]
        assert root_emitted[1] is root_made[1]


    def test_a_root_whose_lead_ascends_keeps_its_picks(self, monkeypatch):
        # The fact (binder-leftmost) row i meets dima row n-1-i, so at the
        # root the lead relation's indices strictly ascend while dima's
        # descend: the lead alone shows the binder's order, and the root
        # emits the pair source's own lists.
        n = 12
        db = VerticaDatabase(num_nodes=2)
        session = db.connect()
        for ddl in (
            "CREATE TABLE f (ka INTEGER, kd INTEGER, v INTEGER)",
            "CREATE TABLE dima (a_id INTEGER, a_val INTEGER)",
            "CREATE TABLE dimd (d_id INTEGER, d_val INTEGER)",
        ):
            session.execute(ddl + " UNSEGMENTED ALL NODES")
        session.execute("INSERT INTO f VALUES " + ", ".join(
            f"({n - 1 - i}, {i % 5}, {i})" for i in range(n)
        ))
        session.execute("INSERT INTO dima VALUES " + ", ".join(
            f"({i}, {i * 10})" for i in range(n)
        ))
        session.execute("INSERT INTO dimd VALUES (0, 1), (1, 2)")
        for table in ("f", "dima", "dimd"):
            session.execute(f"ANALYZE {table}")
        sql = (
            "SELECT v, a_val, d_val FROM f JOIN dima ON ka = a_id "
            "JOIN dimd ON kd = d_id WHERE d_val > 1"
        )
        made, emitted = [], []
        hash_pairs, batched = physical._hash_pairs, physical._batched
        monkeypatch.setattr(
            physical, "_hash_pairs", lambda *args: made.append(hash_pairs(*args))
            or made[-1],
        )
        monkeypatch.setattr(
            physical, "_batched", lambda picks: emitted.append(picks)
            or batched(picks),
        )
        assert_identical(db, sql)
        plan = [row[0] for row in session.execute(f"EXPLAIN {sql}").rows]
        assert any(line.startswith("JOIN ORDER: F x DIMD") for line in plan)
        rows = session.execute(sql).rows
        assert [v for v, __, __ in rows] == [1, 6, 11]
        assert [a for __, a, __ in rows] == [100, 50, 0]
        root_made, root_emitted = made[-1], emitted[-1]
        assert root_emitted[0] is root_made[0]
        assert root_emitted[1] is root_made[1]


class TestValidation:
    """Which joins still validate, seen through a pair source that proposes
    every pair: a validating join filters them down to the oracle's rows, a
    key-decided one trusts them all."""

    VALIDATING = [
        "SELECT v, label FROM fact JOIN dim ON k = k2 AND v < 2.0",
        "SELECT v, label FROM fact JOIN dim ON k = label",
        "SELECT v, label FROM fact JOIN dim ON k = k2 + 0",
    ]

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        matching = physical._matching

        def spying_matching(batch, predicate):
            calls.append(batch.num_rows)
            return matching(batch, predicate)

        def every_pair(left_keys, right_keys, build_left):
            return physical._left_major([range(len(right_keys))] * len(left_keys))

        monkeypatch.setattr(physical, "_matching", spying_matching)
        monkeypatch.setattr(physical, "_hash_pairs", every_pair)
        return calls

    @pytest.mark.parametrize(
        "sql", VALIDATING, ids=["residual", "int-varchar", "nested-loop"]
    )
    def test_these_still_validate(self, join_db, spy, sql):
        assert_identical(join_db, sql)
        assert spy and sum(spy) == 35  # fact (7 rows) x dim (5 rows)

    def test_a_key_decided_join_does_not(self, join_db, spy):
        rows = join_db.connect().execute(
            "SELECT v, label FROM fact JOIN dim ON k = k2"
        ).rows
        assert spy == []
        assert len(rows) == 35


# ------------------------------------------------- cached plans stay pristine
def structure(plan):
    """Everything the plan's logical nodes hold, as comparable values:
    child nodes by position, expressions by their SQL text (the kernel an
    expression memoises is not structure), anything else as it is."""
    nodes = plan.nodes()
    position = {id(node): i for i, node in enumerate(nodes)}

    def freeze(value):
        if isinstance(value, LogicalNode):
            return ("node", position[id(value)])
        if isinstance(value, Expression):
            return ("expression", value.sql())
        if isinstance(value, (list, tuple)):
            return tuple(freeze(item) for item in value)
        return value

    return [
        (type(node).__name__, {k: freeze(v) for k, v in vars(node).items()})
        for node in nodes
    ]


def run_plan(db, plan):
    """Execute ``plan`` itself (not whatever the cache holds by now): its
    rows and whether any hash join built on its left input."""
    root = build_operator(
        db.engine, plan.root, db.begin(), db.node_names[0], db.epochs.current
    )
    rows = [row for batch in root.batches() for row in batch.rows()]
    return rows, any(
        getattr(op, "build_side", None) == "left"
        for __, op in PipelineExecution(plan, root).operators()
    )


class TestCachedPlansStayPristine:
    @pytest.mark.parametrize(
        "make_db, sql, reordered, builds_left",
        [
            (make_star_db, FIVE_WAY, True, False),
            (lambda: make_star_db(fact_rows=4), FIVE_WAY, True, True),
            (lambda: make_misestimated_db(grown=25), JOIN_SQL, False, True),
        ],
        ids=["reordered-chain", "reordered-chain-building-left", "build-left"],
    )
    def test_executing_a_cached_plan_leaves_it_unchanged(
        self, make_db, sql, reordered, builds_left
    ):
        db = make_db()
        statement = db.plan_cache.parse(sql, parse_statement)
        plan = optimized_plan(db.engine, statement)
        assert optimized_plan(db.engine, statement) is plan
        assert reordered == any(
            getattr(node, "reorder_chain", False) for node in plan.nodes()
        )
        before = structure(plan)
        first, built_left = run_plan(db, plan)
        assert built_left == builds_left
        assert structure(plan) == before
        again, __ = run_plan(db, plan)
        assert again == first and first
        assert structure(plan) == before
