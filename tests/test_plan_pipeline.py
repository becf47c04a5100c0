"""Tests for the layered plan pipeline: binder, optimizer, EXPLAIN, PROFILE.

The differential suite (``test_plan_differential``) proves the pipeline's
*answers* equal the legacy interpreter's; this file tests the pipeline's
own surface — the logical tree the binder builds, which optimizer rules
fire, what EXPLAIN/PROFILE render, how per-operator stats reconcile with
the CostReport, and the ``ResultSet.scalar()`` error contract.
"""

import pytest

from repro import telemetry
from repro.telemetry import MetricsRegistry
from repro.vertica import VerticaDatabase
from repro.vertica.engine import ResultSet
from repro.vertica.errors import SqlError, VerticaError
from repro.vertica.plan import bind_select, optimize
from repro.vertica.plan import logical
from repro.vertica.plan.optimizer import (
    RULE_CONSTANT_FOLDING,
    RULE_HASH_RANGE,
    RULE_JOIN_STRATEGY,
    RULE_PREDICATE_PUSHDOWN,
    RULE_PROJECTION_PRUNING,
    fold_expression,
)
from repro.vertica.sql.parser import parse_statement


@pytest.fixture
def db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE t (a INTEGER, b FLOAT, c VARCHAR(10)) "
        "SEGMENTED BY HASH(a) ALL NODES"
    )
    session.execute(
        "INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i}.5, 'n{i % 5}')" for i in range(40)
        )
    )
    return database


def bound_plan(db, sql):
    statement = parse_statement(sql)
    return optimize(bind_select(db, statement), db)


def plan_text(session, sql):
    return "\n".join(r[0] for r in session.execute(sql).rows)


class TestBinderShape:
    def test_select_tree_shape(self, db):
        plan = bound_plan(
            db, "SELECT a FROM t WHERE b > 1.0 ORDER BY a LIMIT 5"
        )
        kinds = [type(n).__name__ for n in plan.nodes()]
        assert kinds == ["Limit", "Sort", "Project", "TableScan"]

    def test_aggregate_tree_shape(self, db):
        plan = bound_plan(db, "SELECT a, COUNT(*) FROM t GROUP BY a")
        kinds = [type(n).__name__ for n in plan.nodes()]
        assert kinds == ["Aggregate", "TableScan"]

    def test_output_columns_precede_folding(self, db):
        plan = bound_plan(db, "SELECT 1 + 2 FROM t")
        # Constant folding rewrites the expression but must not rename
        # the output column the binder derived from the original SQL.
        assert plan.output_columns == ["(1 + 2)"]
        assert RULE_CONSTANT_FOLDING in plan.rules_applied

    def test_join_is_left_deep(self, db):
        session = db.connect()
        session.execute("CREATE TABLE u (x INTEGER) UNSEGMENTED ALL NODES")
        plan = bound_plan(db, "SELECT a, x FROM t JOIN u ON a = x")
        join = next(
            n for n in plan.nodes() if isinstance(n, logical.Join)
        )
        assert isinstance(join.left, logical.TableScan)
        assert isinstance(join.right, logical.TableScan)
        assert join.right.key == "U"


class TestOptimizerRules:
    def test_predicate_pushdown_fires(self, db):
        plan = bound_plan(db, "SELECT a FROM t WHERE b > 1.0")
        assert RULE_PREDICATE_PUSHDOWN in plan.rules_applied
        scan = next(n for n in plan.nodes() if isinstance(n, logical.TableScan))
        assert scan.predicate is not None
        # The Filter node collapsed into the scan.
        assert not any(isinstance(n, logical.Filter) for n in plan.nodes())

    def test_projection_pruning_fires(self, db):
        plan = bound_plan(db, "SELECT a FROM t WHERE b > 1.0")
        assert RULE_PROJECTION_PRUNING in plan.rules_applied
        scan = next(n for n in plan.nodes() if isinstance(n, logical.TableScan))
        assert scan.columns == ["A", "B"]

    def test_star_disables_pruning(self, db):
        plan = bound_plan(db, "SELECT * FROM t WHERE b > 1.0")
        assert RULE_PROJECTION_PRUNING not in plan.rules_applied

    def test_synthetic_hash_disables_pruning(self, db):
        plan = bound_plan(db, "SELECT a FROM t WHERE SYNTHETIC_HASH() >= 0")
        assert RULE_PROJECTION_PRUNING not in plan.rules_applied

    def test_pruning_is_per_scan(self, db):
        # A whole-row reader keeps every column of the scans below it
        # only: the scan joined above it is still pruned.
        session = db.connect()
        session.execute("CREATE TABLE u (x INTEGER, y INTEGER)")
        session.execute("CREATE TABLE w (z INTEGER, note VARCHAR(5), n FLOAT)")
        plan = bound_plan(
            db,
            "SELECT note FROM t JOIN u ON a = x AND SYNTHETIC_HASH() <> 0 "
            "JOIN w ON a = z",
        )
        assert RULE_PROJECTION_PRUNING in plan.rules_applied
        scans = {
            n.key: n.columns for n in plan.nodes() if isinstance(n, logical.TableScan)
        }
        assert scans == {"T": None, "U": None, "W": ["Z", "NOTE"]}

    def test_hash_range_tightening_fires(self, db):
        segment = db.catalog.table("t").ring.segments[1]
        plan = bound_plan(
            db,
            f"SELECT a FROM t WHERE HASH(a) >= {segment.lo} "
            f"AND HASH(a) < {segment.hi}",
        )
        assert RULE_HASH_RANGE in plan.rules_applied
        scan = next(n for n in plan.nodes() if isinstance(n, logical.TableScan))
        assert (scan.hash_range.lo, scan.hash_range.hi) == (
            segment.lo, segment.hi,
        )

    def test_constant_folding_preserves_errors(self, db):
        folded, changed = fold_expression(
            parse_statement("SELECT 1 / 0 FROM t").items[0].expression
        )
        # Division by zero must stay unfolded and raise at execution.
        assert not changed
        session = db.connect()
        with pytest.raises(SqlError):
            session.execute("SELECT 1 / 0 FROM t")

    def test_constant_folding_surfaces_programming_bugs(self, db):
        # "Evaluation raised, leave unfolded" applies only to the
        # engine's own SqlErrors (1/0, type-mismatched operands).  A bug
        # in an Expression — a malformed evaluate raising TypeError —
        # must propagate out of the fold, not be masked as "unfoldable".
        from repro.vertica.expr import BinaryOp, Literal

        class BrokenLiteral(Literal):
            def evaluate(self, row):
                raise TypeError("malformed evaluate")

        with pytest.raises(TypeError, match="malformed evaluate"):
            fold_expression(BinaryOp("+", Literal(1), BrokenLiteral(2)))

    def test_mixed_type_arithmetic_is_a_sql_error(self, db):
        # Adding an integer to a string is the *user's* error: it folds
        # to "leave unfolded" at plan time and raises SqlError (never a
        # raw TypeError) when a row actually evaluates it.
        folded, changed = fold_expression(
            parse_statement("SELECT 1 + 'x' FROM t").items[0].expression
        )
        assert not changed
        session = db.connect()
        with pytest.raises(SqlError, match="invalid operands"):
            session.execute("SELECT 1 + 'x' FROM t")

    def test_filter_stays_above_view(self, db):
        session = db.connect()
        session.execute("CREATE VIEW v AS SELECT a, b FROM t")
        plan = bound_plan(db, "SELECT a FROM v WHERE a > 3")
        assert any(isinstance(n, logical.Filter) for n in plan.nodes())
        assert RULE_PREDICATE_PUSHDOWN not in plan.rules_applied


class TestExplain:
    def test_explain_lists_fired_rules(self, db):
        session = db.connect()
        plan = plan_text(session, "EXPLAIN SELECT a FROM t WHERE b > 1.0")
        assert "OPTIMIZER:" in plan
        assert RULE_PREDICATE_PUSHDOWN in plan
        assert RULE_PROJECTION_PRUNING in plan

    def test_explain_shows_pushed_filter_and_pruned_columns(self, db):
        session = db.connect()
        plan = plan_text(session, "EXPLAIN SELECT a FROM t WHERE b > 1.0")
        assert "FILTER: (B > 1.0) [pushed into scan]" in plan
        assert "columns: A, B [pruned]" in plan

    def test_explain_is_indented_tree(self, db):
        session = db.connect()
        plan = session.execute(
            "EXPLAIN SELECT a FROM t ORDER BY a LIMIT 3"
        )
        lines = [r[0] for r in plan.rows]
        assert plan.columns == ["QUERY_PLAN"]
        assert lines[0].startswith("LIMIT: 3")
        assert lines[1].startswith("  SORT: A")
        assert lines[2].startswith("    PROJECT: A")


class TestProfile:
    def test_profile_runs_query_and_reports_operators(self, db):
        session = db.connect()
        report = session.execute("PROFILE SELECT a FROM t WHERE b > 1.0")
        assert report.columns == ["PROFILE"]
        assert report.query_result is not None
        assert len(report.query_result.rows) == 39  # b = 0.5 filtered out
        kinds = [kind for kind, __, __ in report.profile.operator_rows()]
        assert kinds == ["project", "scan"]

    def test_profile_rows_reconcile_with_cost(self, db):
        session = db.connect()
        report = session.execute("PROFILE SELECT a, b, c FROM t")
        cost = report.cost
        stats = {
            kind: (rows_in, rows_out)
            for kind, rows_in, rows_out in report.profile.operator_rows()
        }
        # Scan visited exactly the rows the CostReport charged, and the
        # projection emitted exactly the rows the CostReport output.
        assert stats["scan"][1] == cost.rows_scanned == 40
        assert stats["project"][1] == cost.rows_output == 40
        assert "COST: rows scanned: 40" in "\n".join(
            r[0] for r in report.rows
        )

    def test_profile_aggregate_reconciles(self, db):
        session = db.connect()
        report = session.execute(
            "PROFILE SELECT c, COUNT(*) FROM t GROUP BY c"
        )
        stats = dict(
            (kind, (rows_in, rows_out))
            for kind, rows_in, rows_out in report.profile.operator_rows()
        )
        assert stats["aggregate"][0] == report.cost.rows_aggregated == 40
        assert stats["aggregate"][1] == len(report.query_result.rows) == 5

    def test_profile_charges_like_the_query(self, db):
        session = db.connect()
        plain = session.execute("SELECT a FROM t").cost
        profiled = session.execute("PROFILE SELECT a FROM t").cost
        assert profiled.rows_scanned == plain.rows_scanned
        assert profiled.node_output_bytes == plain.node_output_bytes

    def test_plan_telemetry_counters(self, db):
        telemetry.install(MetricsRegistry(enabled=True))
        try:
            session = db.connect()
            session.execute("SELECT a FROM t")
            assert telemetry.counter("vertica.plan.scan.rows_out").value == 40.0
            assert telemetry.counter("vertica.plan.project.rows_out").value == 40.0
        finally:
            telemetry.reset()

    def test_profile_reconciles_with_cost_and_v2s_telemetry(self):
        """PROFILE operator rows == CostReport == V2S fabric telemetry."""
        from repro.bench.areas.scan_throughput import QUERIES, load_scan_table
        from repro.connector import SimVerticaCluster
        from repro.sim import Environment
        from repro.spark import SparkSession

        rows = 2_000
        env = Environment()
        vc = SimVerticaCluster(env=env, num_nodes=4)
        spark = SparkSession(env=env, cluster=vc.sim_cluster, num_workers=4)
        session = vc.db.connect()
        load_scan_table(session, rows)

        telemetry.install(MetricsRegistry(enabled=True))
        try:
            # PROFILE the grouped aggregation: operator stats vs CostReport.
            report = session.execute("PROFILE " + QUERIES["grouped_agg"])
            stats = {
                kind: (rows_in, rows_out)
                for kind, rows_in, rows_out in report.profile.operator_rows()
            }
            assert stats["scan"][1] == report.cost.rows_scanned == rows
            assert stats["aggregate"][0] == report.cost.rows_aggregated == rows
            assert stats["aggregate"][1] == len(report.query_result.rows) == 37
            # The same rows flowed into the plan-level telemetry counters.
            assert telemetry.counter("vertica.plan.scan.rows_out").value == rows
            assert (
                telemetry.counter("vertica.plan.aggregate.rows_out").value == 37
            )

            # V2S read of the same table: the connector's fetch counter must
            # agree with what a profiled full scan says the table holds.
            df = (
                spark.read.format("vertica")
                .options({"db": vc, "table": "big", "numpartitions": 4})
                .load()
            )
            assert len(df.collect()) == rows
            assert telemetry.counter("v2s.rows_fetched").value == rows
        finally:
            telemetry.reset()


class TestScalarContract:
    def test_scalar_on_empty_result_raises_vertica_error(self, db):
        session = db.connect()
        result = session.execute("SELECT a FROM t WHERE a > 999")
        with pytest.raises(VerticaError, match="empty result"):
            result.scalar()

    def test_scalar_on_multi_column_result_raises(self):
        result = ResultSet(["A", "B"], [(1, 2)])
        with pytest.raises(VerticaError, match="1x2"):
            result.scalar()

    def test_scalar_on_multi_row_result_raises(self):
        result = ResultSet(["A"], [(1,), (2,)])
        with pytest.raises(VerticaError, match="2x1"):
            result.scalar()

    def test_scalar_never_raises_index_error(self):
        try:
            ResultSet([], []).scalar()
        except VerticaError:
            pass

    def test_scalar_happy_path(self, db):
        session = db.connect()
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 40


class TestJoinStrategies:
    @pytest.fixture
    def join_db(self, db):
        session = db.connect()
        session.execute(
            "CREATE TABLE s (a2 INTEGER, d VARCHAR(10)) "
            "SEGMENTED BY HASH(a2) ALL NODES"
        )
        session.execute(
            "INSERT INTO s VALUES "
            + ", ".join(f"({i}, 'm{i}')" for i in range(10))
        )
        return db

    def _join_stats(self, report):
        rows = {
            kind: (rows_in, rows_out)
            for kind, rows_in, rows_out in report.profile.operator_rows()
        }
        kind = next(k for k in rows if k.startswith("join"))
        return kind, rows[kind]

    def test_profile_join_counts_both_inputs(self, join_db):
        # Regression: the join operator used to charge only left-side
        # rows into rows_in; PROFILE must show left + right.
        session = join_db.connect()
        report = session.execute("PROFILE SELECT a, d FROM t JOIN s ON a = a2")
        __, (rows_in, rows_out) = self._join_stats(report)
        assert rows_in == 40 + 10
        assert rows_out == 10

    def test_profile_nested_loop_join_counts_both_inputs(self, join_db):
        session = join_db.connect()
        report = session.execute("PROFILE SELECT a, d FROM t JOIN s ON a = a2 + 0")
        kind, (rows_in, __) = self._join_stats(report)
        assert kind == "join"
        assert rows_in == 40 + 10

    def test_explain_colocated_hash_join_with_estimates(self, join_db):
        # Acceptance: identically segmented equi-join plans a co-located
        # hash join with estimated rows printed per operator.
        session = join_db.connect()
        session.execute("ANALYZE t")
        session.execute("ANALYZE s")
        plan = plan_text(session, "EXPLAIN SELECT a, d FROM t JOIN s ON a = a2")
        # the build side is observed at run time, so EXPLAIN names none
        assert "[hash join, keys decide, co-located]" in plan
        assert "build:" not in plan
        assert "(estimated rows:" in plan
        assert RULE_JOIN_STRATEGY in plan

    @pytest.mark.parametrize("sql, build", [
        ("SELECT a, d FROM t JOIN s ON a = a2", "right"),  # 40 x 10 rows
        ("SELECT a, d FROM s JOIN t ON a2 = a", "left"),  # 10 x 40 rows
    ])
    def test_profile_shows_the_observed_build_side(self, join_db, sql, build):
        session = join_db.connect()
        session.execute("ANALYZE t")  # estimates play no part in the choice
        report = session.execute(f"PROFILE {sql}")
        (line,) = [r[0] for r in report.rows if r[0].startswith("  JOIN")]
        assert f"[hash join, build: {build}, keys decide, co-located]" in line

    def test_profile_estimates_and_zero_shuffle_when_colocated(self, join_db):
        session = join_db.connect()
        session.execute("ANALYZE t")
        session.execute("ANALYZE s")
        report = session.execute("PROFILE SELECT a, d FROM t JOIN s ON a = a2")
        lines = [r[0] for r in report.rows]
        assert any("est rows:" in line for line in lines)
        # Co-located join moves no build rows across nodes.
        (join_line,) = [line for line in lines if line.startswith("  JOIN")]
        assert "rows shuffled" not in join_line
        assert lines[-1].endswith(", rows shuffled: 0")

    def test_profile_shuffle_nonzero_when_not_colocated(self, join_db):
        # Same ring but segmented on a non-key column: every build row
        # must reach the probe nodes it does not already live on.
        session = join_db.connect()
        session.execute(
            "CREATE TABLE s2 (a3 INTEGER, z INTEGER) "
            "SEGMENTED BY HASH(z) ALL NODES"
        )
        session.execute(
            "INSERT INTO s2 VALUES "
            + ", ".join(f"({i}, {100 - i})" for i in range(10))
        )
        report = session.execute("PROFILE SELECT a, z FROM t JOIN s2 ON a = a3")
        text = "\n".join(r[0] for r in report.rows)
        assert "hash join" in text
        assert "co-located" not in text
        assert "rows shuffled: " in text

    def test_profile_over_a_join_view_shows_what_the_view_did(self, join_db):
        session = join_db.connect()
        session.execute(
            "CREATE TABLE u (a2 INTEGER, z INTEGER) SEGMENTED BY HASH(z) ALL NODES"
        )
        session.execute(
            "INSERT INTO u VALUES "
            + ", ".join(f"({i}, {100 - i})" for i in range(10))
        )
        session.execute("CREATE VIEW jv AS SELECT a, z FROM t JOIN u ON a = a2")
        telemetry.install(MetricsRegistry(enabled=True))
        try:
            report = session.execute("PROFILE SELECT * FROM jv")
            shuffled = telemetry.counter("vertica.plan.join.rows_shuffled")
            assert shuffled.value == 30  # once, by the view's join
        finally:
            telemetry.reset()
        lines = [r[0] for r in report.rows]
        (view_line,) = [line for line in lines if "SCAN VIEW JV" in line]
        assert "rows scanned: 50," in view_line
        assert "rows shuffled: 30," in view_line
        assert lines[-1].endswith(
            "rows output: 20, bytes output: 320, rows written: 0, "
            "rows shuffled: 30"
        )
        # the view's own query charges the same shuffle
        alone = session.execute("PROFILE SELECT a, z FROM t JOIN u ON a = a2")
        assert alone.cost.rows_shuffled == report.cost.rows_shuffled == 30

    @pytest.mark.parametrize(
        "algorithm, condition, pairs, label",
        [
            ("hash", "a = a2", 10, "keys decide"),  # key-equal: decided
            ("hash", "a = a2 AND a < 5", 10, "hash join"),  # residual: validated
            ("nested-loop", "a = a2", 400, "nested-loop join"),  # every pair
        ],
    )
    def test_profile_counts_candidate_pairs(
        self, join_db, algorithm, condition, pairs, label
    ):
        session = join_db.connect()
        if algorithm == "nested-loop":  # no equi key: the planner nested-loops
            condition += " + 0"
        report = session.execute(f"PROFILE SELECT a, d FROM t JOIN s ON {condition}")
        (line,) = [r[0] for r in report.rows if r[0].startswith("  JOIN")]
        assert label in line
        assert ("keys decide" in line) == (label == "keys decide")
        assert f"candidate pairs: {pairs}," in line
