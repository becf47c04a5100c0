"""Unit tests for the simulation bridge: how statements become time.

Uses small purpose-built cost models so each charge (latency, DDL
latency, plan CPU, producer caps, shuffle flows, virtual weight) is
observable in isolation on the simulated clock.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.connector import SimVerticaCluster, VerticaCostModel
from repro.connector.costmodel import PAPER_COST_MODEL, WIDE_ROW, Charge
from repro.sim import Environment
from repro.vertica.engine import CostReport


def make_cluster(**model_kwargs):
    env = Environment()
    cluster = SimVerticaCluster(
        env=env, num_nodes=2, cost_model=VerticaCostModel(**model_kwargs)
    )
    client = cluster.sim_cluster.add_node("client", nics={"default": 125e6})
    return env, cluster, client


def run(env, generator):
    return env.run(env.process(generator))


class TestLatencies:
    def test_connect_charged_once(self):
        env, cluster, client = make_cluster(connect_latency=0.5)

        def driver():
            conn = cluster.connect(client_node=client)
            yield from conn.execute("SELECT 1")
            yield from conn.execute("SELECT 1")
            conn.close()

        run(env, driver())
        assert env.now == pytest.approx(0.5)  # once, not twice

    def test_query_vs_ddl_latency(self):
        env, cluster, client = make_cluster(query_latency=0.1, ddl_latency=1.0)

        def driver():
            conn = cluster.connect(client_node=client)
            yield from conn.execute("CREATE TABLE t (a INTEGER)")
            mark = env.now
            yield from conn.execute("SELECT 1")
            conn.close()
            return mark

        ddl_done = run(env, driver())
        assert ddl_done == pytest.approx(1.0)
        assert env.now == pytest.approx(1.1)

    def test_commit_statements_are_light(self):
        env, cluster, client = make_cluster(query_latency=0.1, query_plan_cpu=5.0)

        def driver():
            conn = cluster.connect(client_node=client)
            yield from conn.execute("BEGIN")
            yield from conn.execute("COMMIT")
            conn.close()

        run(env, driver())
        # BEGIN/COMMIT pay latency but never the planner CPU.
        assert env.now == pytest.approx(0.2)


class TestWireWidths:
    def test_a_row_is_priced_as_the_sum_of_its_values(self):
        # jdbc_row_bytes looks fixed widths up by type; jdbc_value_bytes is
        # the rule.  bool before int, non-ASCII text, an int subclass, a
        # foreign type and a zero width must all agree.
        class Level(int):
            pass

        rows = [
            (1, 2.5, True, None, "ab"),
            (-7, float("inf"), False, None, "h\u00e9llo \u2603"),
            (Level(3), 0.0, None, object(), ""),
            (),
        ]
        for model in (VerticaCostModel(), VerticaCostModel(
                jdbc_int_bytes=0, jdbc_float_bytes=7, jdbc_bool_bytes=2)):
            for row in rows:
                assert model.jdbc_row_bytes(row) == sum(
                    model.jdbc_value_bytes(value) for value in row
                )


class TestDataCharges:
    def populate(self, cluster, rows=10):
        session = cluster.db.connect()
        session.execute("CREATE TABLE t (a INTEGER) SEGMENTED BY HASH(a) ALL NODES")
        values = ", ".join(f"({i})" for i in range(rows))
        session.execute(f"INSERT INTO t VALUES {values}")
        session.close()

    def test_result_bytes_flow_at_connection_cap(self):
        env, cluster, client = make_cluster(
            per_connection_rate_cap=100.0, jdbc_int_bytes=10
        )
        self.populate(cluster, rows=10)

        def driver():
            conn = cluster.connect(client_node=client)
            result = yield from conn.execute("SELECT a FROM t")
            conn.close()
            return result

        run(env, driver())
        # 10 rows x 10 wire bytes at 100 B/s = 1 s.
        assert env.now == pytest.approx(1.0)

    def test_weight_scales_transfer_time(self):
        env, cluster, client = make_cluster(
            per_connection_rate_cap=100.0, jdbc_int_bytes=10
        )
        self.populate(cluster, rows=10)

        def driver():
            conn = cluster.connect(client_node=client)
            yield from conn.execute("SELECT a FROM t", weight=5.0)
            conn.close()

        run(env, driver())
        assert env.now == pytest.approx(5.0)

    def test_remote_rows_cross_internal_network(self):
        env, cluster, client = make_cluster(jdbc_int_bytes=10)
        self.populate(cluster, rows=50)

        def driver():
            conn = cluster.connect(cluster.node_names[0], client_node=client)
            yield from conn.execute("SELECT a FROM t")
            conn.close()

        run(env, driver())
        # Rows living on node 2 shuffled to the contacted node 1.
        assert cluster.internal_bytes() > 0
        assert cluster.external_bytes() == pytest.approx(500.0)

    def test_local_only_query_has_no_shuffle(self):
        env, cluster, client = make_cluster(jdbc_int_bytes=10)
        self.populate(cluster, rows=50)
        table = cluster.db.catalog.table("t")
        segment = table.ring.segments[0]

        def driver():
            conn = cluster.connect(segment.node, client_node=client)
            yield from conn.execute(
                f"SELECT a FROM t WHERE HASH(a) >= {segment.lo} "
                f"AND HASH(a) < {segment.hi}"
            )
            conn.close()

        run(env, driver())
        assert cluster.internal_bytes() == 0.0

    def test_copy_charges_ingest_and_redistribution(self):
        env, cluster, client = make_cluster(copy_rate_cap=1000.0)
        session = cluster.db.connect()
        session.execute("CREATE TABLE t (a INTEGER) SEGMENTED BY HASH(a) ALL NODES")
        session.close()
        payload = "".join(f"{i}\n" for i in range(100))

        def driver():
            conn = cluster.connect(cluster.node_names[0], client_node=client)
            yield from conn.execute("COPY t FROM STDIN", copy_data=payload)
            conn.close()

        run(env, driver())
        nbytes = len(payload.encode())
        assert env.now >= nbytes / 1000.0
        assert cluster.internal_bytes() > 0  # rows redistributed to node 2

    def test_retry_backs_off_on_contention(self):
        env, cluster, client = make_cluster(query_latency=0.01)
        session = cluster.db.connect()
        session.execute("CREATE TABLE t (a INTEGER)")
        session.execute("INSERT INTO t VALUES (1)")
        # Hold the X lock with an open transaction.
        session.execute("BEGIN")
        session.execute("UPDATE t SET a = 2")

        def releaser():
            yield env.timeout(1.0)
            session.execute("COMMIT")

        def driver():
            conn = cluster.connect(cluster.node_names[1], client_node=client)
            result = yield from conn.execute_with_retry("UPDATE t SET a = 3")
            conn.close()
            return result.rowcount

        env.process(releaser())
        count = run(env, driver())
        assert count == 1
        assert env.now >= 1.0  # had to wait for the lock holder


class TestShippedWeight:
    """A result ships at its statement's weight only when it is data: the
    rows a SELECT reads from a table without aggregating.  Group rows,
    EXPLAIN's plan, PROFILE's report, a FROM-less SELECT and a system
    table have the size the statement gives them, at any weight."""

    WEIGHT = 50.0

    def client_bytes(self, sql, weight, output_weight=None):
        """External-NIC bytes one statement ships to a client."""
        env = Environment()
        cluster = SimVerticaCluster(
            env=env, num_nodes=2, cost_model=PAPER_COST_MODEL
        )
        client = cluster.sim_cluster.add_node(
            "client", nics={PAPER_COST_MODEL.external_nic: 125e6}
        )
        session = cluster.db.connect()
        session.execute(
            "CREATE TABLE t (g INTEGER, a INTEGER) SEGMENTED BY HASH(a) ALL NODES"
        )
        session.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i % 3}, {i})" for i in range(40)))
        session.close()

        def driver():
            with cluster.connect(client_node=client) as conn:
                yield from conn.execute(
                    sql, weight=weight, output_weight=output_weight
                )

        run(env, driver())
        return cluster.external_bytes()

    @pytest.mark.parametrize("sql", [
        "SELECT COUNT(*) FROM t",
        "SELECT g, SUM(a) FROM t GROUP BY g",
        "EXPLAIN SELECT a FROM t",
        "PROFILE SELECT a FROM t",
        "SELECT 1",
        "SELECT node_name FROM v_catalog.nodes",
    ])
    def test_a_result_that_is_not_data_ships_at_one(self, sql):
        shipped = self.client_bytes(sql, 1.0)
        assert shipped > 0
        assert self.client_bytes(sql, self.WEIGHT) == shipped

    def test_a_scan_ships_at_its_weight(self):
        shipped = self.client_bytes("SELECT a FROM t", 1.0)
        assert shipped > 0
        assert self.client_bytes("SELECT a FROM t", self.WEIGHT) == (
            pytest.approx(self.WEIGHT * shipped))

    def test_an_explicit_output_weight_overrides_the_rule(self):
        count = "SELECT COUNT(*) FROM t"
        assert self.client_bytes(count, self.WEIGHT, output_weight=3.0) == (
            pytest.approx(3.0 * self.client_bytes(count, 1.0)))
        scan = "SELECT a FROM t"
        assert self.client_bytes(scan, self.WEIGHT, output_weight=1.0) == (
            self.client_bytes(scan, 1.0))


def report(scanned=(), aggregated=(), output=(), written=()):
    """A hand-built CostReport; each argument is (node, count...) tuples
    charged in the order given."""
    cost = CostReport()
    for node, rows in scanned:
        cost.scanned(node, rows)
    for node, rows in aggregated:
        cost.aggregated(node, rows)
    for node, nbytes, rows in output:
        cost.output(node, nbytes, rows)
    for node, rows in written:
        cost.wrote(node, rows)
    return cost


class TestPrice:
    MODEL = VerticaCostModel(
        scan_cpu_per_row=2.0, agg_cpu_per_row=3.0,
        output_cpu_per_row=5.0, output_cpu_per_byte=7.0, jdbc_int_bytes=10,
    )
    #: two rows of 10 wire bytes each: 20 wire bytes in all
    ROWS = [(1,), (2,)]

    def cold(self):
        return report(
            scanned=[("n2", 4), ("n1", 6)], aggregated=[("n1", 6)],
            output=[("n2", 30.0, 1), ("n1", 10.0, 1)],
        )

    def test_two_nodes_in_map_key_order(self):
        charge = self.MODEL.price(self.cold(), self.ROWS, w=2.0, w_out=0.5)
        # scan 4 and 6 rows, then aggregate 6, at w = 2
        assert charge.cpu == [("n2", 16.0), ("n1", 24.0), ("n1", 36.0)]
        # wire 20 B split 30:10 -> 15 and 5 B; at w_out = 0.5 each node
        # marshals 1 row (2.5 s) plus its bytes at 7 s/B, and ships half
        assert charge.nodes == [("n2", 2.5 + 52.5, 7.5), ("n1", 2.5 + 17.5, 2.5)]
        assert charge.client_bytes == 10.0

    def test_a_cache_hit_is_charged_no_scan_or_aggregate(self):
        hit = self.cold()
        hit.cache_hit = True
        cold = self.MODEL.price(self.cold(), self.ROWS, w=2.0, w_out=0.5)
        warm = self.MODEL.price(hit, self.ROWS, w=2.0, w_out=0.5)
        assert warm.cpu == []
        assert (warm.nodes, warm.client_bytes) == (cold.nodes, cold.client_bytes)

    def test_no_output_bytes_divides_by_one(self):
        # rows produced with no binary bytes: no share, marshal CPU only
        cost = report(output=[("n1", 0.0, 3)])
        charge = self.MODEL.price(cost, self.ROWS, w=1.0, w_out=1.0)
        assert charge.nodes == [("n1", 15.0, 0.0)]
        assert charge.client_bytes == 20.0

    def test_zero_output_weight_ships_nothing(self):
        # the staged export: rows go to files, not over the JDBC stream
        charge = self.MODEL.price(self.cold(), self.ROWS, w=2.0, w_out=0.0)
        assert [shipped for __, __, shipped in charge.nodes] == [0.0, 0.0]
        assert charge.client_bytes == 0.0
        assert charge.cpu == [("n2", 16.0), ("n1", 24.0), ("n1", 36.0)]

    @pytest.mark.parametrize("columnar", [False, True])
    def test_copy_shares_the_payload_and_parses_it(self, columnar):
        model = VerticaCostModel(
            load_cpu_per_row=5.0, load_cpu_per_byte=0.25,
            columnar_load_cpu_factor=0.5,
        )
        cost = report(written=[("n1", 3), ("n2", 1)])
        charge = model.price_copy(cost, payload_bytes=1000, w=2.0, columnar=columnar)
        assert charge.cpu == []
        assert charge.client_bytes == 2000.0
        # 2000 B split 3:1 over the owners, in map key order
        assert [(node, share) for node, __, share in charge.nodes] == [
            ("n1", 1500.0), ("n2", 500.0)
        ]
        assert sum(share for __, __, share in charge.nodes) == charge.client_bytes
        for (__, seconds, share), rows in zip(charge.nodes, (3, 1)):
            assert seconds == model.load_seconds(rows * 2.0, share, columnar)


class PerValue(VerticaCostModel):
    """The wire rule as written: a row is the sum of its values' widths,
    and ``price`` sizes every returned row whatever its output weight."""

    def jdbc_row_bytes(self, row):
        return sum(self.jdbc_value_bytes(value) for value in row)

    def price(self, report, rows, w, w_out):
        cpu = []
        if not report.cache_hit:
            for counts, knob in ((report.node_rows_scanned, self.scan_cpu_per_row),
                                 (report.node_rows_aggregated, self.agg_cpu_per_row)):
                cpu += [(node, n * w * knob) for node, n in counts.items()]
        wire = float(sum(self.jdbc_row_bytes(row) for row in rows))
        total_binary = sum(report.node_output_bytes.values()) or 1.0
        nodes = []
        for node, binary_bytes in report.node_output_bytes.items():
            share = wire * (binary_bytes / total_binary)
            seconds = (
                report.node_rows_output.get(node, 0) * w_out * self.output_cpu_per_row
                + share * w_out * self.output_cpu_per_byte
            )
            nodes.append((node, seconds, share * w_out))
        return Charge(cpu, nodes, wire * w_out)


class Counting(VerticaCostModel):
    """Counts the rows ``price`` asks to be sized."""

    def jdbc_row_bytes(self, row):
        self.sized.append(row)
        return super().jdbc_row_bytes(row)


#: every kind of value a result row can hold, and two it should not
WIRE_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True), st.text(), st.sampled_from(("", "\U0001f600x")),
    st.binary(max_size=8), st.builds(object),
)
#: the values whose width is fixed by their type
FIXED_VALUES = st.sampled_from((None, True, False, 0, -3, 2.5, -0.0))
NODES = ("n1", "n2", "n3")


class TestWireContract:
    """``jdbc_row_bytes`` is the per-value rule summed, and ``price``
    charges what sizing every row by that rule charges: it sizes each
    returned row once when its output weight counts, and none when it is
    zero (a staged export), with the same ``Charge`` either way."""

    KNOBS = dict(scan_cpu_per_row=2.0, agg_cpu_per_row=3.0,
                 output_cpu_per_row=5.0, output_cpu_per_byte=7.0,
                 jdbc_float_bytes=22)

    @given(rows=st.lists(st.one_of(
               st.lists(WIRE_VALUES, max_size=2 * WIDE_ROW),
               *(st.lists(values, min_size=WIDE_ROW, max_size=2 * WIDE_ROW)
                 for values in (FIXED_VALUES, FIXED_VALUES | st.text()))),
               max_size=5),
           widths=st.tuples(st.integers(0, 30), st.integers(0, 30),
                            st.integers(0, 30)))
    def test_a_row_is_the_sum_of_its_values(self, rows, widths):
        bool_bytes, float_bytes, int_bytes = widths
        model = VerticaCostModel(jdbc_bool_bytes=bool_bytes,
                                 jdbc_float_bytes=float_bytes,
                                 jdbc_int_bytes=int_bytes)
        for row in rows:
            assert model.jdbc_row_bytes(row) == sum(
                model.jdbc_value_bytes(value) for value in row)

    @given(rows=st.lists(st.lists(WIRE_VALUES, max_size=2 * WIDE_ROW).map(tuple),
                         max_size=6),
           scanned=st.dictionaries(st.sampled_from(NODES), st.integers(0, 9)),
           output=st.dictionaries(st.sampled_from(NODES),
                                  st.tuples(st.integers(0, 99), st.integers(0, 9))),
           w=st.sampled_from((0.0, 0.5, 2.0)),
           w_out=st.sampled_from((0.0, 0.25, 1.0, 3.0)),
           cache_hit=st.booleans())
    def test_price_sizes_each_row_once_or_not_at_all(
            self, rows, scanned, output, w, w_out, cache_hit):
        cost = report(scanned=scanned.items(), aggregated=scanned.items(),
                      output=[(n, float(b), r) for n, (b, r) in output.items()])
        cost.cache_hit = cache_hit
        model = Counting(**self.KNOBS)
        model.sized = []
        charge = model.price(cost, rows, w=w, w_out=w_out)
        assert charge == PerValue(**self.KNOBS).price(cost, rows, w, w_out)
        assert model.sized == (rows if w_out else [])

def test_a_result_cache_hit_advances_the_clock_by_no_cpu():
    """Scan and aggregate CPU on one single-core node serialise, so a cold
    GROUP BY moves the clock by exactly its charged CPU; the same statement
    served from the result cache moves it by nothing."""
    env = Environment()
    cluster = SimVerticaCluster(
        env=env, num_nodes=1, node_cores=1,
        cost_model=VerticaCostModel(scan_cpu_per_row=1.0, agg_cpu_per_row=2.0),
    )
    cluster.db.result_cache_default = True
    session = cluster.db.connect()
    session.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
    session.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({i % 3}, {i})" for i in range(10))
    )
    session.close()
    query = "SELECT g, SUM(v) FROM t GROUP BY g"

    def driver():
        conn = cluster.connect()
        elapsed = []
        for __ in range(2):
            start = env.now
            result = yield from conn.execute(query)
            elapsed.append((env.now - start, result.cost))
        conn.close()
        return elapsed

    (cold_s, cold), (warm_s, warm) = run(env, driver())
    assert not cold.cache_hit and warm.cache_hit
    assert cold_s == cold.rows_scanned * 1.0 + cold.rows_aggregated * 2.0 > 0
    assert warm_s == 0.0
