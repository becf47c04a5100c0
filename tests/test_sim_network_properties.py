"""Property-based tests of the fair-share network's physical invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Link, Network
from repro.sim.network import _EPS
from tests import reference_network

transfer_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),    # start time
        st.floats(min_value=1.0, max_value=10_000.0),  # bytes
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=200.0)),  # cap
    ),
    min_size=1,
    max_size=12,
)


def run_network(specs, capacity=100.0, two_links=False):
    env = Environment()
    net = Network(env)
    link_a = Link(env, "a", capacity)
    link_b = Link(env, "b", capacity * 2)
    route = [link_a, link_b] if two_links else [link_a]
    finishes = {}

    def one(index, start, nbytes, cap):
        if start:
            yield env.timeout(start)
        yield net.transfer(route, nbytes, cap=cap, name=f"f{index}")
        finishes[index] = env.now

    for index, (start, nbytes, cap) in enumerate(specs):
        env.process(one(index, start, nbytes, cap))
    env.run()
    return env, net, link_a, finishes


class TestConservation:
    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_all_transfers_complete(self, specs):
        __, __, __, finishes = run_network(specs)
        assert len(finishes) == len(specs)

    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_bytes_are_conserved(self, specs):
        __, __, link, __ = run_network(specs)
        total = sum(nbytes for __, nbytes, __ in specs)
        assert link.bytes_total == pytest.approx(total, rel=1e-6)

    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_multi_link_routes_conserve_on_every_link(self, specs):
        __, __, link, __ = run_network(specs, two_links=True)
        total = sum(nbytes for __, nbytes, __ in specs)
        assert link.bytes_total == pytest.approx(total, rel=1e-6)


class TestCapacityRespect:
    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_rate_never_exceeds_capacity(self, specs):
        __, __, link, __ = run_network(specs, capacity=100.0)
        for __, rate in link.rate_log:
            assert rate <= 100.0 + 1e-6

    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_makespan_lower_bound(self, specs):
        """No schedule can finish faster than total bytes / capacity."""
        env, __, __, finishes = run_network(specs, capacity=100.0)
        total = sum(nbytes for __, nbytes, __ in specs)
        first_start = min(start for start, __, __ in specs)
        assert env.now >= first_start + total / 100.0 - 1e-6

    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_caps_respected_in_isolation(self, specs):
        """A single capped flow finishes no faster than bytes / cap."""
        for start, nbytes, cap in specs:
            if cap is None:
                continue
            env, __, __, finishes = run_network([(0.0, nbytes, cap)])
            assert env.now >= nbytes / min(cap, 100.0) - 1e-6


class TestFairness:
    @given(
        count=st.integers(min_value=2, max_value=10),
        nbytes=st.floats(min_value=100.0, max_value=5000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_flows_finish_together(self, count, nbytes):
        env, __, __, finishes = run_network([(0.0, nbytes, None)] * count)
        times = list(finishes.values())
        assert max(times) == pytest.approx(min(times), rel=1e-9)
        assert max(times) == pytest.approx(nbytes * count / 100.0, rel=1e-6)

    @given(small=st.floats(min_value=10.0, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_smaller_flow_finishes_first(self, small):
        env, __, __, finishes = run_network(
            [(0.0, small, None), (0.0, small * 10, None)]
        )
        assert finishes[0] < finishes[1]


def routed_specs(unique_routes=True):
    """Up to 40 flows over four links, most of them starting together."""
    return st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.just(0.0),
                      st.floats(min_value=0.0, max_value=20.0)),  # start time
            st.floats(min_value=1.0, max_value=10_000.0),  # bytes
            # cap: none, a producer limit only the fast links notice, and two
            # ranges that bind on the 7.3-100 B/s links alone / when shared
            st.one_of(st.none(), st.just(30e6),
                      st.floats(min_value=1.0, max_value=200.0),
                      st.floats(min_value=0.05, max_value=5.0)),
            st.lists(st.integers(min_value=0, max_value=3),  # route (link indices)
                     min_size=1, max_size=3, unique=unique_routes),
        ),
        min_size=2,
        max_size=40,
    )


class TestMemoryLayoutIsNotAnInput:
    """Fair shares, cap tie-breaks and float accumulation follow flow
    *arrival* order, so where ``Flow``/``Link`` objects happen to live in
    memory (``id()``-hashed sets iterate by address) cannot move a finish
    time by even one ulp."""

    @staticmethod
    def finish_times(specs, scramble):
        env = Environment()
        net = Network(env)
        ballast = []  # kept alive: shifts every later allocation's address
        names = ["l0", "l1", "l2", "l3"]
        links = {}
        for name in (reversed(names) if scramble else names):
            if scramble:
                ballast.append([object() for __ in range(len(ballast) + 3)])
            links[name] = Link(env, name, 50.0 * (1 + names.index(name)))
        finishes = {}

        def one(index, start, nbytes, cap, route):
            if start:
                yield env.timeout(start)
            if scramble:
                ballast.append([object() for __ in range(index % 5 + 1)])
            yield net.transfer([links[names[i]] for i in route], nbytes,
                               cap=cap, name=f"f{index}")
            finishes[index] = env.now

        for index, spec in enumerate(specs):
            env.process(one(index, *spec))
        env.run()
        return finishes, {name: links[name].bytes_total for name in names}

    @given(specs=routed_specs())
    @settings(max_examples=60, deadline=None)
    def test_same_transfers_finish_at_bit_equal_times(self, specs):
        assert self.finish_times(specs, scramble=True) == \
            self.finish_times(specs, scramble=False)


#: link speeds nine orders of magnitude apart: a trickle, the unit-test
#: sizes, 1 GbE and 10 GbE in bytes per second
CAPACITIES = (7.3, 50.0, 100.0, 125e6, 1.25e9)

link_capacities = st.lists(st.sampled_from(CAPACITIES), min_size=4, max_size=4)

#: (link index, when, new capacity as a fraction of nominal, how long)
outages = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=20.0),
        st.sampled_from([0.0, 0.5]),
        st.floats(min_value=0.0, max_value=20.0),
    ),
    max_size=3,
)


def run_script(network_class, link_class, specs, capacities, outages):
    """Drive one network with transfers plus partitions/degradations that
    are later healed."""
    env = Environment()
    net = network_class(env)
    links = [link_class(env, f"l{i}", capacity)
             for i, capacity in enumerate(capacities)]
    finishes = {}

    def one(index, start, nbytes, cap, route):
        if start:
            yield env.timeout(start)
        # a flow sized to its fastest link, so slow and fast links both
        # stay busy for comparable (sim) times
        nbytes *= max(links[i].capacity for i in route) / 100.0
        yield net.transfer([links[i] for i in route], nbytes, cap=cap,
                           name=f"f{index}")
        finishes[index] = env.now

    def outage(index, at, fraction, duration):
        yield env.timeout(at)
        link = links[index]
        net.set_link_capacity(link, link.nominal_capacity * fraction)
        yield env.timeout(duration)
        net.set_link_capacity(link, link.nominal_capacity)

    for index, spec in enumerate(specs):
        env.process(one(index, *spec))
    for spec in outages:
        env.process(outage(*spec))
    env.run()
    assert len(finishes) == len(specs)
    return (
        finishes,
        [link.bytes_total for link in links],
        [list(link.rate_log) for link in links],
        (env.now, env.stats.events_processed),
    )


class TestBitEqualToTheFrozenSolver:
    """``tests/reference_network.py`` recounts every link on every
    iteration of progressive filling; the live solver keeps the counts.
    Same iteration order, same float arithmetic — so not one finish time,
    byte total or rate sample may differ, by even one ulp."""

    @given(specs=routed_specs(unique_routes=False), capacities=link_capacities,
           outages=outages)
    @settings(max_examples=400, deadline=None)
    def test_same_script_same_bits(self, specs, capacities, outages):
        assert run_script(Network, Link, specs, capacities, outages) == \
            run_script(reference_network.Network, reference_network.Link,
                       specs, capacities, outages)


class CertifiedNetwork(Network):
    """Checks the max-min certificate after every recompute."""

    def _reschedule(self):
        super()._reschedule()
        flows = list(self._flows)
        load, fastest = {}, {}
        for flow in flows:
            for link in flow.route:
                load[link] = load.get(link, 0.0) + flow.rate
                fastest[link] = max(fastest.get(link, 0.0), flow.rate)
        for link, total in load.items():
            assert total <= link.capacity * (1 + 1e-6), (link, total)
        for flow in flows:
            if flow.rate == 0.0:
                assert any(link.capacity == 0.0 for link in flow.route), flow.name
            elif flow.rate != flow.cap:
                # Its bottleneck: a full link on which nobody gets more.  A
                # near-tie inside the hysteresis hands the first-scanned
                # link's share to flows that also cross the other link, so
                # "more" allows _EPS per flow, plus float rounding.
                slack = _EPS * len(flows) + 1e-9 * flow.rate
                assert any(
                    load[link] >= link.capacity * (1 - 1e-6)
                    and fastest[link] <= flow.rate + slack
                    for link in flow.route
                ), (flow.name, flow.rate)


class TestMaxMinCertificate:
    @given(specs=routed_specs(), capacities=link_capacities, outages=outages)
    @settings(max_examples=150, deadline=None)
    def test_every_recompute_is_max_min_fair(self, specs, capacities, outages):
        run_script(CertifiedNetwork, Link, specs, capacities, outages)
