"""Property-based tests of the fair-share network's physical invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Link, Network

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


routed_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0),      # start time
        st.floats(min_value=1.0, max_value=10_000.0),  # bytes
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=200.0)),  # cap
        st.lists(st.integers(min_value=0, max_value=3),  # route (link indices)
                 min_size=1, max_size=3, unique=True),
    ),
    min_size=2,
    max_size=14,
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

    @given(specs=routed_specs)
    @settings(max_examples=60, deadline=None)
    def test_same_transfers_finish_at_bit_equal_times(self, specs):
        assert self.finish_times(specs, scramble=True) == \
            self.finish_times(specs, scramble=False)
