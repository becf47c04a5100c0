"""Unit tests for utilisation tracing."""

import pytest

from repro.sim import Environment, Link, Resource, UsageTrace, bucket_series
from repro.sim import trace
from repro.sim.network import _EPS
from repro.sim.trace import ChangeLog


def test_constant_log_averages_to_value():
    log = [(0.0, 10.0)]
    assert bucket_series(log, 0, 4, 1) == [10.0, 10.0, 10.0, 10.0]


def test_step_change_splits_buckets():
    log = [(0.0, 0.0), (2.0, 100.0)]
    assert bucket_series(log, 0, 4, 2) == [0.0, 100.0]


def test_change_mid_bucket_is_time_weighted():
    log = [(0.0, 0.0), (1.0, 100.0)]
    assert bucket_series(log, 0, 2, 2) == [50.0]


def test_value_before_window_carries_in():
    log = [(0.0, 42.0)]
    assert bucket_series(log, 10, 12, 1) == [42.0, 42.0]


def test_empty_log_is_zero():
    assert bucket_series([], 0, 3, 1) == [0.0, 0.0, 0.0]


def test_empty_window():
    assert bucket_series([(0.0, 1.0)], 5, 5, 1) == []


def test_invalid_step_rejected():
    with pytest.raises(ValueError):
        bucket_series([], 0, 1, 0)


def test_multiple_changes_within_bucket():
    log = [(0.0, 0.0), (0.25, 40.0), (0.75, 80.0)]
    # 0.25*0 + 0.5*40 + 0.25*80 = 40
    assert bucket_series(log, 0, 1, 1) == [pytest.approx(40.0)]


def test_unsorted_log_matches_sorted():
    """Change points assembled from interleaved processes may arrive out
    of order; bucketing must sort them first or the windowed averages pick
    the wrong 'current' value."""
    ordered = [(0.0, 0.0), (1.0, 100.0), (2.0, 50.0), (3.0, 0.0)]
    shuffled = [ordered[2], ordered[0], ordered[3], ordered[1]]
    assert bucket_series(shuffled, 0, 4, 1) == bucket_series(ordered, 0, 4, 1)
    assert bucket_series(shuffled, 0, 4, 1) == [0.0, 100.0, 50.0, 0.0]


def test_unsorted_log_mid_bucket_weighting():
    shuffled = [(1.0, 100.0), (0.0, 0.0)]
    assert bucket_series(shuffled, 0, 2, 2) == [pytest.approx(50.0)]


class TestUsageTrace:
    def test_from_log_and_stats(self):
        trace = UsageTrace.from_log("cpu", [(0.0, 0.0), (5.0, 100.0)], 0, 10, 1)
        assert len(trace.values) == 10
        assert trace.peak == 100.0
        assert trace.mean == pytest.approx(50.0)

    def test_steady_state_skips_rampup(self):
        values = [0, 0, 0, 100, 100, 100, 100, 100]
        trace = UsageTrace("net", list(range(8)), values)
        assert trace.steady_state(skip_fraction=0.5) == 100.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            UsageTrace("x", [0, 1], [1.0])

    def test_sparkline_shape(self):
        trace = UsageTrace("x", list(range(4)), [0.0, 50.0, 100.0, 0.0])
        line = trace.sparkline(width=4)
        assert len(line) == 4
        assert line[0] == " "
        assert line[2] == "@"

    def test_sparkline_empty(self):
        assert UsageTrace("x", [], []).sparkline() == ""

    def test_sparkline_keeps_trailing_values(self):
        """A series longer than the width (and not a multiple of it) must
        still represent its tail: a final spike may not be dropped."""
        values = [0.0] * 95 + [100.0] * 6  # 101 values, width 60
        trace = UsageTrace("x", list(range(len(values))), values)
        line = trace.sparkline(width=60)
        assert len(line) == 60
        assert line[-1] != " "  # the trailing spike is visible

    def test_sparkline_trailing_value_odd_length(self):
        # 7 values into 3 cells: chunks of 2, 2, 3 — the last cell must
        # include the final value.
        values = [0.0] * 6 + [90.0]
        trace = UsageTrace("x", list(range(7)), values)
        line = trace.sparkline(width=3)
        assert len(line) == 3
        assert line[2] != " "

    def test_sparkline_wider_than_series(self):
        trace = UsageTrace("x", [0, 1], [0.0, 100.0])
        line = trace.sparkline(width=60)
        assert line == " @"


class TestChangeLog:
    def test_same_instant_overwrites_and_unchanged_is_skipped(self):
        log = ChangeLog(0.0, 0.0)
        log.record(0.0, 5.0)
        assert list(log) == [(0.0, 5.0)]
        log.record(1.0, 5.0)
        assert list(log) == [(0.0, 5.0)]
        log.record(2.0, 7.0)
        log.record(2.0, 8.0)
        assert list(log) == [(0.0, 5.0), (2.0, 8.0)]
        assert len(log) == 2
        assert log[0] == (0.0, 5.0)
        assert log[-1] == (2.0, 8.0)

    def test_the_network_keeps_a_strict_eps_band(self):
        link = Link(Environment(), "wire", 100.0)
        link.rate_log.record(1.0, _EPS / 2)
        assert list(link.rate_log) == [(0.0, 0.0)]
        link.rate_log.record(2.0, _EPS)
        assert list(link.rate_log) == [(0.0, 0.0), (2.0, _EPS)]

    def test_without_eps_any_difference_is_a_change(self):
        log = ChangeLog(0.0, 0.0)
        log.record(1.0, 1e-300)
        assert list(log) == [(0.0, 0.0), (1.0, 1e-300)]

    def test_an_int_usage_value_reads_back_equal(self):
        log = Resource(Environment(), capacity=8).usage_log
        log.record(3, 7)
        log.record(4, 2**40)
        assert list(log) == [(0, 0), (3, 7), (4, 2**40)]
        assert log[-1] == (4, 2**40)

    def test_the_bound_keeps_the_newest_points(self, monkeypatch):
        monkeypatch.setattr(trace, "LOG_LIMIT", 4)
        log = ChangeLog(0.0, 0.0)
        for step in range(1, 100):
            log.record(float(step), float(step))
            assert len(log) <= 8
            assert len(log.times) == len(log.values)
        assert len(log) >= 4
        assert list(log)[-4:] == [(float(t), float(t)) for t in range(96, 100)]

    def test_a_point_costs_sixteen_bytes(self):
        env = Environment()
        for log in (ChangeLog(0.0, 0.0), Link(env, "wire", 1.0).rate_log,
                    Resource(env, capacity=1).usage_log):
            assert log.times.itemsize + log.values.itemsize == 16
