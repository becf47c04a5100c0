"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Compute, Environment, Interrupt, SimNode, SimulationError


@pytest.fixture
def env():
    return Environment()


def test_clock_starts_at_zero(env):
    assert env.now == 0.0


def test_timeout_advances_clock(env):
    def proc():
        yield env.timeout(5.0)
        return env.now

    assert env.run(env.process(proc())) == 5.0
    assert env.now == 5.0


def test_timeout_carries_value(env):
    def proc():
        value = yield env.timeout(1.0, value="payload")
        return value

    assert env.run(env.process(proc())) == "payload"


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate(env):
    def proc():
        yield env.timeout(1.0)
        yield env.timeout(2.5)
        return env.now

    assert env.run(env.process(proc())) == 3.5


def test_processes_interleave_by_time(env):
    order = []

    def slow():
        yield env.timeout(10)
        order.append("slow")

    def fast():
        yield env.timeout(1)
        order.append("fast")

    env.process(slow())
    env.process(fast())
    env.run()
    assert order == ["fast", "slow"]


def test_process_return_value(env):
    def child():
        yield env.timeout(2)
        return 42

    def parent():
        result = yield env.process(child())
        return result + 1

    assert env.run(env.process(parent())) == 43


def test_process_exception_propagates_to_waiter(env):
    class Boom(Exception):
        pass

    def child():
        yield env.timeout(1)
        raise Boom("bang")

    def parent():
        try:
            yield env.process(child())
        except Boom:
            return "caught"
        return "missed"

    assert env.run(env.process(parent())) == "caught"


def test_unhandled_process_failure_raises_from_run(env):
    class Boom(Exception):
        pass

    def child():
        yield env.timeout(1)
        raise Boom("bang")

    env.process(child())
    with pytest.raises(Boom):
        env.run()


def test_awaiting_failed_process_from_run(env):
    class Boom(Exception):
        pass

    def child():
        yield env.timeout(1)
        raise Boom

    proc = env.process(child())
    with pytest.raises(Boom):
        env.run(proc)


def test_run_until_time(env):
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=5)
    assert ticks == [1, 2, 3, 4, 5]
    assert env.now == 5


def test_run_until_event_returns_its_value(env):
    gate = env.event()

    def opener():
        yield env.timeout(3)
        gate.succeed("open")

    env.process(opener())
    assert env.run(gate) == "open"
    assert env.now == 3


def test_event_double_trigger_rejected(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected(env):
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_interrupt_delivers_cause(env):
    caught = {}

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as exc:
            caught["cause"] = exc.cause
            caught["time"] = env.now

    def killer(proc):
        yield env.timeout(7)
        proc.interrupt("too slow")

    proc = env.process(victim())
    env.process(killer(proc))
    env.run()
    assert caught == {"cause": "too slow", "time": 7}


def test_interrupt_finished_process_is_noop(env):
    def quick():
        yield env.timeout(1)

    def killer(proc):
        yield env.timeout(5)
        proc.interrupt("late")  # must not raise

    proc = env.process(quick())
    env.process(killer(proc))
    env.run()
    assert not proc.is_alive


def test_interrupted_process_can_continue(env):
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(5)
        log.append(("done", env.now))

    def killer(proc):
        yield env.timeout(10)
        proc.interrupt()

    proc = env.process(victim())
    env.process(killer(proc))
    env.run()
    assert log == [("interrupted", 10), ("done", 15)]


def test_all_of_waits_for_every_event(env):
    def proc():
        results = yield env.all_of([env.timeout(3, "a"), env.timeout(1, "b")])
        return (env.now, sorted(results))

    assert env.run(env.process(proc())) == (3, ["a", "b"])


def test_any_of_fires_on_first(env):
    def proc():
        results = yield env.any_of([env.timeout(3, "slow"), env.timeout(1, "fast")])
        return (env.now, results)

    now, results = env.run(env.process(proc()))
    assert now == 1
    assert results == ["fast"]


def test_all_of_with_already_triggered_events(env):
    def proc():
        t = env.timeout(0, "x")
        yield env.timeout(1)
        results = yield env.all_of([t])
        return results

    assert env.run(env.process(proc())) == ["x"]


def test_yielding_non_event_fails_the_process(env):
    def bad():
        yield 42

    proc = env.process(bad())
    with pytest.raises(SimulationError):
        env.run(proc)


def test_deterministic_fifo_order_at_same_time(env):
    order = []

    def make(name):
        def proc():
            yield env.timeout(1)
            order.append(name)

        return proc

    for name in "abcde":
        env.process(make(name)())
    env.run()
    assert order == list("abcde")


def test_cannot_run_backwards(env):
    env.process(iter_timeout(env, 10))
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def iter_timeout(env, delay):
    yield env.timeout(delay)


def test_run_until_event_that_never_fires_raises(env):
    gate = env.event()
    env.process(iter_timeout(env, 1))
    with pytest.raises(SimulationError):
        env.run(gate)


def busy_scenario(env):
    """Timeouts, same-instant ties, a condition and an interrupt; returns
    the log the processes write."""
    log = []

    def worker(name, delays):
        for delay in delays:
            try:
                yield env.timeout(delay)
            except Interrupt as interrupt:
                log.append((env.now, name, "interrupted", interrupt.cause))
            log.append((env.now, name))

    def boss(crew):
        yield env.all_of(crew[:2])
        log.append((env.now, "boss", "two done"))
        crew[2].interrupt("hurry")
        yield env.any_of([crew[2], env.timeout(50)])
        log.append((env.now, "boss", "done"))

    crew = [
        env.process(worker("a", [1, 1, 1])),
        env.process(worker("b", [1.5, 1.5])),
        env.process(worker("c", [1, 2, 40])),
    ]
    env.process(boss(crew))
    return log


def test_stepping_by_hand_is_run():
    """``run()`` is ``peek()`` and ``step()`` in a loop, written out: the same
    events in the same order, the same clock and the same event count."""
    ran, stepped = Environment(), Environment()
    ran_log, stepped_log = busy_scenario(ran), busy_scenario(stepped)
    ran.run()
    times = []
    while stepped.peek() != float("inf"):
        times.append(stepped.peek())
        stepped.step()
        assert stepped.now == times[-1]
    assert stepped_log == ran_log and len(ran_log) > 10
    assert times == sorted(times)
    assert stepped.now == ran.now
    assert stepped.stats.as_dict() == ran.stats.as_dict()
    assert stepped.stats.events_processed == len(times)
    with pytest.raises(SimulationError):
        stepped.step()


def test_run_until_time_stops_where_peek_says(env):
    env.process(iter_timeout(env, 10))
    env.run(until=4)
    assert (env.now, env.peek()) == (4.0, 10.0)
    env.run()
    assert (env.now, env.peek()) == (10.0, float("inf"))


# -- Compute: the process it replaces, without the generator -----------------

#: durations drawn from a small set, so zero, equal and repeated charges tie
#: at the same instant
DURATIONS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 3.0])

charge_scripts = st.integers(1, 3).flatmap(lambda cores: st.tuples(
    st.just(cores),
    st.lists(st.tuples(
        st.sampled_from(["charge", "charge", "inline", "timeout"]),
        st.sampled_from([0.0, 0.0, 0.5, 1.0]),  # wait before starting it
        DURATIONS,
        st.integers(1, cores),
    ), min_size=1, max_size=12),
))


def run_charges(cores, script, charge):
    """Run ``script`` on a node with ``cores`` cores, each one-core CPU charge
    made by ``charge(node, seconds)``; returns what the two must agree on.
    Inline holders claim ``ncores`` cores, so they and the charges contend."""
    env = Environment()
    node = SimNode(env, "n", cores=cores)
    log = []

    def done(label):
        return lambda _event: log.append((env.now, label))

    def holder(label, seconds, ncores):
        yield from node.compute(seconds, ncores)
        log.append((env.now, label))

    def launcher():
        charges = []
        for index, (kind, wait, seconds, ncores) in enumerate(script):
            if wait:
                yield env.timeout(wait)
            label = f"{kind}{index}"
            if kind == "charge":
                event = charge(node, seconds)
                charges.append(event)
                event.callbacks.append(done(label))
            elif kind == "inline":
                env.process(holder(label, seconds, ncores))
            else:
                env.timeout(seconds).callbacks.append(done(label))
        yield env.all_of(charges)
        log.append((env.now, "all charges"))

    env.run(env.process(launcher()))
    env.run()
    return log, list(node.cores.usage_log), env.stats.events_processed


@settings(max_examples=200, deadline=None)
@given(charge_scripts)
def test_compute_queues_what_its_process_queued(cores_and_script):
    """``Compute(node, s)`` against ``env.process(node.compute(s))``: the same
    completions at the same times in the same order, the same core usage
    log and the same number of processed queue entries."""
    cores, script = cores_and_script
    as_events = run_charges(cores, script, Compute)
    as_processes = run_charges(
        cores, script, lambda node, seconds: node.env.process(node.compute(seconds)))
    assert as_events == as_processes


def test_compute_is_counted_as_no_process():
    env = Environment()
    node = SimNode(env, "n", cores=1)
    charges = [Compute(node, 1.0), Compute(node, 0.0)]
    env.run()
    assert [c.value for c in charges] == [None, None]
    assert env.now == 1.0
    assert env.stats.processes_started == 0
    with pytest.raises(SimulationError):
        Compute(node, -1.0)


def test_all_of_finishes_when_its_children_trigger_not_when_processed(env):
    """Two children triggered in one step; the second carries an earlier
    callback that triggers ``y``.  The condition finishes while the first
    child is processed (both have triggered by then), so its entry is
    queued, and processed, before ``y``'s."""
    a, b, y = env.event(), env.event(), env.event()
    order = []
    b.callbacks.append(lambda _event: y.succeed())
    y.callbacks.append(lambda _event: order.append("y"))
    both = env.all_of([a, b])
    both.callbacks.append(lambda _event: order.append("all"))

    def trigger():
        yield env.timeout(1)
        a.succeed("a")
        b.succeed("b")

    env.process(trigger())
    env.run()
    assert order == ["all", "y"]
    assert both.value == ["a", "b"]
