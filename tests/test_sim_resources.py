"""Unit tests for simulation resources (Resource, Mutex, Store)."""

import pytest

from repro.sim import Environment, Mutex, Resource, SimulationError, Store, trace


@pytest.fixture
def env():
    return Environment()


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    log = []

    def worker(name):
        req = res.request()
        yield req
        log.append((name, "start", env.now))
        yield env.timeout(10)
        res.release(req)
        log.append((name, "end", env.now))

    for name in ("a", "b", "c"):
        env.process(worker(name))
    env.run()
    starts = {name: t for name, kind, t in log if kind == "start"}
    assert starts == {"a": 0, "b": 0, "c": 10}


def test_resource_fifo_ordering(env):
    res = Resource(env, capacity=1)
    order = []

    def worker(name):
        req = res.request()
        yield req
        order.append(name)
        yield env.timeout(1)
        res.release(req)

    for name in "abcd":
        env.process(worker(name))
    env.run()
    assert order == list("abcd")


def test_resource_multi_unit_requests(env):
    res = Resource(env, capacity=4)
    times = {}

    def worker(name, amount, hold):
        req = res.request(amount)
        yield req
        times[name] = env.now
        yield env.timeout(hold)
        res.release(req)

    env.process(worker("big", 3, 5))
    env.process(worker("small", 1, 5))
    env.process(worker("big2", 3, 5))  # must wait for big to finish
    env.run()
    assert times["big"] == 0
    assert times["small"] == 0
    assert times["big2"] == 5


def test_resource_rejects_oversized_request(env):
    res = Resource(env, capacity=2)
    with pytest.raises(SimulationError):
        res.request(3)
    with pytest.raises(SimulationError):
        res.request(0)


def test_resource_invalid_capacity(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_release_of_queued_request_cancels_it(env):
    res = Resource(env, capacity=1)
    held = res.request()
    assert held.triggered
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # cancel while waiting
    assert res.queue_length == 0
    res.release(held)
    assert res.available == 1


def test_usage_log_tracks_in_use(env):
    res = Resource(env, capacity=2)

    def worker():
        req = res.request()
        yield req
        yield env.timeout(5)
        res.release(req)

    env.process(worker())
    env.process(worker())
    env.run()
    assert res.usage_log[0] == (0, 2)
    assert res.usage_log[-1] == (5, 0)


def test_usage_log_is_bounded(env, monkeypatch):
    monkeypatch.setattr(trace, "LOG_LIMIT", 4)
    res = Resource(env, capacity=1)

    def worker():
        for __ in range(30):
            req = res.request()
            yield req
            yield env.timeout(1)
            res.release(req)
            yield env.timeout(1)

    env.process(worker())
    env.run()
    assert 4 <= len(res.usage_log) <= 8
    assert res.usage_log[-1] == (59, 0)


def test_mutex_is_single_slot(env):
    mutex = Mutex(env)
    assert mutex.capacity == 1


def test_store_put_then_get(env):
    store = Store(env)
    store.put("x")

    def getter():
        item = yield store.get()
        return item

    assert env.run(env.process(getter())) == "x"


def test_store_get_blocks_until_put(env):
    store = Store(env)
    result = {}

    def getter():
        item = yield store.get()
        result["item"] = item
        result["time"] = env.now

    def putter():
        yield env.timeout(4)
        store.put("late")

    env.process(getter())
    env.process(putter())
    env.run()
    assert result == {"item": "late", "time": 4}


def test_store_fifo_and_try_get(env):
    store = Store(env)
    store.put(1)
    store.put(2)
    assert store.try_get() == 1
    assert store.try_get() == 2
    assert store.try_get() is None
    assert len(store) == 0
