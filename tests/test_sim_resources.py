"""Resources and stores."""

import pytest

from repro.sim.engine import Environment, SimulationError
from repro.sim.resources import Resource, Store


class TestResource:
    def test_serializes_unit_capacity(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def worker(tag):
            req = res.request()
            yield req
            log.append((env.now, tag, "in"))
            yield env.timeout(1.0)
            res.release(req)

        for tag in "abc":
            env.process(worker(tag))
        env.run()
        assert [entry[0] for entry in log] == [0.0, 1.0, 2.0]

    def test_capacity_two_overlaps(self):
        env = Environment()
        res = Resource(env, capacity=2)
        starts = []

        def worker():
            req = res.request()
            yield req
            starts.append(env.now)
            yield env.timeout(1.0)
            res.release(req)

        for _ in range(4):
            env.process(worker())
        env.run()
        assert starts == [0.0, 0.0, 1.0, 1.0]

    def test_fifo_granting(self):
        env = Environment()
        res = Resource(env)
        order = []

        def worker(tag):
            req = res.request()
            yield req
            order.append(tag)
            yield env.timeout(0.1)
            res.release(req)

        for tag in "abcde":
            env.process(worker(tag))
        env.run()
        assert order == list("abcde")

    def test_release_without_hold_rejected(self):
        env = Environment()
        res = Resource(env)
        req = res.request()

        def bad():
            yield req
            res.release(req)
            res.release(req)

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_stats(self):
        env = Environment()
        res = Resource(env)

        def worker():
            req = res.request()
            yield req
            yield env.timeout(1)
            res.release(req)

        for _ in range(3):
            env.process(worker())
        env.run()
        assert res.total_grants == 3
        assert res.peak_queue_len == 2

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = {}

        def consumer():
            got["v"] = yield store.get()

        store.put("item")
        env.process(consumer())
        env.run()
        assert got["v"] == "item"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = {}

        def consumer():
            got["v"] = yield store.get()
            got["t"] = env.now

        def producer():
            yield env.timeout(3.0)
            store.put(99)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == {"v": 99, "t": 3.0}

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for k in range(5):
            store.put(k)
        out = []

        def consumer():
            for _ in range(5):
                out.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert out == [0, 1, 2, 3, 4]

    def test_try_get(self):
        env = Environment()
        store = Store(env)
        assert store.try_get() == (False, None)
        store.put("x")
        assert store.try_get() == (True, "x")
        assert store.try_get() == (False, None)

    def test_peek_and_len(self):
        env = Environment()
        store = Store(env)
        assert store.peek() is None
        store.put(1)
        store.put(2)
        assert store.peek() == 1
        assert len(store) == 2

    def test_multiple_getters_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(tag):
            v = yield store.get()
            got.append((tag, v))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1)
            store.put("a")
            store.put("b")

        env.process(producer())
        env.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_stats(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert store.total_puts == 2
        assert store.peak_depth == 2
