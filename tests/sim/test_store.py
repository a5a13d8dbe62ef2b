"""Bounded store semantics: FIFO, blocking, cancellation, teardown."""

import pytest

from repro.sim.kernel import SimulationError
from repro.sim.store import Store, StoreFullError


class TestBasics:
    def test_put_get_fifo(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        got = []

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        env.process(consumer())
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_put_nowait_full_raises(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        with pytest.raises(StoreFullError):
            store.put_nowait("b")

    def test_try_put(self, env):
        store = Store(env, capacity=1)
        assert store.try_put("a")
        assert not store.try_put("b")
        assert store.level == 1

    def test_get_nowait(self, env):
        store = Store(env)
        store.put_nowait("x")
        assert store.get_nowait() == "x"
        with pytest.raises(SimulationError):
            store.get_nowait()

    def test_peek(self, env):
        store = Store(env)
        store.put_nowait(1)
        store.put_nowait(2)
        assert store.peek() == 1
        assert store.level == 2


class TestBlocking:
    def test_put_blocks_at_capacity(self, env):
        store = Store(env, capacity=2)
        progress = []

        def producer():
            for i in range(4):
                yield store.put(i)
                progress.append((env.now, i))

        def consumer():
            yield env.timeout(10)
            while True:
                yield store.get()
                yield env.timeout(1)

        env.process(producer())
        env.process(consumer())
        env.run(until=20)
        times = dict((i, t) for t, i in progress)
        assert times[0] == 0 and times[1] == 0
        assert times[2] == 10  # unblocked by the first get
        assert times[3] == 11

    def test_get_blocks_until_item(self, env):
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(5.0, "late")]

    def test_backlog_counts_blocked_putters(self, env):
        store = Store(env, capacity=1)

        def producer():
            yield store.put("a")
            yield store.put("b")

        env.process(producer())
        env.run(until=1)
        assert store.level == 1
        assert store.backlog == 2

    def test_put_nowait_respects_queued_putters(self, env):
        store = Store(env, capacity=1)

        def producer():
            yield store.put("a")
            yield store.put("b")

        env.process(producer())
        env.run(until=1)

        def late():
            yield store.get()

        env.process(late())
        env.run(until=2)
        # "b" (queued first) must have been admitted, not a nowait line-jumper
        assert store.peek() == "b"


class TestCancellation:
    def test_get_cancel_leaves_items(self, env):
        store = Store(env)
        get_ev = store.get()
        get_ev.cancel()
        store.put_nowait("x")
        env.run()
        assert not get_ev.triggered
        assert store.level == 1

    def test_put_cancel_withdraws(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        put_ev = store.put("b")
        put_ev.cancel()
        assert store.get_nowait() == "a"
        env.run()
        assert store.level == 0

    def test_cancel_after_trigger_is_noop(self, env):
        store = Store(env)
        store.put_nowait("x")
        get_ev = store.get()
        assert get_ev.triggered
        get_ev.cancel()
        assert get_ev.value == "x"


class TestTeardown:
    def test_release_putters_unblocks_and_drops(self, env):
        store = Store(env, capacity=1)
        done = []

        def producer():
            yield store.put("a")
            yield store.put("dropped")
            done.append(env.now)

        env.process(producer())
        env.run(until=1)
        released = store.release_putters()
        env.run(until=2)
        assert released == 1
        assert done == [1.0]
        assert list(store.items) == ["a"]

    def test_clear_returns_dropped(self, env):
        store = Store(env)
        store.put_nowait(1)
        store.put_nowait(2)
        assert store.clear() == [1, 2]
        assert store.level == 0

    def test_clear_admits_queued_putters_unless_withdrawn(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        first = store.put("b")
        assert store.clear() == ["a"]
        assert first.triggered and list(store.items) == ["b"]
        second = store.put("c")
        store.withdraw_putters()
        store.clear()
        env.run()
        assert not second.triggered and store.level == 0

    def test_force_put_ignores_capacity(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        store.force_put("sentinel")
        assert store.level == 2

    def test_force_put_front(self, env):
        store = Store(env)
        store.put_nowait("a")
        store.force_put("first", front=True)
        assert store.get_nowait() == "first"

    def test_force_put_wakes_getter(self, env):
        store = Store(env, capacity=1)
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        env.process(consumer())
        env.run(until=1)
        store.force_put("wake")
        env.run(until=2)
        assert got == ["wake"]
