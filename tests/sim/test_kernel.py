"""Kernel scheduling semantics."""

import pytest

from repro.sim.kernel import NORMAL, URGENT, Environment, SimulationError


class TestEvent:
    def test_starts_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.ok is None

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_succeed_then_value(self, env):
        ev = env.event().succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_callback_after_processing_runs_immediately(self, env):
        ev = env.event().succeed("v")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_unhandled_failure_raises_at_step(self, env):
        class Boom(Exception):
            pass

        env.event().fail(Boom())
        with pytest.raises(Boom):
            env.run()

    def test_unhandled_failure_raises_from_step(self, env):
        class Boom(Exception):
            pass

        env.event().fail(Boom())
        with pytest.raises(Boom):
            env.step()

    def test_defused_failure_is_silent(self, env):
        ev = env.event()
        ev.fail(RuntimeError("handled"))
        ev._defused = True
        env.run()  # must not raise


class TestClock:
    def test_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_run_until_advances_even_without_events(self, env):
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=4.0)

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_at_lands_exactly_on_the_given_time(self, env):
        now, when = 1.313662780951716, 7.487436724145552
        assert now + (when - now) != when  # why a relative delay won't do
        env.run(until=now)
        fired = []
        env.timeout_at(when, value="v").add_callback(
            lambda ev: fired.append((env.now, ev.value)))
        env.run()
        assert fired == [(when, "v")]

    def test_timeout_at_in_the_past_rejected(self, env):
        env.run(until=2.0)
        with pytest.raises(SimulationError):
            env.timeout_at(1.0)

    def test_active_process_is_the_resumed_one(self, env):
        seen = []

        def body():
            seen.append(env.active_process)
            yield env.timeout(1)
            seen.append(env.active_process)

        procs = [env.process(body()) for _ in range(2)]
        env.run()
        assert seen == [procs[0], procs[1], procs[0], procs[1]]

    def test_events_beyond_until_stay_queued(self, env):
        seen = []
        t = env.timeout(10.0)
        t.add_callback(lambda e: seen.append(env.now))
        env.run(until=5.0)
        assert seen == []
        env.run(until=15.0)
        assert seen == [10.0]


class TestOrdering:
    def test_fifo_at_same_time(self, env):
        order = []
        for i in range(5):
            env.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_urgent_precedes_normal(self, env):
        order = []
        normal = env.event()
        normal.add_callback(lambda e: order.append("normal"))
        normal.succeed(priority=NORMAL)
        urgent = env.event()
        urgent.add_callback(lambda e: order.append("urgent"))
        urgent.succeed(priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_time_order_dominates_priority(self, env):
        order = []
        late = env.event()
        late.add_callback(lambda e: order.append("late"))
        late.succeed(delay=2.0, priority=URGENT)
        early = env.event()
        early.add_callback(lambda e: order.append("early"))
        early.succeed(delay=1.0, priority=NORMAL)
        env.run()
        assert order == ["early", "late"]

    def test_deterministic_across_runs(self):
        def trace():
            env = Environment()
            log = []

            def proc(name, delay):
                while env.now < 5:
                    yield env.timeout(delay)
                    log.append((env.now, name))

            env.process(proc("a", 0.5))
            env.process(proc("b", 0.5))
            env.process(proc("c", 0.7))
            env.run(until=5)
            return log

        assert trace() == trace()

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_step_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_double_schedule_rejected(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            env.schedule(ev)


class TestAddCallbackSyncPath:
    """add_callback on an already-processed event runs the callback
    synchronously instead of queuing it."""

    def test_sync_callback_sees_failed_event(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        ev._defused = True
        env.run()
        seen = []
        ev.add_callback(seen.append)
        assert seen == [ev] and not ev.ok

    def test_sync_callback_exception_propagates_to_caller(self, env):
        ev = env.event().succeed()
        env.run()

        def bad(event):
            raise ValueError("from callback")

        with pytest.raises(ValueError, match="from callback"):
            ev.add_callback(bad)

    def test_sync_callback_not_queued_for_later_steps(self, env):
        ev = env.event().succeed("v")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]
        env.timeout(1.0)
        env.run()  # further stepping must not re-run the callback
        assert seen == ["v"]

    def test_pre_processing_callback_still_deferred(self, env):
        seen = []
        ev = env.event()
        ev.add_callback(lambda e: seen.append(env.now))
        ev.succeed(delay=2.0)
        assert seen == []  # not yet: the event is queued, not processed
        env.run()
        assert seen == [2.0]


class TestTiebreakPerturbation:
    """Seeded randomized tie-break among same-(time, priority) events:
    the racecheck sanitizer's scheduling knob."""

    def _same_instant_order(self, tiebreak_seed, n=10):
        env = Environment(tiebreak_seed=tiebreak_seed)
        order = []
        for i in range(n):
            env.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        env.run()
        return order

    def test_seed_stored_and_default_none(self):
        assert Environment().tiebreak_seed is None
        assert Environment(tiebreak_seed=7).tiebreak_seed == 7

    def test_heap_entries_gain_salt_only_when_seeded(self):
        plain = Environment()
        plain.timeout(1.0)
        assert len(plain._queue[0]) == 4
        salted = Environment(tiebreak_seed=1)
        salted.timeout(1.0)
        assert len(salted._queue[0]) == 5

    def test_unseeded_keeps_fifo(self):
        assert self._same_instant_order(None) == list(range(10))

    def test_same_seed_is_deterministic(self):
        for seed in (1, 2, 99):
            assert (self._same_instant_order(seed)
                    == self._same_instant_order(seed))

    def test_salt_permutes_same_instant_events(self):
        fifo = self._same_instant_order(None)
        permuted = [s for s in range(1, 8)
                    if self._same_instant_order(s) != fifo]
        assert permuted, "no seed in 1..7 permuted a 10-way tie"

    def test_every_event_still_fires_exactly_once(self):
        for seed in (None, 1, 2):
            assert sorted(self._same_instant_order(seed)) == list(range(10))

    def test_priority_still_dominates_salt(self):
        for seed in (1, 2, 3, 4, 5):
            env = Environment(tiebreak_seed=seed)
            order = []
            for i in range(4):
                ev = env.event()
                ev.add_callback(lambda e, i=i: order.append(("n", i)))
                ev.succeed(delay=1.0, priority=NORMAL)
            for i in range(4):
                ev = env.event()
                ev.add_callback(lambda e, i=i: order.append(("u", i)))
                ev.succeed(delay=1.0, priority=URGENT)
            env.run()
            kinds = [k for k, _ in order]
            assert kinds == ["u"] * 4 + ["n"] * 4

    def test_time_still_dominates_salt(self):
        for seed in (1, 2, 3):
            env = Environment(tiebreak_seed=seed)
            order = []
            for i, delay in enumerate((3.0, 1.0, 2.0)):
                env.timeout(delay).add_callback(
                    lambda e, i=i: order.append(i))
            env.run()
            assert order == [1, 2, 0]

    def test_peek_and_run_until_with_salt(self):
        env = Environment(tiebreak_seed=5)
        assert env.peek() == float("inf")
        env.timeout(2.0)
        env.timeout(4.0)
        assert env.peek() == 2.0
        env.run(until=3.0)
        assert env.now == 3.0
        assert env.peek() == 4.0

    def test_splitmix64_is_a_stable_bijective_mix(self):
        from repro.sim.kernel import _splitmix64

        outs = {_splitmix64(i) for i in range(1000)}
        assert len(outs) == 1000  # no collisions over a small domain
        assert _splitmix64(42) == _splitmix64(42)
        assert all(0 <= v < 2 ** 64 for v in outs)


class _CountingMonitor:
    """Records the queue depth of every ``on_schedule`` call."""

    def __init__(self):
        self.depths = []

    def on_schedule(self, depth):
        self.depths.append(depth)

    def on_event(self, event, callbacks):
        pass

    def on_event_done(self, event):
        pass


def _sleeper(env):
    yield env.timeout(5.0)


def _interrupt(env):
    proc = env.process(_sleeper(env))
    env.step()  # bootstrap: the process now waits on its timeout
    return proc.interrupt


#: every way to schedule an event: prepare(env) -> the scheduling action
SCHEDULING_PATHS = {
    "Timeout": lambda env: lambda: env.timeout(1.0),
    "timeout_at": lambda env: lambda: env.timeout_at(1.0),
    "succeed": lambda env: lambda: env.event().succeed(1, delay=1.0),
    "fail": lambda env: lambda: env.event().fail(RuntimeError("x")),
    "schedule": lambda env: lambda: env.schedule(env.event(), delay=1.0),
    "process bootstrap": lambda env: lambda: env.process(_sleeper(env)),
    "interrupt": _interrupt,
}


class TestSchedulingModes:
    """The inline push serves only the plain mode; with a monitor or a
    tie-break seed every path reports once per scheduled event and
    pushes salted 5-tuples."""

    @pytest.mark.parametrize("path", sorted(SCHEDULING_PATHS))
    @pytest.mark.parametrize("monitored,seed", [
        (False, None), (True, None), (False, 7), (True, 7)])
    def test_every_path_reports_and_salts(self, path, monitored, seed):
        monitor = _CountingMonitor() if monitored else None
        env = Environment(monitor=monitor, tiebreak_seed=seed)
        act = SCHEDULING_PATHS[path](env)
        before = env.scheduled_count
        reported = len(monitor.depths) if monitored else 0
        act()
        assert env.scheduled_count == before + 1
        if monitored:
            assert len(monitor.depths) == reported + 1
            assert monitor.depths[-1] == len(env._queue)
        width = 4 if seed is None else 5
        assert [len(entry) for entry in env._queue] == [width] * len(env._queue)

    def test_attaching_a_monitor_leaves_the_inline_push(self):
        env = Environment()
        monitor = _CountingMonitor()
        env.timeout(1.0)
        env.set_monitor(monitor)
        env.timeout(1.0)
        env.event().succeed()
        env.set_monitor(None)
        env.timeout(1.0)
        assert monitor.depths == [2, 3]
        assert env.scheduled_count == 4

    def test_monitored_run_processes_the_same_order(self):
        def scenario(monitor):
            from repro.sim.store import Store

            env = Environment(monitor=monitor)
            store = Store(env, capacity=1)
            order = []

            def producer(i):
                for k in range(3):
                    yield env.timeout(0.5 * i)
                    if not store.try_put((i, k)):
                        yield store.put((i, k))

            def consumer():
                while True:
                    item = yield store.get()
                    order.append((env.now, item))
                    yield env.timeout(0.25)

            for i in range(3):
                env.process(producer(i))
            env.process(consumer())
            env.run(until=20.0)
            return order, env.processed_count, env.scheduled_count

        assert scenario(None) == scenario(_CountingMonitor())

    def test_checks_hold_on_the_inline_path(self, env):
        with pytest.raises(SimulationError):
            env.event().succeed(delay=-1.0)
        with pytest.raises(SimulationError):
            env.event().fail(RuntimeError("x"), delay=-1.0)
        ev = env.event()
        env.schedule(ev)  # scheduled untriggered
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_timeout_and_store_get_start_like_a_plain_event(self, env):
        from repro.sim.kernel import Event
        from repro.sim.store import Store

        def state(ev):
            return {name: getattr(ev, name) for name in Event.__slots__
                    if name not in ("_ok", "_value", "_scheduled")}

        plain = state(env.event())
        assert plain == {"env": env, "callbacks": [], "_processed": False,
                         "_defused": False}
        timeout = env.timeout(1.0, "v")
        assert state(timeout) == plain
        assert (timeout._ok, timeout._value, timeout._scheduled) == (
            True, "v", True)
        get = Store(env).get()
        assert state(get) == plain
        assert (get._ok, get._value, get._scheduled) == (None, None, False)
