"""Microbenchmarks of the simulation substrate itself.

Not a paper artifact — these track the cost of the kernel primitives and
the end-to-end event rate of a running PRESS cluster, so performance
regressions in the simulator are caught alongside the reproduction.
"""

from repro.experiments.configs import version
from repro.experiments.profiles import SMALL
from repro.experiments.runner import build_world
from repro.obs.kernelprof import KernelProfiler
from repro.obs.telemetry import Telemetry
from repro.sim.kernel import Environment
from repro.sim.store import Store


def test_kernel_timeout_churn(benchmark):
    """Schedule-and-fire cost for a ping-pong of timeouts."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(20_000):
                yield env.timeout(0.001)

        env.process(ticker())
        env.run()
        return env.now

    assert benchmark(run) > 0


def test_store_handoff(benchmark):
    """Producer/consumer handoff through a bounded store."""

    def run():
        env = Environment()
        q = Store(env, capacity=16)
        done = []

        def producer():
            for i in range(10_000):
                yield q.put(i)

        def consumer():
            for _ in range(10_000):
                item = yield q.get()
            done.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        return done[0]

    assert benchmark(run) == 9_999


def test_kernel_profiled_churn(benchmark):
    """The same timeout ping-pong with the kernel profiler attached.

    Tracks the cost of the opt-in profiling hooks (per-owner counts plus
    per-event wall-time attribution) relative to
    ``test_kernel_timeout_churn`` (the monitor-free fast path).
    """

    def run():
        env = Environment(monitor=KernelProfiler())

        def ticker():
            for _ in range(20_000):
                yield env.timeout(0.001)

        env.process(ticker())
        env.run()
        return env.monitor.events_processed

    assert benchmark(run) > 20_000


def test_coop_cluster_simulation_rate(benchmark):
    """Wall-clock cost of simulating 30 s of a loaded 4-node COOP cluster."""

    def run():
        world = build_world(version("COOP"), SMALL)
        world.env.run(until=30.0)
        return world.stats.issued

    issued = benchmark.pedantic(run, rounds=1, iterations=1)
    assert issued > 1000


def test_coop_cluster_rate_telemetry_off(benchmark):
    """The same cluster with telemetry fully disabled (null instruments).

    Compared against ``test_coop_cluster_simulation_rate`` this bounds
    the end-to-end cost of the always-on counters and trace events.
    """

    def run():
        world = build_world(version("COOP"), SMALL,
                            telemetry=Telemetry.disabled())
        world.env.run(until=30.0)
        return world.stats.issued

    issued = benchmark.pedantic(run, rounds=1, iterations=1)
    assert issued > 1000
