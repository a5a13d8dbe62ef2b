"""Network-fault stories: switch outages, link flaps, partition+repair."""

import pytest

from repro.experiments.configs import version
from repro.experiments.profiles import SMALL
from repro.experiments.runner import build_world
from repro.faults.types import FaultKind

pytestmark = pytest.mark.slow


class TestSwitchDown:
    def test_coop_degrades_to_singletons_and_needs_operator(self):
        world = build_world(version("COOP"), SMALL)
        env = world.env
        env.run(until=90.0)
        fault = world.injector.inject(FaultKind.SWITCH_DOWN, "switch0")
        env.run(until=150.0)
        # exclusion proceeds around the ring, one silent predecessor at a
        # time: by now every node has dropped at least one peer
        assert all(len(s.coop) < 4 for s in world.servers)
        world.injector.repair(fault)
        env.run(until=210.0)
        # ...and ends in singletons; no restart happened, so nobody
        # rejoins on its own even though the switch is back
        assert all(len(s.coop) == 1 for s in world.servers)
        world.operator_reset()
        env.run(until=300.0)
        assert all(len(s.coop) == 4 for s in world.servers)
        assert world.stats.series.mean_rate(280.0, 300.0) > \
            0.8 * world.offered_rate

    def test_membership_recovers_switch_down_without_operator(self):
        world = build_world(version("MEM"), SMALL)
        env = world.env
        env.run(until=90.0)
        world.injector.inject_for(FaultKind.SWITCH_DOWN, "switch0",
                                  duration=60.0)
        env.run(until=400.0)
        # daemons re-merge and presses re-wire, no operator involved
        assert all(len(s.coop) == 5 for s in world.servers)
        resets = world.markers.events_of("operator_reset")
        assert not resets


class TestLinkFlap:
    def test_double_flap_converges_with_membership(self):
        world = build_world(version("MQ"), SMALL)
        env = world.env
        env.run(until=90.0)
        for start in (90.0, 150.0):
            env.run(until=start)
            world.injector.inject_for(FaultKind.LINK_DOWN, "n1", duration=30.0)
        env.run(until=400.0)
        assert all(len(s.coop) == 5 for s in world.servers)
        rate = world.stats.series.mean_rate(370.0, 400.0)
        assert rate > 0.9 * world.offered_rate

    def test_coop_link_fault_isolated_node_still_serves_clients(self):
        """During a COOP link fault the isolated node keeps its client-side
        connectivity (Mendosus separates the networks), so it serves its
        DNS share from its own cache/disk."""
        world = build_world(version("COOP"), SMALL)
        env = world.env
        env.run(until=90.0)
        world.injector.inject(FaultKind.LINK_DOWN, "n1")
        env.run(until=170.0)
        n1 = world.server_on("n1")
        assert sorted(n1.coop) == [1]
        served_before = n1.requests_served
        env.run(until=200.0)
        assert n1.requests_served > served_before  # still making progress
