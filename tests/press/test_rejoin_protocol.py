"""The base rejoin protocol (Section 3) in detail."""

from repro.net.message import Message
from tests.press.test_press_servers import FAST, build_cluster, submit


class TestRejoin:
    def test_lowest_id_member_answers(self, env):
        servers, net, fabric, log, _ = build_cluster(env)
        env.run(until=2.0)
        servers[1].inject_crash()
        env.run(until=4.0)
        servers[1].repair_crash()
        env.run(until=8.0)
        # node 0 (lowest id of the remaining cluster) answered with the
        # configuration; node 1 is wired to everyone again
        assert sorted(servers[1].coop) == [0, 1, 2]
        assert log.first("rejoined") is not None

    def test_rejoiner_receives_cache_state(self, env):
        servers, *_ = build_cluster(env)
        submit(env, servers[0], 5)
        submit(env, servers[2], 9)
        env.run(until=2.0)
        servers[1].inject_crash()
        env.run(until=4.0)
        servers[1].repair_crash()
        env.run(until=10.0)
        # cache_sync repopulated the rejoiner's directory
        assert servers[1].directory.holders(5) == {0}
        assert servers[1].directory.holders(9) == {2}

    def test_rejoin_retries_until_config_arrives(self, env):
        servers, net, fabric, log, _ = build_cluster(env)
        env.run(until=2.0)
        servers[1].inject_crash()
        net.switch.up = False  # first rejoin broadcast will be lost
        env.run(until=4.0)
        servers[1].repair_crash()
        env.run(until=10.0)
        assert sorted(servers[1].coop) == [1]  # still alone
        net.switch.up = True
        env.run(until=10.0 + FAST.rejoin_retry + 5.0)
        assert sorted(servers[1].coop) == [0, 1, 2]

    def test_staggered_restarts_reform(self, env):
        """Two nodes crash and restart at different times; each rejoin is
        sequenced through the surviving lowest-id member.  (A *simultaneous*
        full-cluster restart has no surviving member to sequence it — that
        case is the operator's bootstrap, covered by World.operator_reset.)"""
        servers, *_ = build_cluster(env)
        env.run(until=2.0)
        servers[1].inject_crash()
        servers[2].inject_crash()
        env.run(until=4.0)
        servers[1].repair_crash()
        env.run(until=12.0)
        assert sorted(servers[1].coop) == [0, 1]
        servers[2].repair_crash()
        env.run(until=25.0)
        for srv in servers:
            assert sorted(srv.coop) == [0, 1, 2]

    def test_splintered_node_does_not_rejoin_without_restart(self, env):
        servers, *_ = build_cluster(env)
        env.run(until=2.0)
        servers[1].host.freeze()
        env.run(until=25.0)
        servers[1].host.unfreeze()
        env.run(until=25.0 + 3 * FAST.rejoin_retry)
        # never restarted => never broadcast => stays alone (the paper's
        # fault-model violation)
        assert sorted(servers[1].coop) == [1]

    def test_config_ignored_once_joined(self, env):
        servers, net, fabric, log, _ = build_cluster(env)
        env.run(until=2.0)
        # a stray config message must not re-wire an already-joined node
        links_before = set(servers[1].links)
        servers[1].ctl_q.force_put(
            Message("config", 0, 1, {"members": [0]}))
        env.run(until=3.0)
        assert set(servers[1].links) == links_before

    def test_reintegration_marker_on_peer_side(self, env):
        servers, net, fabric, log, _ = build_cluster(env)
        env.run(until=2.0)
        servers[1].inject_crash()
        env.run(until=4.0)
        servers[1].repair_crash()
        env.run(until=10.0)
        reintegrated = [e.get("peer") for e in log.events_of("reintegrated")]
        assert 1 in reintegrated
