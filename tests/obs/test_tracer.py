"""The tracer (each world's event log) and the events components emit."""

from repro.faults.injector import FaultInjector
from repro.faults.types import FaultComponent, FaultKind
from repro.ha.frontend import FrontEnd, FrontEndConfig
from repro.ha.membership import (
    MembershipConfig,
    MembershipDaemon,
    MembershipNetwork,
    bootstrap_membership,
)
from repro.hardware.host import Host, NodeService
from repro.net.network import ClusterNetwork
from repro.obs.events import EventKind, KNOWN_KINDS, TraceEvent, sanitize
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer
from repro.sim.kernel import Environment


class TestTracer:
    def test_emit_and_query(self):
        tr = Tracer()
        tr.emit("server_start", source="n0", time=1.0, node_id=0)
        tr.emit("server_crash", source="n0", time=5.0, node_id=0)
        assert len(tr) == 2
        assert tr.first("server_crash").time == 5.0
        assert [e.kind for e in tr.events_of("server_start")] == ["server_start"]
        assert tr.first("nothing") is None

    def test_disabled_bundle_still_records(self):
        tm = Telemetry.disabled()
        tm.tracer.emit("server_start", time=0.0, node_id=0)
        assert len(tm.tracer) == 1
        assert tm.metrics.snapshot() == []

    def test_entries_are_plain_tuples(self):
        tr = Tracer()
        tr.emit("detected", time=2.0, source="0", mechanism="heartbeat")
        entry, = tr.entries
        assert isinstance(entry, TraceEvent)
        assert list(entry) == [2.0, "detected", "0", {"mechanism": "heartbeat"}]
        tr.entries.clear()  # a copy: the log is untouched
        assert len(tr) == 1

    def test_bound_clock_stamps_events(self):
        env = Environment()
        tr = Tracer()
        tr.bind_clock(env)

        def waiter():
            yield env.timeout(3.0)

        env.process(waiter())
        env.run(until=3.0)
        ev = tr.emit("server_start")
        assert ev.time == 3.0

    def test_subscribers_see_events(self):
        tr = Tracer()
        seen = []
        tr.subscribe(seen.append)
        tr.emit("server_start", time=0.0)
        assert [e.kind for e in seen] == ["server_start"]

    def test_data_sanitized_at_emit(self):
        tr = Tracer()
        ev = tr.emit("memb_view", time=0.0, members=(2, 0, 1),
                     kind_enum=FaultKind.NODE_CRASH)
        assert ev.data["members"] == [2, 0, 1]
        assert ev.data["kind_enum"] == "node_crash"

    def test_clear(self):
        tr = Tracer()
        tr.emit("server_start", time=0.0)
        tr.clear()
        assert len(tr) == 0


class TestSanitize:
    def test_primitives_pass_through(self):
        for v in (None, "x", 1, 1.5, True):
            assert sanitize(v) == v

    def test_containers_become_json_shapes(self):
        assert sanitize((1, 2)) == [1, 2]
        assert sanitize({1: (2,)}) == {"1": [2]}
        assert sanitize({3, 1, 2}) == [1, 2, 3]

    def test_fault_component(self):
        comp = FaultComponent(FaultKind.NODE_CRASH, "n1")
        assert sanitize(comp) == {"kind": "node_crash", "target": "n1"}

    def test_fallback_is_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert sanitize(Opaque()) == "<opaque>"


class _Backend(NodeService):
    service_name = "press"

    def start(self):
        pass

    @property
    def listening(self):
        return self.group.alive and self.host.is_up


def _bundle(env):
    tm = Telemetry.disabled()
    tm.attach(env)
    return tm


class TestMarkerEvent:
    """Fault-lifecycle and HA events carry the kind, payload and source
    that the trace schema in ``repro.obs.events`` documents."""

    def test_detected_triple(self):
        from tests.press.test_press_servers import build_cluster

        env = Environment()
        servers, _net, _fabric, log, _ = build_cluster(env)
        env.run(until=2.0)
        servers[1].inject_crash()
        env.run(until=4.0)
        ev = next(e for e in log.events_of("detected") if e.get("observer") == 0)
        assert ev.source == "0"
        assert ev.data == {"mechanism": "conn_reset", "observer": 0, "target": 1}

    def test_excluded_pair(self):
        from tests.press.test_press_servers import build_cluster

        env = Environment()
        servers, _net, _fabric, log, _ = build_cluster(env)
        env.run(until=2.0)
        servers[1].inject_crash()
        env.run(until=4.0)
        pairs = {(e.source, e.get("observer"), e.get("peer"))
                 for e in log.events_of("excluded")}
        assert pairs == {("0", 0, 1), ("2", 2, 1)}

    def test_fault_component_payload(self):
        env = Environment()
        tm = _bundle(env)
        injector = FaultInjector(env, {"n2": Host(env, "n2", 2)}, telemetry=tm)
        injector.repair(injector.inject(FaultKind.NODE_FREEZE, "n2"))
        assert [(e.kind, e.source, e.data) for e in tm.tracer.entries] == [
            ("fault_injected", "injector", {"fault": "node_freeze", "target": "n2"}),
            ("fault_repaired", "injector", {"fault": "node_freeze", "target": "n2"}),
        ]

    def test_membership_lists(self):
        env = Environment()
        tm = _bundle(env)
        net = ClusterNetwork(env)
        mnet = MembershipNetwork(net)
        hosts, daemons = [], []
        for i in range(4):
            host = Host(env, f"n{i}", i)
            net.attach(host)
            daemon = MembershipDaemon(host, i, mnet, MembershipConfig(), tm)
            daemon.start()
            hosts.append(host)
            daemons.append(daemon)
        bootstrap_membership(daemons)
        env.run(until=10)
        hosts[1].crash()
        env.run(until=60)
        excluded = tm.tracer.events_of("memb_excluded")
        assert excluded
        assert {e.source for e in excluded} == {"membership"}
        assert {tuple(e.get("members")) for e in excluded} == {(1,)}

    def test_frontend_labels(self):
        env = Environment()
        tm = _bundle(env)
        host = Host(env, "n1", 1)
        FrontEnd(env, Host(env, "fe0", 100), [_Backend(host)],
                 FrontEndConfig(), telemetry=tm)
        host.start_all()
        host.crash()
        env.run(until=16)  # three lost pings, 5 s apart
        detected, down = tm.tracer.entries
        assert detected == TraceEvent(15.0, "detected", "fe0", {
            "mechanism": "mon", "observer": "fe0", "target": "n1"})
        assert down == TraceEvent(15.0, "fe_node_down", "frontend",
                                  {"node": "n1"})

    def test_known_kinds_covers_vocabulary(self):
        assert EventKind.QUEUE_SATURATED in KNOWN_KINDS
        assert EventKind.MEMB_VIEW in KNOWN_KINDS
        assert EventKind.DB_FAILOVER in KNOWN_KINDS
