"""End-to-end causal tracing: ctx threads the whole cluster and the
blame report exposes the paper's mechanism.

The acceptance criterion for the tracing layer: during/after a node
crash, COOP's p99 critical paths show ``peer_fetch`` hops (cooperative
fault propagation — peers stall on the dead node), while the matching
FME run's recovery-phase tails stay local.  And span tracing must be a
pure observer: with it on, the structured event stream is byte-identical
to a run with it off.  More broadly, no telemetry configuration — nor a
kernel profiler attached as the world's monitor — may perturb the
simulation: every one yields the same chained digest.
"""

import hashlib
import json
import os

import pytest

from repro.core.quantify import QuantifyConfig, run_single_fault
from repro.experiments.configs import version
from repro.faults.types import FaultKind
from repro.obs.export import event_to_dict, jsonl_subscriber
from repro.obs.kernelprof import KernelProfiler
from repro.obs.spans import blame_report, phases_from_trace
from repro.obs.telemetry import Telemetry

pytestmark = pytest.mark.slow


def _node_crash_blame(version_name):
    telemetry = Telemetry(trace_spans=True)
    run_single_fault(version(version_name), FaultKind.NODE_CRASH,
                     QuantifyConfig.quick(), telemetry=telemetry)
    phases = phases_from_trace(telemetry.tracer.entries)
    report = blame_report(telemetry.spans.trees(), percentile=99.0,
                          phases=phases)
    return telemetry, report


def _after_phase(report):
    for phase in report["phases"]:
        if phase["label"].startswith("after"):
            return phase
    raise AssertionError(
        f"no after-phase in {[p['label'] for p in report['phases']]}")


class TestCoopVsFmeBlame:
    @pytest.fixture(scope="class")
    def coop(self):
        return _node_crash_blame("COOP")

    @pytest.fixture(scope="class")
    def fme(self):
        return _node_crash_blame("FME")

    def test_trees_recorded_without_drops(self, coop):
        telemetry, report = coop
        assert report["requests"] > 0
        assert telemetry.spans.dropped == 0

    def test_coop_recovery_tail_blames_peer_fetch(self, coop):
        _, report = coop
        after = _after_phase(report)
        assert after["groups"], "COOP after-phase has no tail groups"
        assert any("peer_fetch" in g["signature"] for g in after["groups"]), \
            f"no peer_fetch on COOP p99 paths: {after['groups']}"

    def test_fme_recovery_tail_stays_local(self, fme):
        _, report = fme
        after = _after_phase(report)
        assert all("peer_fetch" not in g["signature"]
                   for g in after["groups"]), \
            f"peer_fetch on FME p99 recovery paths: {after['groups']}"

    def test_fme_probe_rounds_traced_but_excluded_from_blame(self, fme):
        telemetry, report = fme
        probe_ids = [r for r in telemetry.spans.request_ids if r < 0]
        assert probe_ids, "FME probe rounds should open monitoring spans"
        tree = telemetry.spans.tree(probe_ids[0])
        assert tree[0].name == "fme_probe"
        # monitoring trees never count toward the request blame total
        positive = [r for r in telemetry.spans.request_ids if r > 0]
        assert report["requests"] == len(positive)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr).encode("utf-8")


def world_digest(world):
    """Chained SHA-256 over telemetry-independent simulation outputs:
    the event-log entries, request outcomes, final clock and the
    kernel's processed-event count."""
    chain = hashlib.sha256(b"repro-telemetry-invariance")
    for entry in world.markers.entries:
        chain.update(_canonical(list(entry)))
    chain.update(_canonical({
        "issued": world.stats.issued,
        "outcomes": {str(k): v for k, v in world.stats.outcomes.items()},
        "now": world.env.now,
        "processed": world.env.processed_count,
    }))
    return chain.hexdigest()


class TestWorldDigest:
    """The oracle's digest must notice what it claims to cover."""

    def _world(self, marks=((1.0, "detected", "x"),), now=50.0,
               processed=100):
        from types import SimpleNamespace

        from repro.obs.trace import Tracer

        markers = Tracer()
        for t, label, data in marks:
            markers.emit(label, time=t, mechanism=data)
        return SimpleNamespace(
            env=SimpleNamespace(now=now, processed_count=processed),
            markers=markers,
            stats=SimpleNamespace(issued=5, outcomes={"ok": 5}),
        )

    def test_deterministic(self):
        assert world_digest(self._world()) == world_digest(self._world())

    def test_sensitive_to_markers(self):
        a = world_digest(self._world(marks=((1.0, "detected", "x"),)))
        b = world_digest(self._world(marks=((1.0, "detected", "y"),)))
        assert a != b

    def test_sensitive_to_clock_and_event_count(self):
        base = world_digest(self._world())
        assert world_digest(self._world(now=51.0)) != base
        assert world_digest(self._world(processed=101)) != base

    def test_hex_sha256(self):
        digest = world_digest(self._world())
        assert len(digest) == 64
        int(digest, 16)


def _node_crash_digest(telemetry, monitor=None):
    _trace, world = run_single_fault(version("COOP"), FaultKind.NODE_CRASH,
                                     QuantifyConfig.quick(),
                                     telemetry=telemetry, monitor=monitor)
    return world_digest(world)


def _exporting(sink):
    telemetry = Telemetry()
    telemetry.tracer.subscribe(jsonl_subscriber(sink))
    return telemetry


#: every observability configuration: name -> (telemetry, monitor) factory
#: (the factory receives an open os.devnull sink for the exporting case)
TELEMETRY_CONFIGS = {
    "disabled": lambda sink: (Telemetry.disabled(), None),
    "unsubscribed": lambda sink: (Telemetry(), None),
    "jsonl-export": lambda sink: (_exporting(sink), None),
    "spans": lambda sink: (Telemetry(trace_spans=True), None),
    "kernel-profiler": lambda sink: (Telemetry(), KernelProfiler()),
}


class TestZeroPerturbation:
    """Telemetry is a pure observer: one chained digest across every
    configuration, and span tracing leaves the event stream unchanged."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _node_crash_digest(Telemetry.disabled())

    @pytest.mark.parametrize("config", sorted(TELEMETRY_CONFIGS))
    def test_digest_identical(self, config, reference):
        with open(os.devnull, "w", encoding="utf-8") as sink:
            telemetry, monitor = TELEMETRY_CONFIGS[config](sink)
            digest = _node_crash_digest(telemetry, monitor)
        assert digest == reference, config
        if monitor is not None:
            assert monitor.events_processed > 0
            assert monitor.wall_seconds > 0.0

    def test_event_stream_identical_with_tracing_on(self):
        config = QuantifyConfig.quick()
        plain = Telemetry()
        run_single_fault(version("COOP"), FaultKind.NODE_CRASH, config,
                         telemetry=plain)
        traced = Telemetry(trace_spans=True)
        run_single_fault(version("COOP"), FaultKind.NODE_CRASH, config,
                         telemetry=traced)
        a = [event_to_dict(e) for e in plain.tracer.entries]
        b = [event_to_dict(e) for e in traced.tracer.entries]
        assert len(traced.spans) > 0
        assert a == b
