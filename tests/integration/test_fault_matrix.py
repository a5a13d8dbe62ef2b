"""Integration: the qualitative per-(version, fault) behaviours of Section 6.

These run real single-fault experiments on the SMALL profile (shortened
windows) and assert the *shapes* the paper reports, not exact numbers.
Marked slow; deselect with ``-m "not slow"`` for quick iterations.
"""

import pytest

from repro.core.quantify import QuantifyConfig, run_single_fault
from repro.experiments.configs import version
from repro.faults.types import FaultKind

pytestmark = pytest.mark.slow

CFG = QuantifyConfig.quick()


def run(vname, kind):
    return run_single_fault(version(vname), kind, CFG)


class TestCoopPropagation:
    def test_disk_fault_stalls_whole_cluster_then_splinters(self):
        trace, world = run("COOP", FaultKind.SCSI_TIMEOUT)
        # Stage A ends in a cluster-wide stall: some 5 s window inside the
        # fault drops below 20% of normal.
        _, rates = trace.series.bucketize(5.0, trace.t_inject, trace.t_repair)
        assert rates.min() < 0.2 * trace.normal_tput
        # Detection happened via heartbeat loss, not instantly.
        assert trace.t_detect is not None
        assert 5.0 < trace.t_detect - trace.t_inject < 40.0
        # The faulty node splinters and never reintegrates -> operator reset.
        assert trace.t_reset is not None

    def test_node_crash_recovers_without_operator(self):
        trace, world = run("COOP", FaultKind.NODE_CRASH)
        assert trace.t_reset is None  # rejoin-on-restart works in base PRESS
        assert all(len(s.coop) == 4 for s in world.servers)

    def test_freeze_splinters_until_reset(self):
        trace, world = run("COOP", FaultKind.NODE_FREEZE)
        assert trace.t_reset is not None
        post_reset = world.stats.series.mean_rate(trace.t_end - 20, trace.t_end)
        assert post_reset > 0.4 * trace.normal_tput  # reset re-forms the cluster

    def test_app_crash_detected_fast_via_connection_reset(self):
        trace, _ = run("COOP", FaultKind.APP_CRASH)
        assert trace.t_detect is not None
        assert trace.t_detect - trace.t_inject < 2.0


class TestTechniqueSignatures:
    def test_mem_blind_to_scsi(self):
        """Membership alone: a disk fault stalls the cluster for the whole
        fault duration (the daemons keep answering heartbeats)."""
        trace, _ = run("MEM", FaultKind.SCSI_TIMEOUT)
        tail = trace.series.mean_rate(trace.t_repair - 20, trace.t_repair)
        assert tail < 0.4 * trace.normal_tput
        # ...and nothing ever detects the fault (the membership daemons
        # keep heartbeating happily).
        assert trace.t_detect is None

    def test_mem_reintegrates_frozen_node(self):
        trace, world = run("MEM", FaultKind.NODE_FREEZE)
        assert all(len(s.coop) == 5 for s in world.servers)
        assert trace.t_reset is None

    def test_qmon_keeps_cluster_alive_through_scsi(self):
        trace, world = run("QMON", FaultKind.SCSI_TIMEOUT)
        during = trace.series.mean_rate(trace.t_detect or trace.t_inject,
                                        trace.t_repair)
        assert during > 0.6 * trace.normal_tput

    def test_qmon_does_not_reintegrate(self):
        trace, world = run("QMON", FaultKind.SCSI_TIMEOUT)
        # Queue monitoring detects failures but never re-integrates: either
        # the node is still excluded at the end, or only an operator reset
        # brought it back.
        healthy = world.server_on("n0")
        assert (trace.t_reset is not None) or (1 not in healthy.coop)

    def test_mq_oscillates_on_app_hang(self):
        """Queue monitor removes, membership re-adds: Section 4.4's conflict."""
        _, world = run("MQ", FaultKind.APP_HANG)
        exclusions = [e for e in world.markers.events_of("detected")
                      if e.get("mechanism") == "qmon" and e.get("target") == 1]
        assert len(exclusions) >= 2  # removed more than once

    def test_fme_converts_hang_to_restart(self):
        trace, world = run("FME", FaultKind.APP_HANG)
        assert world.markers.first("fme_restart") is not None
        during = trace.series.mean_rate(trace.t_inject + 20, trace.t_repair)
        assert during > 0.85 * trace.normal_tput

    def test_fme_takes_node_offline_on_disk_fault(self):
        trace, world = run("FME", FaultKind.SCSI_TIMEOUT)
        assert world.markers.first("fme_offline") is not None
        # ...and the node boots back once the disk is repaired.
        assert world.host_by_name("n1").is_up
        assert all(len(s.coop) == 5 for s in world.servers)

    def test_frontend_masks_node_crash(self):
        trace, world = run("FE-X", FaultKind.NODE_CRASH)
        tail = trace.series.mean_rate(trace.t_repair - 20, trace.t_repair)
        assert tail > 0.85 * trace.normal_tput  # spare capacity absorbs it

    def test_sfme_pulls_isolated_node_from_rotation(self):
        _, world = run("S-FME", FaultKind.LINK_DOWN)
        assert world.markers.first("sfme_offline") is not None


class TestIndepIsolation:
    def test_fault_on_one_node_leaves_others_at_speed(self):
        trace, world = run("INDEP", FaultKind.NODE_CRASH)
        during = trace.series.mean_rate(trace.t_inject + 5, trace.t_repair)
        # DNS keeps sending 1/4 of the clients to the dead node; the rest
        # of the service is untouched.
        assert during == pytest.approx(0.75 * trace.normal_tput, rel=0.15)
        assert trace.t_reset is None
