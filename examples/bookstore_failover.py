#!/usr/bin/env python
"""The methodology beyond PRESS: a 3-tier bookstore under database faults.

The paper notes that the same 7-stage template fits a TPC-W-style 3-tier
on-line bookstore.  This walkthrough builds the bookstore (web tier, app
tier, primary/replica database), crashes the database primary, watches
heartbeat-driven failover, then shows the blind spot: a database *disk*
fault wedges the service while the failover monitor sees nothing —
the same divergence that motivates Fault Model Enforcement.

Run:  python examples/bookstore_failover.py
"""

from repro.bookstore import build_bookstore
from repro.core.template import TemplateFitter
from repro.faults import CampaignConfig, FaultKind, SingleFaultCampaign


def timeline(world, start, end, label):
    print(f"\n{label} (4 s buckets):")
    times, rates = world.stats.series.bucketize(4.0, start, end)
    for t, r in zip(times, rates):
        print(f"  t={t:5.0f}s {r:6.1f} req/s {'#' * int(r / 4)}")


def main() -> None:
    print("=== database primary crash: detected and failed over ===")
    world = build_bookstore(rate=120.0, seed=11)
    env = world.env
    env.run(until=40.0)
    print(f"steady state: {world.stats.series.mean_rate(25, 40):.0f} req/s, "
          f"primary={world.db_cluster.primary.host.name}")
    fault = world.injector.inject(FaultKind.NODE_CRASH, world.db[0].host.name)
    env.run(until=90.0)
    world.injector.repair(fault)
    env.run(until=110.0)
    timeline(world, 36, 110, "throughput around the crash")
    print(f"failover at t={world.markers.first('db_failover').time:.1f}s; "
          f"primary is now {world.db_cluster.primary.host.name}; the rebooted "
          f"node serves as replica")

    print("\n=== database disk fault: the blind spot ===")
    world = build_bookstore(rate=120.0, seed=11)
    env = world.env
    env.run(until=40.0)
    fault = world.injector.inject(
        FaultKind.SCSI_TIMEOUT, world.db_target(FaultKind.SCSI_TIMEOUT))
    env.run(until=100.0)
    world.injector.repair(fault)
    env.run(until=130.0)
    timeline(world, 36, 130, "throughput around the disk fault")
    failover = world.markers.first("db_failover")
    print(f"failover triggered: {failover is not None} "
          "(the wedged database still heartbeats, so nothing acts — "
          "exactly what FME's direct disk probing fixes in PRESS)")

    print("\n=== the 7-stage template fits the bookstore too ===")
    world = build_bookstore(rate=120.0, seed=11)
    campaign = SingleFaultCampaign(world, CampaignConfig(
        warmup=40.0, normal_window=15.0, fault_active=60.0,
        post_repair_observe=40.0, post_reset_observe=30.0))
    trace = campaign.run(FaultKind.NODE_CRASH, world.db[0].host.name)
    template = TemplateFitter().fit(trace)
    for name in "ABCDEFG":
        stage = template.stage(name)
        print(f"  stage {name}: {stage.duration:6.1f}s @ {stage.throughput:6.1f} req/s"
              f"  [{stage.provenance}]")


if __name__ == "__main__":
    main()
