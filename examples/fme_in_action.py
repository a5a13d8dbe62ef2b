#!/usr/bin/env python
"""Fault Model Enforcement resolving a view divergence, live.

Scenario (paper Sections 4.4-4.5): the application on one node hangs.
The membership daemon on that node is a separate process, so the
published membership view still lists the node; queue monitoring on the
peers keeps kicking it out; the reconciliation thread keeps re-adding
it.  This script shows the oscillation on an MQ deployment, then reruns
the same fault on an FME deployment, where the per-node FME daemon
probes the application over HTTP, finds the disks healthy, and enforces
the fault model by restarting the app — a fault everything already
knows how to handle.

Run:  python examples/fme_in_action.py
"""

from repro.experiments import SMALL, build_world, version
from repro.faults import FaultKind


def run_scenario(version_name: str) -> None:
    print(f"--- {version_name} deployment, application hang on n1 ---")
    world = build_world(version(version_name), SMALL, seed=7)
    env = world.env
    env.run(until=90.0)
    world.injector.inject_for(FaultKind.APP_HANG, "n1", duration=120.0)
    env.run(until=240.0)

    churn = [e for e in world.markers.events_of("excluded") if e.time >= 90.0]
    readds = [e for e in world.markers.events_of("reintegrated") if e.time >= 90.0]
    fme_restarts = world.markers.events_of("fme_restart")
    served = world.stats.window(90.0, 210.0)

    print(f"  exclusions of n1 after the hang: {len(churn)}")
    print(f"  re-additions:                    {len(readds)}")
    if fme_restarts:
        t0 = fme_restarts[0].time
        print(f"  FME enforced crash-restart at t={t0:.1f}s "
              f"({t0 - 90.0:.1f}s after the hang)")
    print(f"  throughput during the fault window: "
          f"{served['success_rate']:.0f} req/s "
          f"(availability {served['availability']:.3f})")
    print()


def main() -> None:
    # MQ: membership + queue monitoring but no FME -> remove/re-add churn.
    run_scenario("MQ")
    # FME: the same fault is converted to an application crash-restart.
    run_scenario("FME")
    print("note how FME turns minutes of churn into one quick restart —")
    print("the un-modeled fault was transformed into a modeled one.")


if __name__ == "__main__":
    main()
