#!/usr/bin/env python
"""Per-operation-class availability: the auction service under a master
crash.

The methodology measures availability as the fraction of requests served
— but for services with asymmetric operations the *same fault* can have
wildly different per-class impact. The auction's data tier is a master
with read replicas: crash the master and bids (writes) fail until the
election completes, while browsing (reads) barely notices.

Run:  python examples/auction_read_write.py
"""

from repro.auction import build_auction
from repro.faults import FaultKind


def window(stats, t0, t1):
    return stats.window(t0, t1)["availability"]


def main() -> None:
    world = build_auction(read_rate=100.0, write_rate=25.0, seed=2)
    env = world.env

    env.run(until=30.0)
    print(f"steady state ({world.data_cluster.master.host.name} is master):")
    print(f"  read availability:  {window(world.read_stats, 15, 30):.3f}")
    print(f"  write availability: {window(world.write_stats, 15, 30):.3f}")

    master = world.data_cluster.master.host.name
    print(f"\ncrashing the data master ({master})...")
    fault = world.injector.inject(FaultKind.NODE_CRASH, master)
    env.run(until=60.0)
    election = world.markers.first("auction_election")
    print(f"  election won by {world.data_cluster.master.host.name} "
          f"at t={election.time:.1f}s")
    print(f"  during detection+election [30..46]:")
    print(f"    read availability:  {window(world.read_stats, 32, 46):.3f}"
          "   <- replicas keep serving")
    print(f"    write availability: {window(world.write_stats, 32, 46):.3f}"
          "   <- no master to accept bids")

    world.injector.repair(fault)
    env.run(until=90.0)
    print(f"  after election [60..90]:")
    print(f"    read availability:  {window(world.read_stats, 60, 90):.3f}")
    print(f"    write availability: {window(world.write_stats, 60, 90):.3f}")
    print(f"  rebooted node rejoined as replica; no failback "
          f"(master: {world.data_cluster.master.host.name})")

    print("\nper-5s write availability timeline:")
    t = 25.0
    while t < 70.0:
        issued = world.write_stats.issued_series.count(t, t + 5)
        ok = world.write_stats.series.count(t, t + 5)
        avail = ok / issued if issued else 1.0
        print(f"  t={t:4.0f}s  {avail:5.2f}  {'#' * int(avail * 40)}")
        t += 5.0


if __name__ == "__main__":
    main()
