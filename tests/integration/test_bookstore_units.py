"""Bookstore tier mechanics at unit granularity (fast)."""

from repro.bookstore.config import BookstoreConfig
from repro.bookstore.tiers import DbCluster, DbServer, Dispatcher, Job, TierServer
from repro.hardware.disk import Disk, DiskParams
from repro.hardware.host import Host
from repro.obs.trace import Tracer

FAST = BookstoreConfig(
    web_cpu=1e-4, app_cpu=1e-4, db_cpu=1e-4,
    db_miss_ratio=0.0, queue_capacity=4, workers_per_node=1,
    tier_timeout=2.0, db_heartbeat=0.5, db_loss_threshold=3,
    db_promotion_time=0.5,
)


class TestConfig:
    def test_with_and_total_nodes(self):
        cfg = BookstoreConfig()
        assert cfg.total_nodes == 2 + 2 + 2
        assert cfg.with_(web_nodes=3).total_nodes == 7


class TestDispatcher:
    def test_picks_least_loaded(self, env):
        d = Dispatcher(env, FAST)
        a = TierServer(Host(env, "a", 0), "app", FAST)
        b = TierServer(Host(env, "b", 1), "app", FAST)
        for s in (a, b):
            s.start()
            d.attach(s)
        a.queue.force_put(Job(env, "x"))
        a.queue.force_put(Job(env, "x"))

        def run():
            ok = yield from d.dispatch(Job(env, "y"))
            assert ok

        env.process(run())
        env.run(until=1.0)
        # the new job went to b (a had backlog)
        assert b.jobs_done >= 1

    def test_fails_fast_with_no_targets(self, env):
        d = Dispatcher(env, FAST)
        outcome = []

        def run():
            ok = yield from d.dispatch(Job(env, "y"))
            outcome.append((env.now, ok))

        env.process(run())
        env.run(until=5.0)
        # "no server alive" is reported within the no-target patience, not
        # after the whole tier timeout (workers must not be held hostage).
        assert outcome and outcome[0][1] is False
        assert outcome[0][0] <= Dispatcher.NO_TARGET_PATIENCE + 0.2

    def test_skips_dead_servers(self, env):
        d = Dispatcher(env, FAST)
        a = TierServer(Host(env, "a", 0), "app", FAST)
        a.start()
        d.attach(a)
        a.inject_crash()
        outcome = []

        def run():
            ok = yield from d.dispatch(Job(env, "y"))
            outcome.append(ok)

        env.process(run())
        env.run(until=5.0)
        assert outcome == [False]


class TestTierServer:
    def test_processes_jobs(self, env):
        s = TierServer(Host(env, "a", 0), "app", FAST)
        s.start()
        job = Job(env, "x")
        s.queue.force_put(job)
        env.run(until=1.0)
        assert job.done.triggered
        assert s.jobs_done == 1

    def test_downstream_failure_propagates_fast(self, env):
        down = Dispatcher(env, FAST)  # empty: downstream always fails
        s = TierServer(Host(env, "a", 0), "app", FAST, downstream=down)
        s.start()
        job = Job(env, "x", queries=1)
        s.queue.force_put(job)
        env.run(until=5.0)
        assert job.done.triggered
        assert not job.succeeded  # failed, and well before the tier timeout

    def test_restart_after_crash(self, env):
        s = TierServer(Host(env, "a", 0), "app", FAST)
        s.start()
        s.inject_crash()
        s.repair_crash()
        job = Job(env, "x")
        s.queue.force_put(job)
        env.run(until=1.0)
        assert job.done.triggered


class TestDbCluster:
    def build(self, env):
        cluster = DbCluster(env, FAST, Tracer())
        servers = []
        for i in range(2):
            host = Host(env, f"db{i}", i)
            Disk(env, host, 0, DiskParams(seek_time=0.001, jitter=0.0))
            srv = DbServer(host, FAST, cluster)
            cluster.attach(srv)
            srv.start()
            servers.append(srv)
        return cluster, servers

    def test_first_attached_is_primary(self, env):
        cluster, servers = self.build(env)
        assert cluster.primary is servers[0]
        assert cluster.candidates() == [servers[0]]

    def test_failover_on_primary_crash(self, env):
        cluster, servers = self.build(env)
        env.run(until=2.0)
        servers[0].host.crash()
        env.run(until=6.0)
        assert cluster.primary is servers[1]

    def test_no_failover_while_primary_heartbeats(self, env):
        cluster, servers = self.build(env)
        env.run(until=10.0)
        assert cluster.primary is servers[0]

    def test_query_served_with_disk_miss(self, env):
        cluster, servers = self.build(env)
        cfg = FAST.with_(db_miss_ratio=1.0)
        host = Host(env, "db9", 9)
        Disk(env, host, 0, DiskParams(seek_time=0.001, jitter=0.0))
        import numpy as np

        srv = DbServer(host, cfg, DbCluster(env, cfg, Tracer()), rng=np.random.default_rng(1))
        srv.cluster.attach(srv)
        srv.start()
        job = Job(env, "q")
        srv.queue.force_put(job)
        env.run(until=1.0)
        assert job.done.triggered
        assert host.disks[0].ops_served == 1
