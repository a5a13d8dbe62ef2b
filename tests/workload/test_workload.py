"""Trace generation, stats accounting, client behaviour."""

import numpy as np
import pytest

from repro.hardware.host import Host, NodeService
from repro.workload.client import EXPIRED, ClientConfig, ClientPool, DnsRouter
from repro.workload.stats import Outcome, RequestStats
from repro.workload.trace import SyntheticTrace, TraceConfig


class TestTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(n_files=0)
        with pytest.raises(ValueError):
            TraceConfig(file_size=0)
        with pytest.raises(ValueError):
            TraceConfig(zipf_alpha=-1)

    def test_sample_range(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=50), rngs.stream("t"))
        fids = trace.sample_files(10_000)
        assert fids.min() >= 0 and fids.max() < 50

    def test_zipf_skew(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=100, zipf_alpha=1.0), rngs.stream("t"))
        fids = trace.sample_files(50_000)
        counts = np.bincount(fids, minlength=100)
        assert counts[0] > counts[10] > counts[50]

    def test_uniform_when_alpha_zero(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=10, zipf_alpha=0.0), rngs.stream("t"))
        fids = trace.sample_files(50_000)
        counts = np.bincount(fids, minlength=10)
        assert counts.min() > 0.8 * counts.max()

    def test_hit_fraction_monotone_and_bounded(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=100), rngs.stream("t"))
        fractions = [trace.hit_fraction(k) for k in (0, 10, 50, 100, 200)]
        assert fractions[0] == 0.0
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_file_size_constant(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=5, file_size=27_000), rngs.stream("t"))
        assert {trace.file_size(i) for i in range(5)} == {27_000}
        with pytest.raises(IndexError):
            trace.file_size(5)

    def test_sampling_matches_pmf(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=20, zipf_alpha=0.9), rngs.stream("t"))
        fids = trace.sample_files(200_000)
        top_share = np.mean(fids == 0)
        assert abs(top_share - trace.hit_fraction(1)) < 0.01


class TestStats:
    def test_counters(self):
        stats = RequestStats()
        stats.record_issue(0.0)
        stats.record_issue(1.0)
        stats.record_success(1.5, latency=1.5)
        stats.record_failure(2.0, Outcome.REQUEST_TIMEOUT)
        assert stats.issued == 2
        assert stats.succeeded == 1 and stats.failed == 1
        assert stats.availability() == 0.5
        assert stats.mean_latency() == 1.5

    def test_record_success_via_failure_rejected(self):
        stats = RequestStats()
        with pytest.raises(ValueError):
            stats.record_failure(0.0, Outcome.SUCCESS)

    def test_window(self):
        stats = RequestStats()
        for t in range(10):
            stats.record_issue(float(t))
            if t % 2 == 0:
                stats.record_success(float(t) + 0.1, 0.1)
        win = stats.window(0.0, 10.0)
        assert win["issued"] == 10 and win["succeeded"] == 5
        assert win["availability"] == 0.5

    def test_empty_availability_is_one(self):
        assert RequestStats().availability() == 1.0


class EchoBackend(NodeService):
    """Responds to everything after a fixed delay."""

    service_name = "press"

    def __init__(self, host, delay=0.01):
        super().__init__(host)
        self.delay = delay
        self.accepted = 0
        self._up = True

    def start(self):
        pass

    @property
    def listening(self):
        return self._up and self.group.alive and self.host.is_up

    def try_accept(self, req):
        if not self.listening:
            return False
        self.accepted += 1

        def respond():
            yield self.env.timeout(self.delay)
            req.respond()

        self.env.process(respond(), owner=self.group)
        return True


@pytest.fixture
def client_world(env, rngs):
    hosts = [Host(env, f"n{i}", i) for i in range(2)]
    backends = [EchoBackend(h) for h in hosts]
    trace = SyntheticTrace(TraceConfig(n_files=10), rngs.stream("trace"))
    stats = RequestStats()
    pool = ClientPool(env, trace, DnsRouter(backends), stats,
                      ClientConfig(request_rate=100.0), rngs.stream("clients"))
    pool.start()
    return hosts, backends, stats, pool


class TestClients:
    def test_round_robin_spreads_load(self, env, client_world):
        hosts, backends, stats, _ = client_world
        env.run(until=5)
        a, b = backends[0].accepted, backends[1].accepted
        assert abs(a - b) <= 1
        assert stats.availability() > 0.99

    def test_rate_approximates_config(self, env, client_world):
        _, _, stats, _ = client_world
        env.run(until=10)
        assert stats.issued == pytest.approx(1000, rel=0.15)

    def test_dead_node_connect_timeouts(self, env, client_world):
        hosts, backends, stats, _ = client_world
        hosts[0].crash()
        env.run(until=10)
        assert stats.outcomes[Outcome.CONNECT_TIMEOUT] > 100

    def test_crashed_app_refused(self, env, client_world):
        hosts, backends, stats, _ = client_world
        backends[0].inject_crash()
        env.run(until=10)
        assert stats.outcomes[Outcome.REFUSED] > 100
        assert stats.outcomes[Outcome.CONNECT_TIMEOUT] == 0

    def test_hung_app_request_timeouts(self, env, client_world):
        hosts, backends, stats, _ = client_world
        backends[0].inject_hang()
        env.run(until=20)
        assert stats.outcomes[Outcome.REQUEST_TIMEOUT] > 50

    def test_no_route_is_connect_timeout(self, env, rngs):
        class NullRouter(DnsRouter):
            def __init__(self):
                pass

            def pick(self, request):
                return None

        trace = SyntheticTrace(TraceConfig(n_files=10), rngs.stream("t"))
        stats = RequestStats()
        ClientPool(env, trace, NullRouter(), stats,
                   ClientConfig(request_rate=50.0), rngs.stream("c")).start()
        env.run(until=10)
        assert stats.outcomes[Outcome.CONNECT_TIMEOUT] > 200

    def test_ramp_reduces_initial_rate(self):
        cfg = ClientConfig(request_rate=100.0, ramp_time=10.0, ramp_start=0.2)
        assert cfg.rate_at(0.0) == pytest.approx(20.0)
        assert cfg.rate_at(5.0) == pytest.approx(60.0)
        assert cfg.rate_at(10.0) == 100.0
        assert cfg.rate_at(50.0) == 100.0

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            ClientConfig(request_rate=1.0, ramp_time=-1)
        with pytest.raises(ValueError):
            ClientConfig(request_rate=1.0, ramp_start=0.0)

    def test_start_idempotent(self, env, client_world):
        _, _, stats, pool = client_world
        pool.start()
        env.run(until=5)
        assert stats.issued == pytest.approx(500, rel=0.2)

    def test_late_response_after_timeout_not_double_counted(self, env, rngs):
        host = Host(env, "n0", 0)
        backend = EchoBackend(host, delay=10.0)  # beyond the 6 s timeout
        trace = SyntheticTrace(TraceConfig(n_files=10), rngs.stream("t"))
        stats = RequestStats()
        ClientPool(env, trace, DnsRouter([backend]), stats,
                   ClientConfig(request_rate=20.0), rngs.stream("c")).start()
        env.run(until=30)
        assert stats.succeeded == 0
        assert stats.outcomes[Outcome.REQUEST_TIMEOUT] > 100
        assert stats.completed <= stats.issued


class RecordingStats(RequestStats):
    """RequestStats that also keeps every failure as (time, outcome, latency)."""

    def __init__(self):
        super().__init__()
        self.failures = []

    def record_failure(self, time, outcome, latency=None):
        super().record_failure(time, outcome, latency=latency)
        self.failures.append((time, outcome, latency))


class SlowBackend(EchoBackend):
    """Records every accepted request with its accept time; replies after
    ``delay`` (``None``: never)."""

    def __init__(self, host, delay=None):
        super().__init__(host, delay=delay)
        self.log = []

    def try_accept(self, req):
        self.log.append((self.env.now, req))
        if self.delay is None:
            return True
        return super().try_accept(req)


class TestDeadlineQueue:
    """One watchdog expires every accepted request from a FIFO of deadlines."""

    def _pool(self, env, rngs, backend, stats, rate=20.0):
        trace = SyntheticTrace(TraceConfig(n_files=10), rngs.stream("t"))
        cfg = ClientConfig(request_rate=rate)
        ClientPool(env, trace, DnsRouter([backend]), stats, cfg,
                   rngs.stream("c")).start()
        return cfg

    def test_unanswered_request_expires_exactly_at_its_deadline(self, env, rngs):
        backend = SlowBackend(Host(env, "n0", 0), delay=None)
        stats = RecordingStats()
        cfg = self._pool(env, rngs, backend, stats)
        env.run(until=20)
        expired = [(t, req) for t, req in backend.log
                   if t + cfg.request_timeout <= 20]
        assert len(expired) > 50
        assert len(stats.failures) == len(expired)
        for (t_accept, req), (t_fail, outcome, latency) in zip(expired,
                                                              stats.failures):
            assert outcome is Outcome.REQUEST_TIMEOUT
            assert t_fail == t_accept + cfg.request_timeout  # exactly
            # the censored give-up latency: connect round trip + timeout
            assert latency == t_fail - req.created
            assert latency == pytest.approx(cfg.network_rtt
                                            + cfg.request_timeout)
            assert req.expired and req.response.value is EXPIRED

    def test_reply_after_expiry_is_counted_once(self, env, rngs):
        backend = SlowBackend(Host(env, "n0", 0), delay=7.0)
        stats = RecordingStats()
        cfg = self._pool(env, rngs, backend, stats)
        env.run(until=20)
        late = [req for t, req in backend.log if t + backend.delay <= 20]
        assert len(late) > 50
        assert all(req.response.value is EXPIRED for req in late)
        assert stats.succeeded == 0
        expired = sum(1 for t, _ in backend.log
                      if t + cfg.request_timeout <= 20)
        assert stats.outcomes[Outcome.REQUEST_TIMEOUT] == expired
        assert len(stats.failures) == expired

    def test_answered_requests_leave_no_deadlines_in_the_heap(self, env, rngs):
        backend = SlowBackend(Host(env, "n0", 0), delay=0.01)
        stats = RequestStats()
        cfg = self._pool(env, rngs, backend, stats, rate=100.0)
        env.run(until=5.5)
        assert stats.succeeded > 400
        # Every answered request's deadline lies at or after
        # request_timeout; only the watchdog's one wake-up may.
        later = [entry for entry in env._queue
                 if entry[0] >= cfg.request_timeout]
        assert len(later) <= 1


class TestBlockDraws:
    """Gaps and file ids are drawn in numpy blocks but must equal the
    scalar draws one request at a time, through the warm-up ramp."""

    def test_first_requests_match_the_scalar_sequence(self, env, rngs):
        class RecordingRouter(DnsRouter):
            def __init__(self):
                self.fids = []

            def pick(self, request):
                self.fids.append(request.fid)
                return None  # no route: nothing else draws or schedules

        cfg = ClientConfig(request_rate=30.0, ramp_time=45.0)
        trace = SyntheticTrace(TraceConfig(n_files=100), rngs.stream("t"))
        router, stats = RecordingRouter(), RequestStats()
        ClientPool(env, trace, router, stats, cfg, rngs.stream("c")).start()
        env.run(until=60.0)
        assert stats.issued > 1000

        ref = type(rngs)(rngs.master_seed)
        gaps_rng, fids_rng = ref.stream("c"), ref.stream("t")
        cdf = SyntheticTrace(TraceConfig(n_files=100), fids_rng)._cdf
        now, times, fids = 0.0, [], []
        while len(times) < stats.issued:
            now = now + float(gaps_rng.exponential(1.0 / cfg.rate_at(now)))
            times.append(now)
            fids.append(int(np.searchsorted(cdf, fids_rng.random(),
                                            side="right")))
        assert sum(t < cfg.ramp_time for t in times) > 500
        assert stats.issued_series.times.tolist() == times
        assert router.fids == fids
