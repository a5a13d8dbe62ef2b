"""Latency reservoir and percentile queries."""

import numpy as np
import pytest

from repro.workload.stats import LatencyReservoir, RequestStats


class TestReservoir:
    def test_exact_below_capacity(self):
        r = LatencyReservoir(capacity=100)
        for v in range(1, 11):
            r.add(float(v))
        assert r.percentile(50) == pytest.approx(5.5)
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 10.0

    def test_bounded_memory(self):
        r = LatencyReservoir(capacity=64)
        for v in range(10_000):
            r.add(float(v))
        assert len(r) == 64
        assert r.seen == 10_000

    def test_sampling_tracks_distribution(self):
        rng = np.random.default_rng(1)
        r = LatencyReservoir(capacity=2000, seed=2)
        data = rng.exponential(1.0, 50_000)
        for v in data:
            r.add(float(v))
        true_p90 = float(np.percentile(data, 90))
        assert r.percentile(90) == pytest.approx(true_p90, rel=0.15)

    def test_empty(self):
        assert LatencyReservoir().percentile(99) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)
        with pytest.raises(ValueError):
            LatencyReservoir().percentile(101)

    def test_deterministic_by_seed(self):
        def fill(seed):
            r = LatencyReservoir(capacity=16, seed=seed)
            for v in range(1000):
                r.add(float(v))
            return sorted(r._samples)

        assert fill(3) == fill(3)

    def test_block_draws_equal_scalar_algorithm_r(self):
        """Replacement indices are drawn a block at a time; the contents
        must equal algorithm R with one scalar draw per add."""
        capacity, seed = 500, 4
        values = np.random.default_rng(9).exponential(1.0, 3 * capacity)
        r = LatencyReservoir(capacity=capacity, seed=seed)
        rng = np.random.default_rng(seed)
        ref = []
        for seen, v in enumerate(values.tolist(), start=1):
            r.add(v)
            if len(ref) < capacity:
                ref.append(v)
            else:
                j = int(rng.integers(0, seen))
                if j < capacity:
                    ref[j] = v
        assert r.seen == len(values)
        assert r._samples == ref


class TestStatsIntegration:
    def test_percentiles_from_successes(self):
        stats = RequestStats()
        for i in range(100):
            stats.record_issue(float(i))
            stats.record_success(float(i) + 0.5, latency=0.01 * (i + 1))
        assert stats.latency_percentile(50) == pytest.approx(0.505, rel=0.05)
        assert stats.latency_percentile(95) > stats.latency_percentile(50)
        assert stats.mean_latency() == pytest.approx(0.505, rel=0.01)
