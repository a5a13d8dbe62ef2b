"""Request accounting.

Availability in the paper is "the percentage of requests served
successfully"; throughput is successful requests per second.  The stats
object therefore records, with timestamps, every issue and every success,
plus categorized failures.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

import numpy as np

from repro.sim.rng import BLOCK
from repro.sim.series import ThroughputSeries


def _replacement_indices(rng: np.random.Generator, seen: int):
    """Algorithm R's ``integers(0, k)`` for k = seen+1, seen+2, ...

    One call per block: numpy draws an array of bounds element by
    element, exactly as it draws the scalars.
    """
    while True:
        yield from rng.integers(0, np.arange(seen + 1, seen + BLOCK + 1)).tolist()
        seen += BLOCK


class LatencyReservoir:
    """Fixed-size uniform reservoir of response latencies.

    Keeps percentile queries O(k) in memory regardless of run length
    (Vitter's algorithm R); deterministic given a seed.
    """

    __slots__ = ("capacity", "_samples", "_seen", "_rng", "_picks")

    def __init__(self, capacity: int = 4096, seed: int = 0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._samples: list = []
        self._seen = 0
        self._rng = np.random.default_rng(seed)
        self._picks = _replacement_indices(self._rng, capacity)

    def add(self, value: float) -> None:
        self._seen += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        j = next(self._picks)
        if j < self.capacity:
            self._samples[j] = value

    def percentile(self, q: float) -> float:
        """q in [0, 100]; 0.0 when no samples were recorded."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, q))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def seen(self) -> int:
        return self._seen


class Outcome(str, enum.Enum):
    SUCCESS = "success"
    CONNECT_TIMEOUT = "connect_timeout"  # 2 s, no connection established
    REQUEST_TIMEOUT = "request_timeout"  # 6 s, connected but unanswered
    REFUSED = "refused"  # RST / backlog overflow


class RequestStats:
    """Counters + time series for one experiment run."""

    __slots__ = ("issued", "outcomes", "series", "issued_series",
                 "latency_sum", "latencies", "censored_latencies")

    def __init__(self) -> None:
        self.issued = 0
        self.outcomes: Dict[Outcome, int] = {o: 0 for o in Outcome}
        self.series = ThroughputSeries("success")  # successful completions
        self.issued_series = ThroughputSeries("issued")
        self.latency_sum = 0.0
        self.latencies = LatencyReservoir()
        # Censored samples: the give-up latency of failed requests (time
        # until the client abandoned them).  Kept in a separate reservoir
        # so the success percentiles stay comparable with earlier runs,
        # while tail queries during faults can avoid survivorship bias.
        self.censored_latencies = LatencyReservoir(seed=1)

    # -- recording ----------------------------------------------------------
    def record_issue(self, time: float) -> None:
        self.issued += 1
        self.issued_series.record(time)

    def record_success(self, time: float, latency: float) -> None:
        self.outcomes[Outcome.SUCCESS] += 1
        self.latency_sum += latency
        self.latencies.add(latency)
        self.series.record(time)

    def record_failure(self, time: float, outcome: Outcome,
                       latency: Optional[float] = None) -> None:
        """Count a failed request; ``latency`` (when known) is the
        censored give-up latency — time from issue to abandonment."""
        if outcome is Outcome.SUCCESS:
            raise ValueError("use record_success for successes")
        self.outcomes[outcome] += 1
        if latency is not None:
            self.censored_latencies.add(latency)

    # -- summary -------------------------------------------------------------
    @property
    def succeeded(self) -> int:
        return self.outcomes[Outcome.SUCCESS]

    @property
    def failed(self) -> int:
        return sum(n for o, n in self.outcomes.items() if o is not Outcome.SUCCESS)

    @property
    def completed(self) -> int:
        return self.succeeded + self.failed

    def availability(self) -> float:
        """Fraction of completed requests that succeeded."""
        done = self.completed
        return self.succeeded / done if done else 1.0

    def mean_latency(self) -> float:
        return self.latency_sum / self.succeeded if self.succeeded else 0.0

    def latency_percentile(self, q: float) -> float:
        """Approximate latency percentile from the success reservoir."""
        return self.latencies.percentile(q)

    def censored_latency_percentile(self, q: float) -> float:
        """Give-up latency percentile of failed (expired) requests."""
        return self.censored_latencies.percentile(q)

    def window(self, t0: float, t1: float) -> Dict[str, float]:
        """Issue/success counts and rates within [t0, t1)."""
        issued = self.issued_series.count(t0, t1)
        ok = self.series.count(t0, t1)
        dt = max(t1 - t0, 1e-12)
        return {
            "issued": issued,
            "succeeded": ok,
            "issue_rate": issued / dt,
            "success_rate": ok / dt,
            "availability": ok / issued if issued else 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RequestStats issued={self.issued} ok={self.succeeded} "
            f"fail={self.failed} avail={self.availability():.4f}>"
        )
