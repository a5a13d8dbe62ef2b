"""The benchmark's workloads, driven through the simulator's public API.

``steady-coop`` builds one world with ``build_world`` and advances it with
``Environment.run``; the two campaign workloads go through
``campaign_cells`` -> ``run_cell`` -> ``quantify_from_cell_docs``, serially
(``jobs=1``).  One call of :meth:`Workload.rep` is one repetition: it
builds everything afresh from the seed and returns a :class:`Rep` with its
timings, its simulated outputs and a chained digest of them.

Timings are kept twice: raw host seconds, and host seconds scaled to a
nominal speed of a fixed reference loop that :class:`HostClock` samples
every quarter second of the timed part.  On a shared host, neighbours
slow every process by up to half for minutes at a time; the scaled time
cancels most of that, the raw time does not.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: steady-coop: the client ramp (45 s) plus cache fill ends before this
STEADY_WARMUP = 60.0
#: steady-coop: the timed window is this many slices of SLICE sim-seconds
STEADY_SLICES = 12
STEADY_SLICE = 10.0

#: reference-loop speed that scaled seconds are expressed in (ops/s).
#: Changing it, or the loop, rebases every scaled time.
NOMINAL_REF_OPS = 7.0e6
#: host seconds between reference samples in the timed part
SAMPLE_EVERY = 0.25
#: sim-seconds per Environment.run chunk, so long runs can be sampled
RUN_CHUNK = 5.0


def ref_loop_ops_per_s(n: int = 50_000) -> float:
    """Ops/sec of a fixed pure-Python loop: the host's current speed."""
    table: Dict[int, int] = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 1023] = acc
    return n / (time.perf_counter() - t0)


class HostClock:
    """Raw and reference-scaled host seconds of the timed stretches.

    Each stretch between two reference samples is scaled by the mean of
    the two samples over :data:`NOMINAL_REF_OPS`; the samples themselves
    are not timed.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._lap = (0.0, 0.0)
        self._rate = ref_loop_ops_per_s()
        self._mark = time.perf_counter()

    def tick(self) -> None:
        stretch = time.perf_counter() - self._mark
        rate = ref_loop_ops_per_s()
        self.raw += stretch
        self.scaled += stretch * (self._rate + rate) / (2 * NOMINAL_REF_OPS)
        self._rate = rate
        self._mark = time.perf_counter()

    def lap(self) -> Tuple[float, float]:
        """(raw, scaled) seconds since the previous lap."""
        self.tick()
        raw0, scaled0 = self._lap
        self._lap = (self.raw, self.scaled)
        return self.raw - raw0, self.scaled - scaled0

    @contextmanager
    def sampled_runs(self):
        """Split every ``Environment.run(until=...)`` into RUN_CHUNK
        sim-second calls and tick every SAMPLE_EVERY host seconds.

        Processing events up to ``a`` and then up to ``b`` is the same
        event sequence as up to ``b``; the digest check confirms it.
        """
        from repro.sim.kernel import Environment

        run = Environment.run

        def sampled_run(env, until=None):
            if until is None:
                return run(env, until)
            while env.now < until:
                run(env, min(env.now + RUN_CHUNK, until))
                if time.perf_counter() - self._mark >= SAMPLE_EVERY:
                    self.tick()
            return None

        Environment.run = sampled_run
        try:
            yield
        finally:
            Environment.run = run


@dataclass
class Rep:
    """One repetition of a workload."""

    #: scaled host seconds of each timed segment, in a fixed order
    segments: List[float]
    #: raw host seconds of the same segments
    raw_segments: List[float]
    #: client requests issued in the timed simulation
    issued_timed: int
    #: kernel events processed in the timed simulation
    events_timed: int
    #: client requests issued over the whole repetition (per-req base)
    issued: int
    #: simulated outputs checked against the reference
    outputs: Dict[str, Any]
    digest: str
    worlds: List[Any] = field(default_factory=list)
    docs: List[Dict[str, Any]] = field(default_factory=list)


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr).encode("utf-8")


def digest(worlds, extra: Any = None) -> str:
    """Chained SHA-256 over marker-log entries, request outcomes, final
    clock and processed-event count of each world (then ``extra``)."""
    chain = hashlib.sha256(b"hostbench")
    for world in worlds:
        for entry in world.markers.entries:
            chain.update(_canonical(list(entry)))
        stats = world.stats
        chain.update(_canonical({
            "issued": stats.issued,
            "outcomes": {o.value: n for o, n in stats.outcomes.items()},
            "now": world.env.now,
            "processed": world.env.processed_count,
        }))
    if extra is not None:
        chain.update(_canonical(extra))
    return chain.hexdigest()


def _outcomes(worlds) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for world in worlds:
        for outcome, n in world.stats.outcomes.items():
            total[outcome.value] = total.get(outcome.value, 0) + n
    return total


def _rep(laps, **fields) -> Rep:
    return Rep(segments=[scaled for _, scaled in laps],
               raw_segments=[raw for raw, _ in laps], **fields)


class Workload:
    """A named workload: what it builds first and what one repetition runs."""

    name = ""
    why = ""
    #: the paper's value for the availability output, when it has one
    paper_availability: Optional[str] = None
    #: which of a repetition's segments are simulation
    sim_segments = slice(None)

    def first_world(self, seed: int):
        """Build the run's first world (the second half of ``setup_s``)."""
        raise NotImplementedError

    def rep(self, seed: int) -> Rep:
        raise NotImplementedError


class SteadyCoop(Workload):
    name = "steady-coop"
    why = ("COOP fault-free at 230 req/s, Zipf working set above one "
           "node's cache: the cooperative common path")

    def first_world(self, seed: int):
        from repro.experiments import runner
        from repro.experiments.configs import version
        from repro.experiments.profiles import SMALL
        from repro.obs.telemetry import Telemetry

        # Looked up at call time so the traced run's wrapper applies.
        return runner.build_world(version("COOP"), SMALL, seed=seed,
                                  telemetry=Telemetry.disabled())

    def rep(self, seed: int) -> Rep:
        world = self.first_world(seed)
        env, stats = world.env, world.stats
        env.run(until=STEADY_WARMUP)
        issued0, events0 = stats.issued, env.processed_count
        clock = HostClock()
        laps = []
        with clock.sampled_runs():
            for k in range(1, STEADY_SLICES + 1):
                env.run(until=STEADY_WARMUP + k * STEADY_SLICE)
                laps.append(clock.lap())
        t_end = STEADY_WARMUP + STEADY_SLICES * STEADY_SLICE
        outputs = {
            "issued": stats.issued,
            "outcomes": _outcomes([world]),
            # served fraction: successes among completed requests
            "availability": stats.availability(),
            "throughput": stats.window(STEADY_WARMUP, t_end)["success_rate"],
        }
        return _rep(laps, issued_timed=stats.issued - issued0,
                    events_timed=env.processed_count - events0,
                    issued=stats.issued, outputs=outputs,
                    digest=digest([world]), worlds=[world])


class Campaign(Workload):
    """Quick-campaign cells of one version, then fit and model."""

    version = ""
    kinds: Optional[Tuple[str, ...]] = None  # None: every injectable kind
    #: campaign_cells, then one segment per cell, then fit and model
    sim_segments = slice(1, -1)

    def _config(self, seed: int):
        from repro.core.quantify import QuantifyConfig
        from repro.faults.types import FaultKind

        kinds = tuple(FaultKind(k) for k in self.kinds) if self.kinds else None
        return QuantifyConfig.quick(seed=seed, kinds=kinds)

    def first_world(self, seed: int):
        from repro.core import quantify
        from repro.experiments.configs import version

        config = self._config(seed)
        return quantify.build_world(version(self.version), config.profile,
                                    seed=seed)

    def rep(self, seed: int) -> Rep:
        from repro.core import quantify

        config = self._config(seed)
        worlds: List[Any] = []
        run_single_fault = quantify.run_single_fault

        def capture(*args, **kwargs):
            trace, world = run_single_fault(*args, **kwargs)
            worlds.append(world)
            return trace, world

        clock = HostClock()
        quantify.run_single_fault = capture
        try:
            with clock.sampled_runs():
                cells = quantify.campaign_cells(self.version, config)
                laps = [clock.lap()]
                docs = []
                for cell in cells:
                    docs.append(quantify.run_cell(cell, config))
                    laps.append(clock.lap())
                va = quantify.quantify_from_cell_docs(self.version, config, docs)
                laps.append(clock.lap())
        finally:
            quantify.run_single_fault = run_single_fault
        issued = sum(w.stats.issued for w in worlds)
        outputs = {
            "issued": issued,
            "outcomes": _outcomes(worlds),
            "availability": va.availability,
            "throughput": va.normal_tput,
        }
        model = {"AA": va.availability, "AT": va.normal_tput}
        return _rep(laps, issued_timed=issued,
                    events_timed=sum(w.env.processed_count for w in worlds),
                    issued=issued, outputs=outputs,
                    digest=digest(worlds, model), worlds=worlds, docs=docs)


class CampaignIndep(Campaign):
    name = "campaign-indep"
    why = ("INDEP quick campaign over all 5 injectable kinds plus fit and "
           "model: disk-bound, no cluster network")
    version = "INDEP"
    paper_availability = "~99.95% (paper; see EXPERIMENTS.md)"


class FaultsFme(Campaign):
    name = "faults-fme"
    why = ("FME quick cells switch_down and app_hang plus fit and model: "
           "the blocking, retry and failure paths")
    version = "FME"
    kinds = ("switch_down", "app_hang")


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SteadyCoop(), CampaignIndep(), FaultsFme())
}
