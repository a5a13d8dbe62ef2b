"""Runtime determinism sanitizer: ``repro sanitize``.

Static rules catch the *patterns* that break reproducibility; this
module checks the property itself.  The same campaign is run twice in
subprocesses with the same master seed but **different**
``PYTHONHASHSEED`` values, and the chained trace-event digests plus the
final metrics snapshot are diffed.  Any divergence means some code path
still leaks hash-iteration order (or worse, wall-clock state) into the
event stream — exactly the nondeterminism that would smear the paper's
7-stage template fits across runs.

Two modes:

``smoke``
    A fixed short scenario (COOP/SMALL, node freeze at t=80, run to
    t=140).  Fast enough for a test-suite gate.

``campaign`` (default)
    A full single-fault campaign via
    :func:`repro.core.quantify.run_single_fault` with quick windows —
    what the CI sanitize job runs.

The per-run fingerprint is produced by ``repro digest`` (same package,
:func:`campaign_fingerprint`), so a human can also inspect one run's
chain directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: 3: the document gained "tiebreak_seed" (schedule-perturbation runs)
FINGERPRINT_SCHEMA = 3

#: hash seeds chosen for the two runs; any distinct pair works, these are
#: merely reproducible documentation of "two different salts".
DEFAULT_HASH_SEEDS = (101, 202)


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def run_scenario(version_name: str, fault: str, seed: int, telemetry,
                 quick: bool = True, smoke: bool = False,
                 tiebreak_seed: Optional[int] = None,
                 monitor=None) -> Tuple[Any, Dict[str, Any]]:
    """Run the smoke scenario or one campaign; return ``(world, observables)``.

    The smoke scenario is COOP-style: SMALL profile, run to t=80, inject
    ``fault`` on ``n1`` for 30 s, run to t=140; its observables are the
    request totals.  Otherwise one quick (or full) single-fault campaign
    runs and the observables are its stage timeline.  Events, metrics and
    spans land in ``telemetry``; ``tiebreak_seed`` and ``monitor`` are
    passed to the world builder.  Both determinism checkers (this module
    and :mod:`repro.analysis.racecheck`) run their scenarios through here.
    """
    # Imports deferred: `repro lint` must not drag the simulator in.
    from repro.core.quantify import QuantifyConfig, run_single_fault
    from repro.experiments.configs import version
    from repro.faults.types import FaultKind

    spec = version(version_name)
    if smoke:
        from repro.experiments.profiles import SMALL
        from repro.experiments.runner import build_world

        world = build_world(spec, SMALL, seed=seed, telemetry=telemetry,
                            tiebreak_seed=tiebreak_seed, monitor=monitor)
        world.env.run(until=80.0)
        world.injector.inject_for(FaultKind(fault), "n1", duration=30.0)
        world.env.run(until=140.0)
        stats = world.stats
        return world, {
            "issued": stats.issued,
            "succeeded": stats.succeeded,
            "outcomes": {str(k): v for k, v in sorted(stats.outcomes.items())},
        }
    from dataclasses import replace

    # REPRO_QUICK is still honoured when --quick is not passed.
    config = QuantifyConfig.quick(seed=seed) if quick else \
        replace(QuantifyConfig.from_env(), seed=seed)
    trace, world = run_single_fault(spec, FaultKind(fault), config,
                                    telemetry=telemetry,
                                    tiebreak_seed=tiebreak_seed,
                                    monitor=monitor)
    return world, {
        "t_inject": trace.t_inject,
        "t_detect": trace.t_detect,
        "t_repair": trace.t_repair,
        "t_reset": trace.t_reset,
        "t_end": trace.t_end,
        "normal_tput": trace.normal_tput,
    }


def campaign_fingerprint(version_name: str, fault: str, seed: int,
                         quick: bool = True, smoke: bool = False,
                         tiebreak_seed: Optional[int] = None) -> Dict[str, Any]:
    """Run one experiment in-process and fingerprint everything observable.

    Returns a JSON-safe document with a chained per-event digest (so two
    fingerprints can be diffed down to the first diverging event), a
    final trace digest, a metrics digest, and the stage timeline.

    ``tiebreak_seed`` perturbs the kernel's same-instant event order
    (see :mod:`repro.analysis.racecheck`); a fingerprint taken under a
    tie-break seed is only comparable to another with the same seed.
    """
    from repro.experiments.configs import version
    from repro.obs.export import event_to_dict
    from repro.obs.spans import spans_digest
    from repro.obs.telemetry import Telemetry

    spec = version(version_name)
    # Span tracing rides along so the double-run check also pins the
    # causal span trees (ids, parentage, sampling) across hash seeds.
    telemetry = Telemetry(trace_spans=True)
    _, timeline = run_scenario(version_name, fault, seed, telemetry,
                               quick=quick, smoke=smoke,
                               tiebreak_seed=tiebreak_seed)
    events = telemetry.tracer.entries
    metrics = telemetry.metrics.snapshot()

    chain = hashlib.sha256()
    entries: List[Dict[str, Any]] = []
    for i, event in enumerate(events):
        chain.update(_canonical(event_to_dict(event)))
        entries.append({"i": i, "t": event.time, "kind": event.kind,
                        "h": chain.hexdigest()[:12]})
    trace_digest = chain.hexdigest()
    metrics_digest = hashlib.sha256(_canonical(metrics)).hexdigest()
    span_digest = spans_digest(telemetry.spans.spans())
    overall = hashlib.sha256(
        _canonical({"trace": trace_digest, "metrics": metrics_digest,
                    "spans": span_digest, "timeline": timeline})).hexdigest()
    return {
        "schema": FINGERPRINT_SCHEMA,
        "mode": "smoke" if smoke else "campaign",
        "version": spec.name,
        "fault": fault,
        "seed": seed,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED", "unset"),
        "tiebreak_seed": tiebreak_seed,
        "n_events": len(entries),
        "events": entries,
        "trace_digest": trace_digest,
        "metrics_digest": metrics_digest,
        "spans_digest": span_digest,
        "n_spans": len(telemetry.spans),
        "timeline": timeline,
        "digest": overall,
    }


# ---------------------------------------------------------------------------
# double-run orchestration


@dataclass
class Divergence:
    """First point where the two runs' observable streams split."""

    index: int
    a: Optional[Dict[str, Any]]
    b: Optional[Dict[str, Any]]

    def describe(self) -> str:
        def show(entry: Optional[Dict[str, Any]]) -> str:
            if entry is None:
                return "<stream ended>"
            return f"event {entry['i']} t={entry['t']:.3f} {entry['kind']} ({entry['h']})"

        return f"first divergence at index {self.index}:\n" \
               f"  run A: {show(self.a)}\n  run B: {show(self.b)}"


@dataclass
class SanitizeResult:
    """Outcome of one double-run determinism check."""

    ok: bool
    hash_seeds: Tuple[int, int]
    runs: List[Dict[str, Any]] = field(default_factory=list)
    divergence: Optional[Divergence] = None
    trace_match: bool = True
    metrics_match: bool = True
    spans_match: bool = True
    timeline_match: bool = True

    def to_dict(self) -> Dict[str, Any]:
        def strip(doc: Dict[str, Any]) -> Dict[str, Any]:
            return {k: v for k, v in doc.items() if k != "events"}

        out: Dict[str, Any] = {
            "ok": self.ok,
            "hash_seeds": list(self.hash_seeds),
            "trace_match": self.trace_match,
            "metrics_match": self.metrics_match,
            "spans_match": self.spans_match,
            "timeline_match": self.timeline_match,
            "runs": [strip(r) for r in self.runs],
        }
        if self.divergence is not None:
            out["divergence"] = {
                "index": self.divergence.index,
                "a": self.divergence.a,
                "b": self.divergence.b,
            }
        return out


def compare_fingerprints(a: Dict[str, Any], b: Dict[str, Any],
                         hash_seeds: Tuple[int, int]) -> SanitizeResult:
    """Diff two fingerprints; locate the first diverging trace event."""
    result = SanitizeResult(ok=True, hash_seeds=hash_seeds, runs=[a, b])
    result.trace_match = a["trace_digest"] == b["trace_digest"]
    result.metrics_match = a["metrics_digest"] == b["metrics_digest"]
    # .get: schema-1 fingerprints predate span tracing; two of those
    # still compare equal (None == None) rather than failing the check.
    result.spans_match = a.get("spans_digest") == b.get("spans_digest")
    result.timeline_match = a["timeline"] == b["timeline"]
    if not result.trace_match:
        ea, eb = a["events"], b["events"]
        idx = min(len(ea), len(eb))
        for i in range(idx):
            if ea[i]["h"] != eb[i]["h"]:
                idx = i
                break
        result.divergence = Divergence(
            index=idx,
            a=ea[idx] if idx < len(ea) else None,
            b=eb[idx] if idx < len(eb) else None,
        )
    result.ok = (result.trace_match and result.metrics_match
                 and result.spans_match and result.timeline_match)
    return result


def _subprocess_fingerprint(version_name: str, fault: str, seed: int,
                            hash_seed: int, quick: bool,
                            smoke: bool) -> Dict[str, Any]:
    cmd = [sys.executable, "-m", "repro", "digest", version_name, fault,
           "--seed", str(seed)]
    if quick and not smoke:
        cmd.append("--quick")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # Make sure the child resolves the same `repro` package we are running.
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"digest subprocess (PYTHONHASHSEED={hash_seed}) failed "
            f"rc={proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def run_sanitize(version_name: str = "coop", fault: str = "node_crash",
                 seed: int = 0,
                 hash_seeds: Sequence[int] = DEFAULT_HASH_SEEDS,
                 quick: bool = True, smoke: bool = False) -> SanitizeResult:
    """The double-run check: same master seed, two hash seeds, diff."""
    ha, hb = int(hash_seeds[0]), int(hash_seeds[1])
    if ha == hb:
        raise ValueError("hash seeds must differ for the check to mean anything")
    a = _subprocess_fingerprint(version_name, fault, seed, ha, quick, smoke)
    b = _subprocess_fingerprint(version_name, fault, seed, hb, quick, smoke)
    return compare_fingerprints(a, b, (ha, hb))


def format_sanitize(result: SanitizeResult) -> str:
    a, b = result.runs
    lines = [
        f"determinism sanitizer: {a['version']}/{a['fault']} seed={a['seed']} "
        f"mode={a['mode']}",
        f"  run A (PYTHONHASHSEED={result.hash_seeds[0]}): "
        f"{a['n_events']} events, trace {a['trace_digest'][:16]}…",
        f"  run B (PYTHONHASHSEED={result.hash_seeds[1]}): "
        f"{b['n_events']} events, trace {b['trace_digest'][:16]}…",
        f"  trace digests:   {'MATCH' if result.trace_match else 'DIVERGE'}",
        f"  metrics digests: {'MATCH' if result.metrics_match else 'DIVERGE'}",
        f"  span digests:    {'MATCH' if result.spans_match else 'DIVERGE'}",
        f"  stage timeline:  {'MATCH' if result.timeline_match else 'DIVERGE'}",
    ]
    if result.divergence is not None:
        lines.append("  " + result.divergence.describe().replace("\n", "\n  "))
    lines.append("OK: bit-reproducible across hash seeds" if result.ok
                 else "FAIL: run is sensitive to PYTHONHASHSEED")
    return "\n".join(lines)
