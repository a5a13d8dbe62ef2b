"""The per-world telemetry bundle.

One :class:`Telemetry` object travels with a
:class:`~repro.experiments.runner.World`: a structured tracer, a metrics
hub, and (opt-in) a causal span recorder.  Kernel profiling is not part
of the bundle: pass a :class:`~repro.obs.kernelprof.KernelProfiler` as
``build_world(monitor=...)``.  ``build_world`` creates an enabled
bundle by default; pass ``Telemetry.disabled()`` for zero-overhead runs
(every instrument degrades to a null object and the kernel keeps its
monitor-free fast path).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsHub
from repro.obs.spans import SpanRecorder
from repro.obs.trace import TracedMarkerLog, Tracer


class Telemetry:
    """Tracer + metrics registry + optional span recorder for one world.

    ``trace_requests`` additionally records a ``request_ok`` event per
    successful request — precise but memory-hungry; off by default
    (successes are always *counted* in metrics, and failures are always
    traced as discrete events).

    ``trace_max_events`` caps the tracer's in-memory retention (ring
    buffer).  The drop count is exposed both as ``tracer.dropped`` and —
    when metrics are enabled — as the ``trace_events_dropped`` counter in
    the hub.  Unset (the default), nothing changes: the stream is
    unbounded and no extra metric series is registered, so existing
    digests are untouched.

    ``trace_spans=True`` turns on causal request tracing
    (:mod:`repro.obs.spans`): per-request span trees threaded through
    client, front-end, PRESS servers, peer fetches, and disk queues.
    ``span_sample`` is the deterministic head-sampling rate (keyed on
    ``req_id`` with ``span_seed``), and ``span_max_requests`` ring-
    bounds retention per request tree.  Off by default: no contexts are
    created, so the simulation is event-identical to an untraced run.
    """

    __slots__ = ("enabled", "tracer", "metrics", "trace_requests",
                 "spans", "trace_spans")

    def __init__(self, enabled: bool = True, trace_requests: bool = False,
                 trace_max_events: Optional[int] = None,
                 trace_spans: bool = False, span_sample: float = 1.0,
                 span_seed: int = 0,
                 span_max_requests: Optional[int] = None):
        self.enabled = enabled
        self.metrics = MetricsHub(enabled=enabled)
        drop_counter = (self.metrics.counter("trace_events_dropped")
                        if (enabled and trace_max_events is not None) else None)
        self.tracer = Tracer(enabled=enabled, max_events=trace_max_events,
                             drop_counter=drop_counter)
        self.trace_requests = bool(enabled and trace_requests)
        self.trace_spans = bool(enabled and trace_spans)
        self.spans = SpanRecorder(enabled=self.trace_spans,
                                  sample=span_sample, seed=span_seed,
                                  max_requests=span_max_requests)

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(enabled=False)

    def attach(self, env) -> None:
        """Bind to a simulation environment (clocks + span hooks)."""
        self.tracer.bind_clock(env)
        if self.trace_spans:
            # Only bind when tracing is on: env.spans stays None on the
            # untraced fast path (transport/fabric check it per send).
            self.spans.bind_clock(env)
            env.bind_spans(self.spans)

    def marker_log(self) -> TracedMarkerLog:
        """A MarkerLog that mirrors every mark into the tracer."""
        return TracedMarkerLog(self.tracer)


#: Shared do-nothing bundle for components constructed without telemetry.
NULL_TELEMETRY = Telemetry.disabled()
