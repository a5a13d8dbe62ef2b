"""The per-world telemetry bundle.

One :class:`Telemetry` object travels with a
:class:`~repro.experiments.runner.World`: a structured tracer, a metrics
hub, and (opt-in) a causal span recorder.  Kernel profiling is not part
of the bundle: pass a :class:`~repro.obs.kernelprof.KernelProfiler` as
``build_world(monitor=...)``.  ``build_world`` creates an enabled
bundle by default; pass ``Telemetry.disabled()`` to turn metrics and
spans off (their instruments degrade to null objects).  The tracer is
the world's event log and records in either case.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsHub
from repro.obs.spans import SpanRecorder
from repro.obs.trace import Tracer


class Telemetry:
    """Tracer + metrics registry + optional span recorder for one world.

    ``enabled=False`` turns the metrics hub (and span tracing) off; the
    tracer records regardless.

    ``trace_spans=True`` turns on causal request tracing
    (:mod:`repro.obs.spans`): per-request span trees threaded through
    client, front-end, PRESS servers, peer fetches, and disk queues.
    ``span_sample`` is the deterministic head-sampling rate (keyed on
    ``req_id`` with ``span_seed``), and ``span_max_requests`` ring-
    bounds retention per request tree.  Off by default: no contexts are
    created, so the simulation is event-identical to an untraced run.
    """

    __slots__ = ("tracer", "metrics", "spans", "trace_spans")

    def __init__(self, enabled: bool = True, trace_spans: bool = False,
                 span_sample: float = 1.0, span_seed: int = 0,
                 span_max_requests: Optional[int] = None):
        self.metrics = MetricsHub(enabled=enabled)
        self.tracer = Tracer()
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
