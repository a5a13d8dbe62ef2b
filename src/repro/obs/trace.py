"""The structured event log of one world.

:class:`Tracer` is the append-only stream of :class:`~repro.obs.events.TraceEvent`
records.  Components emit fault-lifecycle and HA events into it directly
(``tracer.emit(EventKind.DETECTED, source=..., **fields)``), and it is
the only event log a world keeps: ``World.markers`` is this object, and
the 7-stage template fitter reads its ``detected`` events.  It therefore
always records, whatever the rest of the telemetry bundle does.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.obs.events import TraceEvent, sanitize


class Tracer:
    """Append-only, typed event log."""

    __slots__ = ("_events", "_env", "_subscribers")

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._env = None
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    # -- wiring ----------------------------------------------------------
    def bind_clock(self, env) -> None:
        """Use ``env.now`` for events emitted without an explicit time."""
        self._env = env

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        """Call ``fn(event)`` for every event emitted from now on."""
        self._subscribers.append(fn)

    # -- emission --------------------------------------------------------
    def emit(self, kind: str, source: str = "", time: Optional[float] = None,
             **data: Any) -> TraceEvent:
        """Record one event (``data`` is sanitized to JSON primitives)."""
        if time is None:
            time = self._env.now if self._env is not None else 0.0
        event = TraceEvent(float(time), kind, source,
                           {k: sanitize(v) for k, v in data.items()})
        self._events.append(event)
        for fn in self._subscribers:
            fn(event)
        return event

    # -- access ----------------------------------------------------------
    @property
    def entries(self) -> List[TraceEvent]:
        """A copy of every event recorded so far, in emission order."""
        return list(self._events)

    def events_of(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def first(self, kind: str) -> Optional[TraceEvent]:
        for e in self._events:
            if e.kind == kind:
                return e
        return None

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
