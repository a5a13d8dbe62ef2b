"""Structured trace events: the schema of the telemetry stream.

A :class:`TraceEvent` is one timestamped, typed record.  The ``kind``
field is drawn from the :class:`EventKind` vocabulary below; ``source``
names the component that observed the occurrence (a host name,
``"frontend"``, ``"injector"``, ...); ``data`` carries kind-specific
fields, always as JSON-serializable primitives so a trace survives an
export/parse round trip unchanged.

Event vocabulary (the trace schema)
-----------------------------------

=====================  ========================================================
kind                   data fields
=====================  ========================================================
``fault_injected``     ``fault`` (kind string), ``target``
``fault_repaired``     ``fault``, ``target``
``detected``           ``mechanism``, ``observer``, ``target``
``excluded``           ``observer``, ``peer``
``reintegrated``       ``peer``
``rejoined``           ``node``
``memb_view``          ``members`` (list), ``version`` (int)
``memb_excluded``      ``members`` dropped from the view
``memb_added``         ``members`` added to the view
``fme_offline``        ``node`` taken offline by FME
``fme_restart``        ``node`` whose application FME restarted
``sfme_offline``       ``node`` forced out of rotation by S-FME
``fe_node_down``       ``node`` removed from the front-end table
``fe_node_up``         ``node`` re-added to the front-end table
``fe_failed``          ``node`` (the front-end host)
``fe_takeover``        ``node``
``fe_repaired``        ``node``
``server_start``       ``node_id``
``server_crash``       ``node_id``
``queue_saturated``    ``queue``, ``action`` (reroute/dropped/qmon_failed)
``request_failed``     ``fid``, ``outcome``
``operator_reset``     ``fault``, ``target``
``db_failover``        ``node`` promoted to bookstore database primary
``auction_election``   ``node`` elected auction data master
``span``               one causal span (see :mod:`repro.obs.spans`)
=====================  ========================================================
"""

from __future__ import annotations

import enum
from typing import Any, Dict, NamedTuple


class EventKind:
    """String constants for the trace-event vocabulary."""

    FAULT_INJECTED = "fault_injected"
    FAULT_REPAIRED = "fault_repaired"
    DETECTED = "detected"
    EXCLUDED = "excluded"
    REINTEGRATED = "reintegrated"
    REJOINED = "rejoined"
    MEMB_VIEW = "memb_view"
    MEMB_EXCLUDED = "memb_excluded"
    MEMB_ADDED = "memb_added"
    FME_OFFLINE = "fme_offline"
    FME_RESTART = "fme_restart"
    SFME_OFFLINE = "sfme_offline"
    FE_NODE_DOWN = "fe_node_down"
    FE_NODE_UP = "fe_node_up"
    FE_FAILED = "fe_failed"
    FE_TAKEOVER = "fe_takeover"
    FE_REPAIRED = "fe_repaired"
    SERVER_START = "server_start"
    SERVER_CRASH = "server_crash"
    QUEUE_SATURATED = "queue_saturated"
    REQUEST_FAILED = "request_failed"
    OPERATOR_RESET = "operator_reset"
    DB_FAILOVER = "db_failover"
    AUCTION_ELECTION = "auction_election"
    SPAN = "span"


#: Every kind the schema above documents.
KNOWN_KINDS = frozenset(
    v for k, v in vars(EventKind).items() if not k.startswith("_")
)


class TraceEvent(NamedTuple):
    """One timestamped, typed telemetry record (treat ``data`` as read-only)."""

    time: float
    kind: str
    source: str = ""
    data: Dict[str, Any] = {}

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


def sanitize(value: Any) -> Any:
    """Coerce ``value`` into JSON-serializable primitives.

    Applied at emit time so that export -> parse reproduces the event
    exactly (tuples become lists, enums become their values, and so on).
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return sanitize(value.value)
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((sanitize(v) for v in value), key=repr)
    kind = getattr(value, "kind", None)
    target = getattr(value, "target", None)
    if kind is not None and target is not None:  # FaultComponent shape
        return {"kind": sanitize(kind), "target": sanitize(target)}
    return repr(value)
