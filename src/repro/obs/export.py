"""Trace and metrics exporters: JSONL and CSV, with lossless round trip.

One JSONL line per event::

    {"time": 105.2, "kind": "fault_injected", "source": "injector",
     "data": {"fault": "node_crash", "target": "n1"}}

Because events are sanitized to JSON primitives at emit time
(:func:`repro.obs.events.sanitize`), ``read_jsonl(write_jsonl(events))``
reproduces the events exactly — the property the round-trip tests pin.

CSV columns are ``time,kind,source,data`` with ``data`` JSON-encoded, so
spreadsheet tools get sortable columns without losing structure.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Dict, Iterable, List, Optional, TextIO, Union

from repro.obs.events import TraceEvent

PathOrFile = Union[str, TextIO]


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    return {"time": event.time, "kind": event.kind, "source": event.source,
            "data": event.data}


def event_from_dict(d: Dict[str, Any]) -> TraceEvent:
    return TraceEvent(time=float(d["time"]), kind=str(d["kind"]),
                      source=str(d.get("source", "")), data=dict(d.get("data", {})))


def filter_events(events: Iterable[TraceEvent],
                  kinds: Optional[Iterable[str]] = None,
                  components: Optional[Iterable[str]] = None,
                  limit: Optional[int] = None) -> List[TraceEvent]:
    """Select events by kind and/or source component, capped at ``limit``.

    The shared selection layer behind ``repro trace`` / ``repro spans``
    filters; empty/None selectors pass everything through.
    """
    kind_set = {str(k) for k in kinds} if kinds else None
    comp_set = {str(c) for c in components} if components else None
    out: List[TraceEvent] = []
    for ev in events:
        if kind_set is not None and ev.kind not in kind_set:
            continue
        if comp_set is not None and ev.source not in comp_set:
            continue
        out.append(ev)
        if limit is not None and len(out) >= limit:
            break
    return out


def _open_for_write(dst: PathOrFile):
    if isinstance(dst, str):
        # a bare checkout has no results/ dir yet: create parents so
        # --out paths work on the first run
        parent = os.path.dirname(dst)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return open(dst, "w", encoding="utf-8"), True
    return dst, False


def _open_for_read(src: PathOrFile):
    if isinstance(src, str):
        return open(src, "r", encoding="utf-8"), True
    return src, False


# -- JSONL ---------------------------------------------------------------
def write_jsonl(events: Iterable[TraceEvent], dst: PathOrFile) -> int:
    """Write one JSON object per line; returns the number of events."""
    fp, owned = _open_for_write(dst)
    try:
        n = 0
        for event in events:
            fp.write(json.dumps(event_to_dict(event), sort_keys=True))
            fp.write("\n")
            n += 1
        return n
    finally:
        if owned:
            fp.close()


def read_jsonl(src: PathOrFile) -> List[TraceEvent]:
    fp, owned = _open_for_read(src)
    try:
        return [event_from_dict(json.loads(line))
                for line in fp if line.strip()]
    finally:
        if owned:
            fp.close()


def dumps_jsonl(events: Iterable[TraceEvent]) -> str:
    buf = io.StringIO()
    write_jsonl(events, buf)
    return buf.getvalue()


def jsonl_subscriber(fp: TextIO):
    """A :meth:`Tracer.subscribe` callback streaming each event to ``fp``.

    This is the "fully exporting" observability configuration: every
    event is serialized at emit time, and nothing accumulates in memory
    beyond the tracer's own retention window.
    """
    def _write(event: TraceEvent) -> None:
        fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        fp.write("\n")

    return _write


# -- CSV -----------------------------------------------------------------
_CSV_FIELDS = ("time", "kind", "source", "data")


def write_csv(events: Iterable[TraceEvent], dst: PathOrFile) -> int:
    fp, owned = _open_for_write(dst)
    try:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        n = 0
        for event in events:
            writer.writerow([repr(event.time), event.kind, event.source,
                             json.dumps(event.data, sort_keys=True)])
            n += 1
        return n
    finally:
        if owned:
            fp.close()


def read_csv(src: PathOrFile) -> List[TraceEvent]:
    fp, owned = _open_for_read(src)
    try:
        reader = csv.reader(fp)
        header = next(reader, None)
        if header is not None and tuple(header) != _CSV_FIELDS:
            raise ValueError(f"unexpected CSV header {header!r}")
        return [
            TraceEvent(time=float(row[0]), kind=row[1], source=row[2],
                       data=json.loads(row[3]))
            for row in reader if row
        ]
    finally:
        if owned:
            fp.close()


# -- metrics -------------------------------------------------------------
def write_metrics_json(snapshot: List[Dict[str, Any]], dst: PathOrFile) -> None:
    """Persist a MetricsHub snapshot as a JSON array."""
    fp, owned = _open_for_write(dst)
    try:
        json.dump(snapshot, fp, sort_keys=True, indent=2)
        fp.write("\n")
    finally:
        if owned:
            fp.close()


def format_metrics(snapshot: List[Dict[str, Any]]) -> str:
    """Human-readable one-line-per-series rendering of a snapshot."""
    lines = []
    for record in snapshot:
        labels = record.get("labels") or {}
        label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        series = f"{record['name']}{{{label_str}}}" if label_str else record["name"]
        if record["type"] == "counter":
            lines.append(f"{series:<52} {record['value']:g}")
        elif record["type"] == "gauge":
            lines.append(f"{series:<52} {record['value']:g} "
                         f"(max {record['max']:g})")
        else:  # histogram
            line = (f"{series:<52} count={record['count']} "
                    f"sum={record['sum']:.4g}")
            if "p50" in record:
                quantiles = " ".join(
                    f"{q}={record[q]:.4g}" if record[q] != float("inf")
                    else f"{q}=inf"
                    for q in ("p50", "p90", "p99")
                )
                line += f" {quantiles}"
            lines.append(line)
    return "\n".join(lines)
