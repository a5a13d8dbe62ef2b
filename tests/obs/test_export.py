"""Exporters: JSONL/CSV round trips and metrics rendering."""

import io
import json

import pytest

from repro.faults.types import FaultComponent, FaultKind
from repro.obs.export import (
    dumps_jsonl,
    event_from_dict,
    event_to_dict,
    format_metrics,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.metrics import MetricsHub
from repro.obs.trace import Tracer


def _sample_events():
    tr = Tracer()
    tr.emit("fault_injected", source="injector", time=100.0,
            fault=FaultComponent(FaultKind.NODE_CRASH, "n1"))
    tr.emit("detected", source="0", time=112.5,
            mechanism="heartbeat", observer=0, target=1)
    tr.emit("memb_view", source="n0", time=113.0,
            members=[0, 2, 3], version=7, dropped=[1], added=[])
    tr.emit("queue_saturated", source="n2", time=115.25,
            queue="n2->n1.sq", action="reroute")
    return tr.entries


class TestJsonl:
    def test_round_trip_exact(self, tmp_path):
        events = _sample_events()
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events

    def test_missing_parent_dirs_created(self, tmp_path):
        # a bare checkout has no results/ dir: --out must still work
        events = _sample_events()
        path = str(tmp_path / "results" / "nested" / "trace.jsonl")
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events

    def test_file_object_round_trip(self):
        events = _sample_events()
        buf = io.StringIO()
        write_jsonl(events, buf)
        buf.seek(0)
        assert read_jsonl(buf) == events

    def test_each_line_is_json(self):
        for line in dumps_jsonl(_sample_events()).splitlines():
            record = json.loads(line)
            assert set(record) == {"time", "kind", "source", "data"}

    def test_dict_round_trip(self):
        event = _sample_events()[0]
        assert event_from_dict(event_to_dict(event)) == event


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        events = _sample_events()
        path = str(tmp_path / "trace.csv")
        assert write_csv(events, path) == len(events)
        assert read_csv(path) == events

    def test_missing_parent_dirs_created(self, tmp_path):
        events = _sample_events()
        path = str(tmp_path / "results" / "trace.csv")
        assert write_csv(events, path) == len(events)
        assert read_csv(path) == events

    def test_header_validated(self):
        buf = io.StringIO("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(buf)

    def test_float_times_survive_exactly(self):
        events = _sample_events()
        buf = io.StringIO()
        write_csv(events, buf)
        buf.seek(0)
        assert [e.time for e in read_csv(buf)] == [e.time for e in events]


class TestMetricsExport:
    def _snapshot(self):
        hub = MetricsHub()
        hub.counter("hits", node="n0").inc(3)
        hub.gauge("depth", node="n0").set(7)
        hub.histogram("lat").observe(0.02)
        return hub.snapshot()

    def test_json_dump(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        write_metrics_json(self._snapshot(), path)
        with open(path) as fp:
            loaded = json.load(fp)
        assert loaded == self._snapshot()

    def test_format_metrics_lines(self):
        text = format_metrics(self._snapshot())
        assert "hits{node=n0}" in text
        assert "depth{node=n0}" in text
        assert "count=1" in text

    def test_empty_snapshot(self):
        assert format_metrics([]) == ""
