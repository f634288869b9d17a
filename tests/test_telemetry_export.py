"""Exporters: run reports, schema validation, CSV, Chrome trace, profile."""

from __future__ import annotations

import json
import re

import pytest

from repro import PimTriangleCounter
from repro.telemetry import (
    RUN_REPORT_SCHEMA,
    MetricsRegistry,
    RunReport,
    SpanRecord,
    Telemetry,
    chrome_trace,
    metrics_to_csv,
    render_profile,
    validate_run_report,
    write_chrome_trace,
)


@pytest.fixture
def run(small_graph):
    tel = Telemetry(detail=True)
    counter = PimTriangleCounter(num_colors=3, seed=1, telemetry=tel)
    result = counter.count(small_graph)
    return result, tel


class TestRunReport:
    def test_from_result_validates(self, small_graph, run):
        result, _ = run
        report = RunReport.from_result(
            result, graph=small_graph, config={"colors": 3, "seed": 1}
        )
        data = report.to_dict()
        assert data["schema"] == RUN_REPORT_SCHEMA
        assert validate_run_report(data) == []
        assert data["graph"]["num_edges"] == small_graph.num_edges
        assert data["config"]["colors"] == 3
        assert data["result"]["count"] == result.count
        paths = [s["path"] for s in data["spans"]["spans"]]
        assert paths == ["setup", "sample_creation", "triangle_count"]

    def test_metrics_sections_split(self, run):
        result, _ = run
        data = RunReport.from_result(result).to_dict()
        assert "pim.edges_routed" in data["metrics"]
        assert all(not k.startswith("executor.worker_wall") for k in data["metrics"])

    def test_write_json_roundtrip(self, tmp_path, run):
        result, _ = run
        out = tmp_path / "report.json"
        RunReport.from_result(result).write_json(str(out))
        assert validate_run_report(json.loads(out.read_text())) == []

    def test_telemetry_free_result_yields_empty_sections(self, triangle_graph):
        counter = PimTriangleCounter(num_colors=2, seed=1, telemetry=Telemetry(enabled=False))
        report = RunReport.from_result(counter.count(triangle_graph))
        assert report.spans["spans"] == []
        assert report.metrics == {}


class TestValidation:
    def test_rejects_wrong_schema(self):
        errors = validate_run_report({"schema": "nope"})
        assert any("schema" in e for e in errors)

    def test_rejects_non_object(self):
        assert validate_run_report([]) == ["report: not a JSON object"]

    def test_flags_missing_sections_and_bad_spans(self):
        data = {
            "schema": RUN_REPORT_SCHEMA,
            "graph": {},
            "config": {},
            "result": {"phases": {}, "estimate": 0, "num_colors": 1, "num_dpus": 1},
            "spans": {"spans": [{"name": "x"}]},
            "metrics": {"m": {"kind": "rocket"}},
            "volatile_metrics": {},
        }
        errors = validate_run_report(data)
        assert any("span missing 'path'" in e for e in errors)
        assert any("unknown kind 'rocket'" in e for e in errors)


class TestCsv:
    def test_flattens_every_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        csv = metrics_to_csv(reg.snapshot())
        lines = csv.strip().splitlines()
        assert lines[0] == "name,kind,field,value"
        assert "c,counter,value,2.0" in lines
        assert "g,gauge,value,7.0" in lines
        assert "h,histogram,le_1.0,1" in lines
        assert "h,histogram,le_inf,0" in lines
        assert "h,histogram,count,1" in lines


class TestChromeTrace:
    def test_wall_and_sim_tracks(self, run):
        _, tel = run
        doc = chrome_trace(tel)
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        pids = {e["pid"] for e in events}
        assert pids == {1, 2}
        span_events = [e for e in events if e.get("cat") == "span"]
        assert {"setup", "sample_creation", "triangle_count"} <= {
            e["name"] for e in span_events
        }
        sim_events = [
            e for e in events if e["pid"] == 2 and e["ph"] == "X" and e["tid"] == 0
        ]
        paths = [
            s.path
            for top in tel.root.children
            for s in top.walk()
            if not re.match(r"dpu\d+$", s.name)
        ]
        assert [e["args"]["path"] for e in sim_events] == paths
        # simulated track is laid out in recording order
        starts = [e["ts"] for e in sim_events]
        assert starts == sorted(starts)
        # and each top-level phase starts where the previous one ended
        tops = [e for e in sim_events if "/" not in e["args"]["path"]]
        for prev, nxt in zip(tops, tops[1:]):
            assert nxt["ts"] == pytest.approx(prev["ts"] + prev["dur"])

    def test_nesting_depth_maps_to_tid(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        events = [e for e in chrome_trace(tel)["traceEvents"] if e.get("cat") == "span"]
        by_name = {e["name"]: e for e in events}
        assert by_name["outer"]["tid"] == 0
        assert by_name["inner"]["tid"] == 1

    def test_write_chrome_trace(self, tmp_path):
        tel = Telemetry()
        with tel.span("x"):
            pass
        out = tmp_path / "trace.json"
        write_chrome_trace(str(out), tel)
        data = json.loads(out.read_text())
        assert any(e.get("name") == "x" for e in data["traceEvents"])


class TestProfile:
    def test_aggregates_and_sorts_by_sim_self(self):
        tel = Telemetry()
        with tel.span("launch"):
            tel.attach_records(
                [SpanRecord(name="dpu0", wall_seconds=0.0, sim_seconds=0.5)]
            )
        with tel.span("scatter"):
            pass
        with tel.span("scatter"):
            pass
        text = render_profile(tel)
        lines = text.splitlines()
        assert lines[0].split() == [
            "span", "calls", "sim", "total", "sim", "self",
            "wall", "total", "wall", "self",
        ]
        # dpu0 carries all simulated self-time, so it ranks first
        assert lines[1].startswith("launch/dpu0")
        scatter_row = next(l for l in lines if l.startswith("scatter"))
        assert scatter_row.split()[1] == "2"  # two calls aggregated

    def test_no_negative_self_times(self, run):
        _, tel = run
        for line in render_profile(tel).splitlines()[1:]:
            assert "-" not in line.split(None, 1)[1]
