"""Run-report v2, NDJSON event log, Chrome DPU lanes, CLI imbalance flags."""

from __future__ import annotations

import json

from repro.cli import main
from repro.core.api import PimTriangleCounter
from repro.graph.datasets import get_dataset
from repro.observability import NdjsonLogger, new_run_id
from repro.telemetry import (
    ACCEPTED_RUN_REPORT_SCHEMAS,
    RUN_REPORT_SCHEMA,
    RunReport,
    Telemetry,
    chrome_trace,
    render_profile,
    validate_run_report,
)


def _run(detail: bool = True):
    graph = get_dataset("orkut", "tiny")
    telemetry = Telemetry(detail=detail)
    result = PimTriangleCounter(num_colors=4, seed=0, telemetry=telemetry).count(graph)
    return graph, telemetry, result


class TestRunReportV2:
    def test_schema_bumped_and_accepted(self):
        assert RUN_REPORT_SCHEMA == "repro-run-report/2"
        assert "repro-run-report/1" in ACCEPTED_RUN_REPORT_SCHEMAS
        assert RUN_REPORT_SCHEMA in ACCEPTED_RUN_REPORT_SCHEMAS

    def test_v2_report_round_trips(self):
        graph, _, result = _run()
        run_id = new_run_id()
        report = RunReport.from_result(result, graph=graph, run_id=run_id)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == "repro-run-report/2"
        assert doc["run_id"] == run_id
        assert doc["imbalance"]["num_dpus"] == result.num_dpus
        assert doc["imbalance"]["skew"]["count_seconds"]["max_over_mean"] >= 1.0
        assert doc["imbalance"]["stragglers"], "straggler table must not be empty"
        assert validate_run_report(doc) == []

    def test_v1_documents_still_validate(self):
        graph, _, result = _run()
        doc = RunReport.from_result(result, graph=graph).to_dict()
        doc["schema"] = "repro-run-report/1"
        del doc["imbalance"]
        del doc["run_id"]
        assert validate_run_report(doc) == []

    def test_unknown_schema_and_bad_imbalance_rejected(self):
        graph, _, result = _run()
        doc = RunReport.from_result(result, graph=graph).to_dict()
        bad = dict(doc, schema="repro-run-report/99")
        assert validate_run_report(bad)
        bad = json.loads(json.dumps(doc))
        bad["imbalance"]["skew"]["count_seconds"].pop("max_over_mean")
        assert validate_run_report(bad)
        bad = dict(doc, run_id=42)
        assert validate_run_report(bad)


class TestChromeDpuLanes:
    def test_one_lane_per_dpu_under_simulated_pid(self):
        _, telemetry, result = _run(detail=True)
        events = chrome_trace(telemetry)["traceEvents"]
        lane_tids = {
            e["tid"] for e in events if e.get("pid") == 2 and e.get("ph") == "X"
        } - {0}
        assert len(lane_tids) == result.num_dpus
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["pid"] == 2 and e["name"] == "thread_name"
        }
        assert any(n.startswith("dpu") for n in names)

    def test_no_detail_spans_no_lanes(self):
        _, telemetry, _ = _run(detail=False)
        events = chrome_trace(telemetry)["traceEvents"]
        lane_tids = {
            e["tid"] for e in events if e.get("pid") == 2 and e.get("ph") == "X"
        } - {0}
        assert lane_tids == set()


class TestProfileStragglers:
    def test_profile_includes_straggler_section(self):
        _, telemetry, result = _run()
        text = render_profile(telemetry, imbalance=result.imbalance)
        assert "per-DPU stragglers" in text
        assert "triplet" in text

    def test_profile_without_ledger_unchanged(self):
        _, telemetry, _ = _run()
        text = render_profile(telemetry)
        assert "per-DPU stragglers" not in text


class TestNdjsonLogger:
    def test_events_share_the_run_id(self, tmp_path):
        path = tmp_path / "events.ndjson"
        with NdjsonLogger(str(path)) as logger:
            logger.event("run_start", graph="g")
            logger.span_hook("start", "pipeline")
            logger.span_hook("end", "pipeline", wall_seconds=0.1, sim_seconds=0.2)
            logger.event("run_end", status="ok")
            run_id = logger.run_id
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["event"] for l in lines] == [
            "run_start",
            "span_start",
            "span_end",
            "run_end",
        ]
        assert {l["run_id"] for l in lines} == {run_id}
        assert all("ts" in l for l in lines)


class TestCliFlags:
    def test_imbalance_flag_prints_report(self, capsys):
        assert (
            main(["dataset:orkut", "--tier", "tiny", "--colors", "4", "--imbalance"])
            == 0
        )
        out = capsys.readouterr().out
        assert "per-DPU load imbalance" in out
        assert "stragglers" in out

    def test_imbalance_svg_written(self, tmp_path, capsys):
        svg = tmp_path / "heat.svg"
        assert (
            main(
                [
                    "dataset:orkut",
                    "--tier",
                    "tiny",
                    "--colors",
                    "4",
                    "--imbalance-svg",
                    str(svg),
                ]
            )
            == 0
        )
        assert svg.read_text().startswith("<svg")

    def test_log_json_matches_metrics_report_run_id(self, tmp_path, capsys):
        log = tmp_path / "events.ndjson"
        report = tmp_path / "report.json"
        assert (
            main(
                [
                    "dataset:orkut",
                    "--tier",
                    "tiny",
                    "--colors",
                    "4",
                    "--log-json",
                    str(log),
                    "--metrics-out",
                    str(report),
                ]
            )
            == 0
        )
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        events = [l["event"] for l in lines]
        assert events[0] == "run_start"
        assert events[-1] == "run_end"
        assert "estimate" in events
        assert "span_start" in events and "span_end" in events
        run_ids = {l["run_id"] for l in lines}
        assert len(run_ids) == 1
        doc = json.loads(report.read_text())
        assert doc["run_id"] == run_ids.pop()
        assert validate_run_report(doc) == []
