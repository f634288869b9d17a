"""repro-count command-line tool."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph.datasets import get_dataset
from repro.graph.io import write_edge_list
from repro.graph.triangles import count_triangles


class TestDatasetSpecs:
    def test_exact_count_printed(self, capsys):
        assert main(["dataset:orkut", "--tier", "tiny", "--colors", "4"]) == 0
        out = capsys.readouterr().out
        truth = count_triangles(get_dataset("orkut", "tiny"))
        assert f"triangles (exact): {truth}" in out

    def test_uniform_sampling_mode(self, capsys):
        assert main(
            ["dataset:orkut", "--tier", "tiny", "--colors", "4", "--uniform-p", "0.5"]
        ) == 0
        assert "estimated" in capsys.readouterr().out

    def test_trials_report_mean_std(self, capsys):
        assert main(
            [
                "dataset:v1r",
                "--tier",
                "tiny",
                "--colors",
                "4",
                "--uniform-p",
                "0.5",
                "--trials",
                "3",
            ]
        ) == 0
        assert "+/-" in capsys.readouterr().out

    def test_local_mode_prints_top_nodes(self, capsys):
        assert main(
            ["dataset:wikipedia", "--tier", "tiny", "--colors", "3", "--local", "--top", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "top 2 nodes" in out
        assert out.count("node ") >= 2

    def test_misra_gries_flag(self, capsys):
        assert main(
            [
                "dataset:wikipedia",
                "--tier",
                "tiny",
                "--colors",
                "4",
                "--misra-gries",
                "256:8",
            ]
        ) == 0

    def test_bad_mg_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["dataset:orkut", "--misra-gries", "1024"])

    def test_partitioner_flag(self, capsys):
        truth = count_triangles(get_dataset("wikipedia", "tiny"))
        assert main(
            ["dataset:wikipedia", "--tier", "tiny", "--colors", "4",
             "--partitioner", "degree"]
        ) == 0
        assert f"triangles (exact): {truth}" in capsys.readouterr().out

    def test_auto_partitioner_prints_decision(self, capsys):
        assert main(
            ["dataset:wikipedia", "--tier", "tiny", "--colors", "4",
             "--partitioner", "auto"]
        ) == 0
        out = capsys.readouterr().out
        assert "auto-tune: strategy=" in out


class TestTelemetryFlags:
    def test_metrics_out_writes_valid_run_report(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_run_report

        out = tmp_path / "report.json"
        assert main(
            ["dataset:orkut", "--tier", "tiny", "--colors", "4",
             "--metrics-out", str(out)]
        ) == 0
        assert f"metrics report written to {out}" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert validate_run_report(data) == []
        assert data["config"]["tier"] == "tiny"
        assert data["graph"]["name"]

    def test_metrics_out_csv(self, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(
            ["dataset:orkut", "--tier", "tiny", "--colors", "4",
             "--metrics-out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "name,kind,field,value"
        assert any(l.startswith("pim.edges_routed,histogram,") for l in lines)

    def test_chrome_trace_has_both_tracks(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(
            ["dataset:orkut", "--tier", "tiny", "--colors", "4",
             "--chrome-trace", str(out)]
        ) == 0
        assert "chrome trace written" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        assert {e["pid"] for e in events} == {1, 2}

    def test_profile_prints_span_table(self, capsys):
        assert main(
            ["dataset:orkut", "--tier", "tiny", "--colors", "4", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "sim self" in out
        assert "triangle_count/launch" in out

    def test_report_describes_last_trial(self, tmp_path):
        """A fresh recorder per trial: the report is one run, not a sum."""
        import json

        out = tmp_path / "report.json"
        assert main(
            ["dataset:orkut", "--tier", "tiny", "--colors", "4",
             "--uniform-p", "0.5", "--trials", "3", "--metrics-out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["metrics"]["pipeline.runs"]["value"] == 1.0
        top = [s["path"] for s in data["spans"]["spans"]]
        assert top == ["setup", "sample_creation", "triangle_count"]


class TestFileSpecs:
    def test_edge_list_file(self, tmp_path, small_graph, capsys):
        path = tmp_path / "g.el"
        write_edge_list(small_graph, path)
        assert main([str(path), "--colors", "3"]) == 0
        truth = count_triangles(small_graph)
        assert f"triangles (exact): {truth}" in capsys.readouterr().out

    def test_mtx_file(self, tmp_path, capsys):
        path = tmp_path / "t.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 2\n2 3\n1 3\n")
        assert main([str(path), "--colors", "2"]) == 0
        assert "triangles (exact): 1" in capsys.readouterr().out

    def test_npz_file(self, tmp_path, small_graph, capsys):
        from repro.graph.io import save_npz

        path = tmp_path / "g.npz"
        save_npz(small_graph, path)
        assert main([str(path), "--colors", "3"]) == 0
        assert "triangles (exact)" in capsys.readouterr().out
