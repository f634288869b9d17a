"""Live run monitor: heartbeat events, join-complete streams, repro-watch.

Heartbeats are emitted parent-side from the batched ingest drain, so their
fields (chunk index, edges streamed/kept, routed bytes, simulated-clock ETA)
must be bit-identical across the serial/thread/process execution engines —
and enabling them must change no simulated number (the observation-only
contract, mirroring ``TestObservationOnly`` for the imbalance ledger).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.api import PimTriangleCounter
from repro.core.ingest import num_batches
from repro.graph.generators import erdos_renyi
from repro.observability import (
    load_ndjson,
    stream_status,
    validate_ndjson_events,
)
from repro.observability.watch import main as watch_main, render_stream, summarize_stream
from repro.telemetry import Telemetry


def make_graph(seed: int = 7):
    rng = np.random.default_rng(seed)
    return erdos_renyi(120, 700, rng).canonicalize()


def run_with_sink(graph, executor: str = "serial", batch_edges: int = 100):
    telemetry = Telemetry(detail=True)
    events: list[tuple[str, dict]] = []
    telemetry.event_sink = lambda event, **fields: events.append((event, fields))
    counter = PimTriangleCounter(
        num_colors=4,
        seed=3,
        batch_edges=batch_edges,
        executor=executor,
        jobs=2 if executor != "serial" else None,
        telemetry=telemetry,
    )
    result = counter.count(graph)
    return result, events


class TestHeartbeat:
    def test_one_heartbeat_per_chunk_with_progress(self):
        graph = make_graph()
        batch_edges = 100
        result, events = run_with_sink(graph, batch_edges=batch_edges)
        beats = [fields for event, fields in events if event == "heartbeat"]
        expected = num_batches(graph.num_edges, batch_edges)
        assert len(beats) == expected
        assert [b["batch"] for b in beats] == list(range(expected))
        assert all(b["batches_total"] == expected for b in beats)
        # Monotone progress, finishing at the full edge stream.
        streamed = [b["edges_streamed"] for b in beats]
        assert streamed == sorted(streamed)
        assert streamed[-1] == graph.num_edges
        assert all(b["edges_total"] == graph.num_edges for b in beats)
        # The last chunk has nothing left, so its ETA is zero; earlier ones
        # extrapolate the double-buffer recurrence forward.
        assert beats[-1]["eta_sim_seconds"] == pytest.approx(0.0)
        assert all(b["eta_sim_seconds"] >= 0.0 for b in beats)
        assert beats[0]["eta_sim_seconds"] > 0.0
        # Simulated elapsed grows with the schedule.
        elapsed = [b["sim_elapsed_seconds"] for b in beats]
        assert elapsed == sorted(elapsed)

    def test_unchunked_ingest_emits_one_heartbeat(self):
        graph = make_graph()
        result, events = run_with_sink(graph, batch_edges=None)
        beats = [fields for event, fields in events if event == "heartbeat"]
        assert len(beats) == 1
        assert beats[0]["batch"] == 0
        assert beats[0]["batches_total"] == 1
        assert beats[0]["edges_streamed"] == graph.num_edges
        assert beats[0]["eta_sim_seconds"] == 0.0
        assert result.meta["ingest_batches"] == 1

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_heartbeats_engine_invariant(self, executor):
        graph = make_graph()
        _, serial_events = run_with_sink(graph, executor="serial")
        _, other_events = run_with_sink(graph, executor=executor)
        assert serial_events == other_events

    def test_sink_is_observation_only(self):
        """Counts, clocks, and metrics identical with and without the sink."""
        graph = make_graph()

        def run(with_sink: bool):
            telemetry = Telemetry(detail=True)
            if with_sink:
                telemetry.event_sink = lambda event, **fields: None
            result = PimTriangleCounter(
                num_colors=4, seed=3, batch_edges=100, telemetry=telemetry
            ).count(graph)
            return result, telemetry

        on, tel_on = run(True)
        off, tel_off = run(False)
        assert on.count == off.count
        assert on.clock.phases == off.clock.phases
        assert np.array_equal(on.per_dpu_counts, off.per_dpu_counts)
        assert tel_on.metrics.snapshot() == tel_off.metrics.snapshot()
        assert tel_on.span_signature() == tel_off.span_signature()

    def test_disabled_telemetry_suppresses_events(self):
        telemetry = Telemetry(enabled=False)
        seen = []
        telemetry.event_sink = lambda event, **fields: seen.append(event)
        telemetry.emit_event("heartbeat", batch=0)
        assert seen == []


class TestJoinCompleteStreams:
    def test_successful_cli_run_ends_with_ok(self, tmp_path):
        log = tmp_path / "run.ndjson"
        assert cli_main(
            [
                "dataset:wikipedia", "--tier", "tiny", "--colors", "4",
                "--batch-edges", "500", "--log-json", str(log),
            ]
        ) == 0
        records = load_ndjson(log)
        assert validate_ndjson_events(records) == []
        assert stream_status(records) == "ok"
        assert records[-1]["event"] == "run_end"
        assert any(r["event"] == "heartbeat" for r in records)

    def test_pipeline_exception_still_emits_run_end(self, tmp_path, monkeypatch):
        class Boom:
            def __init__(self, **kwargs):
                pass

            def count(self, graph):
                raise RuntimeError("synthetic pipeline failure")

        monkeypatch.setattr("repro.cli.PimTriangleCounter", Boom)
        log = tmp_path / "crash.ndjson"
        with pytest.raises(RuntimeError, match="synthetic"):
            cli_main(
                ["dataset:wikipedia", "--tier", "tiny", "--log-json", str(log)]
            )
        records = load_ndjson(log)
        assert stream_status(records) == "error"
        last = records[-1]
        assert last["event"] == "run_end"
        assert last["status"] == "error"
        assert "RuntimeError" in last["error"]

    def test_stream_without_run_end_is_in_flight(self):
        records = [
            {"ts": 1.0, "run_id": "r", "event": "run_start", "graph": "g"},
            {"ts": 2.0, "run_id": "r", "event": "span_start", "path": "setup"},
        ]
        assert stream_status(records) == "in-flight"
        assert stream_status([]) == "empty"

    def test_validator_rejects_events_after_run_end(self):
        records = [
            {"ts": 1.0, "run_id": "r", "event": "run_start", "graph": "g"},
            {"ts": 2.0, "run_id": "r", "event": "run_end", "status": "ok"},
            {"ts": 3.0, "run_id": "r", "event": "estimate", "estimate": 1.0},
        ]
        errors = validate_ndjson_events(records)
        assert any("after terminal run_end" in e for e in errors)

    def test_validator_rejects_unknown_events_and_mixed_ids(self):
        records = [
            {"ts": 1.0, "run_id": "a", "event": "telepathy"},
            {"ts": 2.0, "run_id": "b", "event": "run_end", "status": "ok"},
        ]
        errors = validate_ndjson_events(records)
        assert any("unknown event" in e for e in errors)
        assert any("mixes 2 run_ids" in e for e in errors)

    def test_load_ndjson_tolerates_partial_tail_only(self, tmp_path):
        path = tmp_path / "t.ndjson"
        good = json.dumps({"ts": 1.0, "run_id": "r", "event": "run_start"})
        path.write_text(good + "\n" + '{"ts": 2.0, "trunc')
        assert len(load_ndjson(path)) == 1
        path.write_text('{"broken\n' + good + "\n")
        with pytest.raises(json.JSONDecodeError):
            load_ndjson(path)


class TestWatch:
    @pytest.fixture()
    def finished_stream(self, tmp_path):
        log = tmp_path / "run.ndjson"
        cli_main(
            [
                "dataset:wikipedia", "--tier", "tiny", "--colors", "4",
                "--batch-edges", "500", "--log-json", str(log),
            ]
        )
        return log

    def test_summarize_folds_latest_state(self, finished_stream):
        records = load_ndjson(finished_stream)
        view = summarize_stream(records)
        assert view["status"] == "ok"
        assert view["graph"] == "wikipedia"
        assert view["heartbeat"]["batch"] == view["heartbeat"]["batches_total"] - 1
        assert view["estimates"]

    def test_render_finished_run(self, finished_stream):
        text = render_stream(load_ndjson(finished_stream))
        assert "wikipedia" in text
        assert "completed ok" in text
        assert "batch" in text

    def test_render_in_flight_and_crashed(self):
        in_flight = [
            {"ts": 1.0, "run_id": "r", "event": "run_start", "graph": "g",
             "num_edges": 10},
            {"ts": 2.0, "run_id": "r", "event": "span_start", "path": "setup"},
        ]
        text = render_stream(in_flight, now=5.0)
        assert "in flight" in text and "setup" in text
        crashed = in_flight[:1] + [
            {"ts": 2.0, "run_id": "r", "event": "run_end", "status": "error",
             "error": "ValueError: bad"},
        ]
        assert "CRASHED" in render_stream(crashed)
        assert render_stream([]) == "(no events yet)"

    def test_cli_exit_codes(self, finished_stream, tmp_path, capsys):
        assert watch_main([str(finished_stream), "--validate"]) == 0
        assert "completed ok" in capsys.readouterr().out
        crash = tmp_path / "crash.ndjson"
        crash.write_text(
            json.dumps({"ts": 1.0, "run_id": "r", "event": "run_end",
                        "status": "error", "error": "boom"}) + "\n"
        )
        assert watch_main([str(crash)]) == 1
        capsys.readouterr()

    def test_follow_times_out_on_in_flight_stream(self, tmp_path, capsys):
        log = tmp_path / "stuck.ndjson"
        log.write_text(
            json.dumps({"ts": 1.0, "run_id": "r", "event": "run_start",
                        "graph": "g"}) + "\n"
        )
        rc = watch_main(
            [str(log), "--follow", "--interval", "0.01", "--timeout", "0.05"]
        )
        assert rc == 2
        capsys.readouterr()


class TestTailer:
    """Incremental NDJSON tailing under writer races, truncation, rotation."""

    @staticmethod
    def _line(i: int) -> str:
        return json.dumps({"ts": float(i), "run_id": "r", "event": "span_start",
                           "path": f"batch[{i}]"})

    def test_partial_tail_buffers_until_complete(self, tmp_path):
        from repro.observability import NdjsonTailer

        path = tmp_path / "t.ndjson"
        tailer = NdjsonTailer(path)
        whole, partial = self._line(0), self._line(1)
        with open(path, "w") as fh:
            fh.write(whole + "\n" + partial[:9])
            fh.flush()
            # The half-written line must not be parsed — or discarded.
            assert [r["path"] for r in tailer.poll()] == ["batch[0]"]
            assert tailer.poll() == []
            fh.write(partial[9:] + "\n")
            fh.flush()
            assert [r["path"] for r in tailer.poll()] == ["batch[1]"]
        assert len(tailer.records) == 2
        assert tailer.restarts == 0

    def test_truncation_restarts_the_stream(self, tmp_path):
        from repro.observability import NdjsonTailer

        path = tmp_path / "t.ndjson"
        path.write_text(self._line(0) + "\n" + self._line(1) + "\n")
        tailer = NdjsonTailer(path)
        assert len(tailer.poll()) == 2
        path.write_text(self._line(9) + "\n")  # writer reopened with "w"
        new = tailer.poll()
        assert tailer.restarts == 1
        assert [r["path"] for r in new] == ["batch[9]"]
        assert tailer.records == new  # the old incarnation's records are gone

    def test_rotation_restarts_the_stream(self, tmp_path):
        from repro.observability import NdjsonTailer

        path = tmp_path / "t.ndjson"
        path.write_text(self._line(0) + "\n")
        tailer = NdjsonTailer(path)
        assert len(tailer.poll()) == 1
        rotated = tmp_path / "t.ndjson.new"
        # Same byte length as the original, so only the inode gives it away.
        rotated.write_text(self._line(5) + "\n")
        rotated.replace(path)
        new = tailer.poll()
        assert tailer.restarts == 1
        assert [r["path"] for r in new] == ["batch[5]"]

    def test_missing_file_then_created(self, tmp_path):
        from repro.observability import NdjsonTailer

        path = tmp_path / "late.ndjson"
        tailer = NdjsonTailer(path)
        assert tailer.poll() == []  # not an error before the writer starts
        path.write_text(self._line(0) + "\n")
        assert len(tailer.poll()) == 1
        path.unlink()  # writer went away: restart, don't crash
        assert tailer.poll() == []
        assert tailer.restarts == 1

    def test_live_writer_race(self, tmp_path):
        """A writer flushing mid-line never produces a misparsed record."""
        import threading
        import time as _time

        from repro.observability import NdjsonTailer

        path = tmp_path / "race.ndjson"
        total = 200

        def writer():
            with open(path, "w") as fh:
                for i in range(total):
                    line = self._line(i) + "\n"
                    cut = (i * 7) % (len(line) - 1) + 1
                    fh.write(line[:cut])
                    fh.flush()  # expose a torn line to the tailer
                    fh.write(line[cut:])
                    fh.flush()

        thread = threading.Thread(target=writer)
        tailer = NdjsonTailer(path)
        thread.start()
        deadline = _time.monotonic() + 30
        while len(tailer.records) < total and _time.monotonic() < deadline:
            tailer.poll()
        thread.join(10)
        tailer.poll()
        assert [r["path"] for r in tailer.records] == [
            f"batch[{i}]" for i in range(total)
        ]
        assert tailer.restarts == 0

    def test_follow_survives_truncation_and_finishes(self, tmp_path, capsys):
        """`repro-watch --follow` rides out a writer restart: it reports the
        restart and renders only the new incarnation through run_end."""
        import threading
        import time as _time

        path = tmp_path / "f.ndjson"
        # The stale incarnation is longer than the fresh one's first line, so
        # the truncating reopen is visible as a size drop (a same-size
        # rewrite on the same inode is undetectable — same as `tail -F`).
        path.write_text(
            json.dumps({"ts": 1.0, "run_id": "old", "event": "run_start",
                        "graph": "stale-" + "x" * 120}) + "\n"
        )

        def restart_writer():
            _time.sleep(0.15)
            with open(path, "w") as fh:  # truncating reopen — a fresh run
                fh.write(json.dumps({"ts": 2.0, "run_id": "new",
                                     "event": "run_start", "graph": "fresh"}) + "\n")
                fh.flush()
                _time.sleep(0.1)
                fh.write(json.dumps({"ts": 3.0, "run_id": "new",
                                     "event": "run_end", "status": "ok"}) + "\n")

        thread = threading.Thread(target=restart_writer)
        thread.start()
        rc = watch_main([str(path), "--follow", "--interval", "0.02",
                         "--timeout", "10", "--validate"])
        thread.join(5)
        assert rc == 0
        captured = capsys.readouterr()
        assert "stream restarted" in captured.err
        assert "fresh" in captured.out
