"""Telemetry through the full pipeline: clock parity, engine parity, wiring."""

from __future__ import annotations

import pytest

from repro import PimTriangleCounter
from repro.core.kernel_tc_fast import KernelCosts
from repro.telemetry import PHASE_NAMES, Telemetry


class TestPhaseAttribution:
    def test_phase_span_totals_equal_clock_phases(self, small_graph):
        """The acceptance invariant: span sim totals == SimClock ledger."""
        tel = Telemetry()
        result = PimTriangleCounter(num_colors=3, seed=1, telemetry=tel).count(
            small_graph
        )
        totals = tel.phase_totals()
        assert set(totals) == set(PHASE_NAMES)
        for phase in PHASE_NAMES:
            assert totals[phase] == pytest.approx(
                result.clock.get(phase), rel=1e-12, abs=1e-15
            )

    def test_operation_spans_nest_under_phases(self, small_graph):
        # An unchunked run streams the input as one ingest chunk; the
        # Misra-Gries table is extracted and broadcast after the last chunk.
        for mg, sample_spans in (
            ({}, ["batch[0]"]),
            (
                {"misra_gries_k": 16, "misra_gries_t": 4},
                ["batch[0]", "misra_gries", "broadcast_remap"],
            ),
        ):
            tel = Telemetry()
            PimTriangleCounter(num_colors=3, seed=1, telemetry=tel, **mg).count(
                small_graph
            )
            for path in (
                "setup/alloc",
                "setup/load_kernel",
                "triangle_count/launch",
                "triangle_count/gather",
                "triangle_count/correction",
            ):
                assert tel.find(path) is not None, path
            sample = tel.find("sample_creation")
            assert [child.name for child in sample.children] == sample_spans

    def test_detail_mode_adds_per_dpu_spans(self, small_graph):
        tel = Telemetry(detail=True)
        counter = PimTriangleCounter(num_colors=3, seed=1, telemetry=tel)
        counter.count(small_graph)
        launch = tel.find("triangle_count/launch")
        assert len(launch.children) == counter.num_dpus
        assert launch.children[0].name == "dpu0"
        # per-DPU sim seconds sum to at least the parent's (parallel overlap)
        assert sum(c.sim_seconds for c in launch.children) >= launch.sim_seconds

    def test_default_detail_off_keeps_tree_small(self, small_graph):
        tel = Telemetry()
        PimTriangleCounter(num_colors=3, seed=1, telemetry=tel).count(small_graph)
        assert tel.find("triangle_count/launch").children == []

    def test_sample_metrics_recorded(self, small_graph):
        tel = Telemetry()
        counter = PimTriangleCounter(num_colors=3, seed=1, telemetry=tel)
        counter.count(small_graph)
        m = tel.metrics
        assert m.get("host.edges_input").value == small_graph.num_edges
        assert m.get("host.edges_kept").value == small_graph.num_edges  # exact path
        routed = m.get("pim.edges_routed")
        assert routed.count == counter.num_dpus
        assert m.get("kernel.instructions").value > 0
        assert m.get("pipeline.runs").value == 1

    def test_disabled_telemetry_is_inert_and_correct(self, small_graph):
        on = PimTriangleCounter(num_colors=3, seed=1, telemetry=Telemetry())
        off = PimTriangleCounter(
            num_colors=3, seed=1, telemetry=Telemetry(enabled=False)
        )
        assert off.count(small_graph).count == on.count(small_graph).count
        assert off.telemetry.root.children == []
        assert off.telemetry.metrics.snapshot() == {}

    def test_pipeline_has_telemetry_by_default(self, triangle_graph):
        counter = PimTriangleCounter(num_colors=2, seed=1)
        result = counter.count(triangle_graph)
        assert result.telemetry is counter.telemetry
        assert counter.telemetry.find("triangle_count") is not None


class TestExecutorParity:
    """Span-tree stitching parity across serial/thread/process (satellite c)."""

    def _run(self, graph, engine):
        tel = Telemetry(detail=True)
        counter = PimTriangleCounter(
            num_colors=3, seed=1, executor=engine, jobs=2, telemetry=tel
        )
        result = counter.count(graph)
        return result, tel

    def test_span_signatures_identical_across_engines(self, small_graph):
        signatures = {}
        for engine in ("serial", "thread", "process"):
            _, tel = self._run(small_graph, engine)
            signatures[engine] = tel.span_signature()
        assert signatures["thread"] == signatures["serial"]
        assert signatures["process"] == signatures["serial"]

    def test_metric_snapshots_bit_identical_across_engines(self, small_graph):
        snapshots = {}
        for engine in ("serial", "thread", "process"):
            _, tel = self._run(small_graph, engine)
            snapshots[engine] = tel.metrics.snapshot()
        assert snapshots["thread"] == snapshots["serial"]
        assert snapshots["process"] == snapshots["serial"]

    def test_worker_wall_metric_is_volatile_only(self, small_graph):
        _, tel = self._run(small_graph, "thread")
        assert "executor.worker_wall_seconds" not in tel.metrics.snapshot()
        assert "executor.worker_wall_seconds" in tel.metrics.snapshot(volatile=True)


class TestResultTraceSummary:
    def test_metrics_count_every_transfer(self, small_graph):
        """Ingest scatters and the remap broadcast reach the transfer metrics."""
        tel = Telemetry()
        result = PimTriangleCounter(
            num_colors=3, seed=1, batch_edges=100, misra_gries_k=16,
            misra_gries_t=4, telemetry=tel,
        ).count(small_graph)
        snap = tel.metrics.snapshot()
        batches = result.meta["ingest_batches"]
        assert batches > 1
        assert snap["transfer.scatter.ops"]["value"] == batches
        assert snap["transfer.scatter.bytes"]["value"] == (
            int(result.edges_routed.sum()) * KernelCosts().edge_bytes
        )
        assert snap["transfer.broadcast.ops"]["value"] == 1
        assert snap["transfer.gather.ops"]["value"] == 1

    def test_local_pipeline_records_spans_too(self, small_graph):
        tel = Telemetry()
        counter = PimTriangleCounter(num_colors=3, seed=1, telemetry=tel)
        counter.count_local(small_graph)
        assert tel.find("triangle_count/correction") is not None
        assert set(tel.phase_totals()) == set(PHASE_NAMES)
