"""Simulated-time timeline: DpuSet operation spans and ``render_timeline``."""

from __future__ import annotations

import numpy as np

from repro import PimTriangleCounter
from repro.pimsim import PimSystem, PimSystemConfig, SimClock
from repro.telemetry import Telemetry, render_timeline


class TestTimeline:
    def test_dpu_set_operations_open_spans(self):
        tel = Telemetry()
        system = PimSystem(PimSystemConfig(num_ranks=1, dpus_per_rank=4))
        dpus = system.allocate(2, SimClock(), telemetry=tel)
        dpus.broadcast("t", np.arange(3))
        dpus.gather("t")
        dpus.free()
        assert [s.path for s in tel.root.children] == ["alloc", "broadcast", "gather"]
        gather = tel.find("gather")
        assert gather.attrs == {"symbol": "t", "bytes": 2 * np.arange(3).nbytes}
        assert all(s.sim_seconds > 0 for s in tel.root.children)

    def test_pipeline_timeline_lists_operations(self, small_graph):
        tel = Telemetry(detail=True)
        PimTriangleCounter(num_colors=3, seed=1, telemetry=tel).count(small_graph)
        lines = render_timeline(tel).splitlines()
        paths = [line.split()[-1] for line in lines[1:]]
        for path in (
            "setup/alloc",
            "sample_creation/batch[0]",
            "triangle_count/launch",
            "triangle_count/gather",
        ):
            assert path in paths
        assert not any(p.rsplit("/", 1)[-1].startswith("dpu") for p in paths)
        assert paths.index("setup/alloc") < paths.index("triangle_count/gather")

    def test_empty_recorder_prints_header_only(self):
        assert len(render_timeline(Telemetry()).splitlines()) == 1
