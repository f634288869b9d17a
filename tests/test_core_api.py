"""Public API surface: PimTriangleCounter."""

from __future__ import annotations

import pytest

from repro import PimTriangleCounter
from repro.graph.triangles import count_triangles
from repro.pimsim.config import PimSystemConfig
from repro.telemetry import Telemetry


class TestConstruction:
    def test_defaults(self):
        counter = PimTriangleCounter()
        assert counter.num_dpus == 20  # binom(6,3) for C=4

    def test_paper_max_colors(self):
        assert PimTriangleCounter().max_colors() == 23

    def test_custom_system(self):
        counter = PimTriangleCounter(
            num_colors=2, system_config=PimSystemConfig(num_ranks=1, dpus_per_rank=8)
        )
        assert counter.max_colors() == 2

    def test_repr(self):
        text = repr(PimTriangleCounter(num_colors=5, uniform_p=0.5))
        assert "C=5" in text and "p=0.5" in text


class TestCounting:
    def test_count(self, small_graph):
        result = PimTriangleCounter(num_colors=3, seed=1).count(small_graph)
        assert result.count == count_triangles(small_graph)

    def test_counter_reusable_across_graphs(self, small_graph, triangle_graph):
        counter = PimTriangleCounter(num_colors=2, seed=1)
        assert counter.count(triangle_graph).count == 1
        assert counter.count(small_graph).count == count_triangles(small_graph)

    def test_with_options_override(self, small_graph):
        base = PimTriangleCounter(num_colors=3, seed=1)
        approx = base.with_options(uniform_p=0.5)
        assert approx.options.uniform_p == 0.5
        assert approx.options.num_colors == 3
        assert base.options.uniform_p == 1.0  # original untouched

    def test_with_options_keeps_telemetry(self, small_graph):
        tel = Telemetry()
        base = PimTriangleCounter(num_colors=3, seed=1, telemetry=tel)
        approx = base.with_options(uniform_p=0.5)
        assert approx.telemetry is tel
        approx.count(small_graph)
        assert tel.metrics.get("pipeline.runs").value == 1

    def test_num_dpus_tracks_colors(self):
        assert PimTriangleCounter(num_colors=23).num_dpus == 2300
