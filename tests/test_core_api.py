"""Public API surface: PimTriangleCounter."""

from __future__ import annotations

import pytest

import numpy as np

from repro import PimTriangleCounter
from repro.core.host import PimTcOptions
from repro.graph.triangles import count_triangles
from repro.pimsim.config import PimSystemConfig
from repro.telemetry import Telemetry

#: Environment variables that earlier versions of the counter read, each with
#: a value that used to change its options, system or simulated numbers.
FORMER_ENV_KNOBS = {
    "REPRO_BATCH_EDGES": "64",
    "REPRO_PARTITIONER": "degree",
    "REPRO_REBALANCE_CV": "0",
    "REPRO_KERNEL": "probe",
    "REPRO_EXECUTOR": "thread",
    "REPRO_JOBS": "3",
}


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


class TestNoEnvironment:
    """Every option of a count is set at its call site, none by the shell."""

    @pytest.mark.parametrize("name", sorted(FORMER_ENV_KNOBS))
    def test_environment_changes_nothing(self, small_graph, monkeypatch, name):
        for var in FORMER_ENV_KNOBS:
            monkeypatch.delenv(var, raising=False)
        plain = PimTriangleCounter(num_colors=3, seed=1).count(small_graph)
        monkeypatch.setenv(name, FORMER_ENV_KNOBS[name])
        counter = PimTriangleCounter(num_colors=3, seed=1)
        assert counter.options == PimTcOptions(num_colors=3, seed=1)
        assert counter.system.config == PimSystemConfig()
        result = counter.count(small_graph)
        assert result.clock.phases == plain.clock.phases
        np.testing.assert_array_equal(result.per_dpu_counts, plain.per_dpu_counts)
        assert result.meta == plain.meta
