"""Full host pipeline: exactness, phases, sampling modes, option validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.host import PimTcOptions, PimTcPipeline
from repro.graph.coo import COOGraph
from repro.graph.datasets import get_dataset
from repro.graph.generators import erdos_renyi
from repro.graph.triangles import count_triangles
from repro.pimsim.config import PimSystemConfig
from repro.pimsim.system import PimSystem
from repro.streaming.estimators import relative_error


def run_pipeline(graph, **options):
    return PimTcPipeline(PimTcOptions(**options)).run(graph)


class TestOptionsValidation:
    def test_rejects_zero_colors(self):
        with pytest.raises(ConfigurationError):
            PimTcOptions(num_colors=0)

    def test_rejects_bad_uniform_p(self):
        with pytest.raises(ConfigurationError):
            PimTcOptions(uniform_p=0.0)
        with pytest.raises(ConfigurationError):
            PimTcOptions(uniform_p=1.5)
        with pytest.raises(ConfigurationError, match="uniform_p"):
            PimTcOptions(uniform_p=True)

    def test_mg_params_must_pair(self):
        with pytest.raises(ConfigurationError):
            PimTcOptions(misra_gries_k=10)
        with pytest.raises(ConfigurationError):
            PimTcOptions(misra_gries_t=10)

    def test_rejects_too_many_colors_for_system(self):
        tiny = PimSystem(PimSystemConfig(num_ranks=1, dpus_per_rank=4))
        with pytest.raises(ConfigurationError):
            PimTcPipeline(PimTcOptions(num_colors=3), system=tiny)

    def test_rejects_zero_reservoir(self):
        g = erdos_renyi(20, 40, np.random.default_rng(0)).canonicalize()
        with pytest.raises(ConfigurationError):
            run_pipeline(g, num_colors=2, reservoir_capacity=0)

    @pytest.mark.parametrize("capacity", [0, 1, 2])
    def test_rejects_reservoir_below_three(self, capacity):
        # A sample of two edges holds no triangle: every core that overflows
        # it counts 0, so the estimate of any graph would read 0.
        with pytest.raises(ConfigurationError, match="reservoir_capacity"):
            PimTcOptions(reservoir_capacity=capacity)

    def test_three_edge_reservoir_estimates_k4(self):
        k4 = COOGraph.from_edges([(u, v) for u in range(4) for v in range(u + 1, 4)])
        estimates = np.array([
            run_pipeline(k4, num_colors=1, reservoir_capacity=3, seed=s).estimate
            for s in range(200)
        ])
        # Three of six edges close a triangle with probability 4/20, and the
        # reservoir scale is 20: the estimate is 0 or 20, unbiased for 4
        # (standard error 0.57 over 200 seeds).
        assert set(estimates.tolist()) == {0.0, 20.0}
        assert 2.0 < estimates.mean() < 8.0


class TestExactCounting:
    @pytest.mark.parametrize("colors", [1, 2, 4, 6])
    def test_exact_across_colors(self, small_graph, colors):
        result = run_pipeline(small_graph, num_colors=colors, seed=3)
        assert result.count == count_triangles(small_graph)
        assert result.is_exact

    @pytest.mark.parametrize(
        "name", ["kronecker23", "v1r", "livejournal", "orkut", "humanjung", "wikipedia"]
    )
    def test_exact_on_all_datasets(self, name):
        g = get_dataset(name, "tiny")
        result = run_pipeline(g, num_colors=4, seed=1)
        assert result.count == count_triangles(g)

    def test_different_seeds_same_exact_count(self, small_graph):
        truth = count_triangles(small_graph)
        for seed in range(4):
            assert run_pipeline(small_graph, num_colors=3, seed=seed).count == truth

    def test_empty_graph(self):
        from repro.graph.coo import COOGraph

        g = COOGraph.from_edges([], num_nodes=8)
        result = run_pipeline(g, num_colors=2)
        assert result.count == 0


class TestPhases:
    def test_all_three_phases_populated(self, small_graph):
        r = run_pipeline(small_graph, num_colors=3)
        assert r.setup_seconds > 0
        assert r.sample_creation_seconds > 0
        assert r.triangle_count_seconds > 0
        assert r.total_seconds == pytest.approx(
            r.setup_seconds + r.sample_creation_seconds + r.triangle_count_seconds
        )

    def test_seconds_without_setup(self, small_graph):
        r = run_pipeline(small_graph, num_colors=3)
        assert r.seconds_without_setup == pytest.approx(
            r.sample_creation_seconds + r.triangle_count_seconds
        )

    def test_more_colors_more_setup(self, small_graph):
        a = run_pipeline(small_graph, num_colors=2)
        b = run_pipeline(small_graph, num_colors=8)
        assert b.setup_seconds > a.setup_seconds

    def test_throughput_finite(self, small_graph):
        assert 0 < run_pipeline(small_graph, num_colors=3).throughput_edges_per_ms() < 1e9

    def test_kernel_aggregate(self, small_graph):
        r = run_pipeline(small_graph, num_colors=3)
        assert r.kernel.instructions > 0
        assert r.kernel.dma_bytes > 0
        assert r.kernel.max_dpu_compute_seconds > 0


class TestUniformSampling:
    def test_records_p(self, small_graph):
        r = run_pipeline(small_graph, num_colors=3, uniform_p=0.5, seed=2)
        assert r.uniform_p == 0.5
        assert not r.is_exact

    def test_estimate_reasonable(self, rngs):
        g = erdos_renyi(200, 4000, rngs.stream("u")).canonicalize()
        truth = count_triangles(g)
        errs = [
            relative_error(
                run_pipeline(g, num_colors=3, uniform_p=0.5, seed=s).estimate, truth
            )
            for s in range(5)
        ]
        assert np.mean(errs) < 0.5

    def test_fewer_edges_routed(self, small_graph):
        exact = run_pipeline(small_graph, num_colors=3, seed=1)
        sampled = run_pipeline(small_graph, num_colors=3, uniform_p=0.25, seed=1)
        assert sampled.edges_routed.sum() < exact.edges_routed.sum()
        assert sampled.meta["edges_kept"] < small_graph.num_edges


class TestReservoirSampling:
    def test_caps_sample_sizes(self, small_graph):
        r = run_pipeline(small_graph, num_colors=2, reservoir_capacity=16, seed=4)
        assert r.meta["reservoir_capacity"] == 16
        assert np.any(r.reservoir_scales < 1.0)
        assert not r.is_exact

    def test_estimate_reasonable(self, rngs):
        g = erdos_renyi(200, 4000, rngs.stream("r")).canonicalize()
        truth = count_triangles(g)
        cap = int(0.5 * 6 * g.num_edges / 9)
        errs = [
            relative_error(
                run_pipeline(g, num_colors=3, reservoir_capacity=cap, seed=s).estimate,
                truth,
            )
            for s in range(5)
        ]
        assert np.mean(errs) < 0.3

    def test_huge_capacity_is_exact(self, small_graph):
        r = run_pipeline(small_graph, num_colors=3, reservoir_capacity=10**6, seed=4)
        assert r.count == count_triangles(small_graph)
        assert r.is_exact


class TestMisraGries:
    def test_exactness_preserved(self, small_graph):
        r = run_pipeline(small_graph, num_colors=3, misra_gries_k=64, misra_gries_t=4)
        assert r.count == count_triangles(small_graph)

    def test_speeds_up_hub_graph(self):
        g = get_dataset("wikipedia", "tiny")
        plain = run_pipeline(g, num_colors=4, seed=2)
        remapped = run_pipeline(
            g, num_colors=4, seed=2, misra_gries_k=256, misra_gries_t=8
        )
        assert remapped.count == plain.count
        assert remapped.triangle_count_seconds < 0.6 * plain.triangle_count_seconds

    def test_meta_records_parameters(self, small_graph):
        r = run_pipeline(small_graph, num_colors=2, misra_gries_k=32, misra_gries_t=2)
        assert r.meta["misra_gries"] == (32, 2)


class TestComposition:
    def test_uniform_plus_reservoir(self, rngs):
        g = erdos_renyi(200, 4000, rngs.stream("b")).canonicalize()
        truth = count_triangles(g)
        r = run_pipeline(
            g, num_colors=3, uniform_p=0.5, reservoir_capacity=400, seed=6
        )
        assert not r.is_exact
        # Both corrections applied; the estimate is in the right ballpark.
        assert relative_error(r.estimate, truth) < 1.0

    def test_summary_string(self, small_graph):
        text = run_pipeline(small_graph, num_colors=2).summary()
        assert "exact" in text and "C=2" in text
