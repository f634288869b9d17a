"""Local (per-node) triangle counting: oracle, kernel, pipeline."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro import PimTriangleCounter
from repro.core.local import local_counts_from_arrays
from repro.core.result import LocalTcResult
from repro.graph.coo import COOGraph
from repro.graph.datasets import get_dataset
from repro.graph.generators import erdos_renyi, hub_graph
from repro.graph.local_triangles import count_triangles_per_node, local_clustering
from repro.graph.triangles import count_triangles

from conftest import graph_strategy


def nx_locals(g: COOGraph) -> np.ndarray:
    G = nx.Graph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_edges_from(g.edges().tolist())
    return np.array([t for _, t in sorted(nx.triangles(G).items())])


def _gather_spans(result):
    """The run's ``triangle_count/gather`` spans, in recording order."""
    return [
        s
        for top in result.telemetry.root.children
        for s in top.walk()
        if s.path == "triangle_count/gather"
    ]


class TestOracle:
    def test_triangle_plus_pendant(self, triangle_graph):
        assert count_triangles_per_node(triangle_graph).tolist() == [1, 1, 1, 0]

    def test_sum_is_three_times_global(self, small_graph):
        local = count_triangles_per_node(small_graph)
        assert local.sum() == 3 * count_triangles(small_graph)

    def test_empty(self):
        g = COOGraph.from_edges([], num_nodes=5)
        assert count_triangles_per_node(g).tolist() == [0] * 5

    @pytest.mark.parametrize("seed", range(3))
    def test_vs_networkx(self, rngs, seed):
        g = erdos_renyi(60, 320, rngs.stream("l", seed)).canonicalize()
        np.testing.assert_array_equal(count_triangles_per_node(g), nx_locals(g))

    @settings(max_examples=25, deadline=None)
    @given(g=graph_strategy(max_nodes=20, max_edges=70))
    def test_property_vs_networkx(self, g):
        np.testing.assert_array_equal(count_triangles_per_node(g), nx_locals(g))

    def test_chunking_invariant(self, small_graph):
        full = count_triangles_per_node(small_graph)
        tiny = count_triangles_per_node(small_graph, chunk_nnz=64)
        np.testing.assert_array_equal(full, tiny)


class TestLocalClustering:
    def test_triangle_node_coefficients(self, triangle_graph):
        cc = local_clustering(triangle_graph)
        # Nodes 0,1 have degree 2 and 1 triangle -> 1.0; node 2 deg 3 -> 1/3.
        assert cc[0] == pytest.approx(1.0)
        assert cc[2] == pytest.approx(1 / 3)
        assert cc[3] == 0.0

    def test_bounded_by_one(self, small_graph):
        assert local_clustering(small_graph).max() <= 1.0 + 1e-12

    def test_vs_networkx(self, rngs):
        g = erdos_renyi(50, 250, rngs.stream("cc")).canonicalize()
        G = nx.Graph()
        G.add_nodes_from(range(g.num_nodes))
        G.add_edges_from(g.edges().tolist())
        ref = np.array([c for _, c in sorted(nx.clustering(G).items())])
        np.testing.assert_allclose(local_clustering(g), ref, atol=1e-12)


class TestKernelHelper:
    def test_matches_oracle_on_sample(self, small_graph):
        got = local_counts_from_arrays(
            small_graph.src, small_graph.dst, small_graph.num_nodes
        )
        np.testing.assert_array_equal(got, count_triangles_per_node(small_graph))

    def test_unoriented_input(self):
        g = COOGraph.from_edges([(1, 0), (2, 1), (0, 2)], num_nodes=3)
        got = local_counts_from_arrays(g.src, g.dst, 3)
        assert got.tolist() == [1, 1, 1]


class TestPimLocalPipeline:
    @pytest.mark.parametrize("colors", [1, 2, 4])
    def test_exact_local_counts(self, small_graph, colors):
        result = PimTriangleCounter(num_colors=colors, seed=3).count_local(small_graph)
        assert isinstance(result, LocalTcResult)
        np.testing.assert_array_equal(
            result.local_counts(), count_triangles_per_node(small_graph)
        )
        assert result.count == count_triangles(small_graph)

    def test_with_remap_exact(self, rngs):
        g = hub_graph(400, 600, 1, 200, rngs.stream("lr")).canonicalize()
        result = PimTriangleCounter(
            num_colors=3, seed=3, misra_gries_k=64, misra_gries_t=2
        ).count_local(g)
        np.testing.assert_array_equal(result.local_counts(), count_triangles_per_node(g))

    def test_uniform_sampling_estimates(self, rngs):
        g = erdos_renyi(150, 2500, rngs.stream("lu")).canonicalize()
        result = PimTriangleCounter(num_colors=3, seed=3, uniform_p=0.5).count_local(g)
        truth = count_triangles(g)
        assert abs(result.estimate - truth) / truth < 0.5
        assert result.local_estimates.sum() == pytest.approx(3 * result.estimate)

    def test_reservoir_estimates(self, rngs):
        g = erdos_renyi(150, 2500, rngs.stream("lres")).canonicalize()
        cap = int(0.5 * 6 * g.num_edges / 9)
        result = PimTriangleCounter(
            num_colors=3, seed=4, reservoir_capacity=cap
        ).count_local(g)
        truth = count_triangles(g)
        assert abs(result.estimate - truth) / truth < 0.5

    def test_top_nodes_ordering(self):
        g = get_dataset("wikipedia", "tiny")
        result = PimTriangleCounter(num_colors=3, seed=1).count_local(g)
        top = result.top_nodes(5)
        values = [v for _, v in top]
        assert values == sorted(values, reverse=True)
        oracle = count_triangles_per_node(g)
        assert oracle[top[0][0]] == oracle.max()

    def test_local_gather_is_heavier_than_global(self, small_graph):
        counter = PimTriangleCounter(num_colors=3, seed=1)
        glob = counter.count(small_graph)
        loc = counter.count_local(small_graph)
        assert loc.triangle_count_seconds > glob.triangle_count_seconds

    def test_scalar_gather_cost_parity_with_global(self, small_graph):
        """The local path reads ``triangle_count`` through the same gather as
        the global path — not a free ``mram.load`` — so it must open the
        identical gather span (same simulated seconds and payload bytes).
        """

        def scalar_gathers(result):
            return [
                (s.sim_seconds, s.attrs["bytes"])
                for s in _gather_spans(result)
                if s.attrs["symbol"] == "triangle_count"
            ]

        glob = PimTriangleCounter(num_colors=3, seed=1).count(small_graph)
        loc = PimTriangleCounter(num_colors=3, seed=1).count_local(small_graph)
        glob_events = scalar_gathers(glob)
        loc_events = scalar_gathers(loc)
        assert len(glob_events) == 1
        assert loc_events == glob_events
        # And the totals it transported are the global path's, element-wise.
        assert np.array_equal(loc.per_dpu_counts, glob.per_dpu_counts)

    def test_scalar_gather_charges_mram_reads(self, small_graph):
        """Gathering the count must bump the device-side read accounting
        (the old ``count_read=False`` path left it untouched)."""
        loc = PimTriangleCounter(num_colors=3, seed=1).count_local(small_graph)
        gathers = [
            s for s in _gather_spans(loc) if s.attrs["symbol"] == "triangle_count"
        ]
        assert gathers and all(
            s.sim_seconds > 0 and s.attrs["bytes"] > 0 for s in gathers
        )
