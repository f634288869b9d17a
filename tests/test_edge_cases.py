"""Pathological inputs through the full pipeline.

Graphs at the boundary of every assumption: no triangles by construction,
complete graphs, more colors than nodes, single edges, duplicate-heavy raw
inputs — the pipeline must stay exact on all of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicPimCounter, PimTriangleCounter
from repro.common.errors import GraphFormatError
from repro.graph.coo import COOGraph
from repro.graph.triangles import count_triangles
from repro.pimsim.system import PimSystem


def pipeline_count(graph: COOGraph, colors: int = 4, **kw) -> int:
    return PimTriangleCounter(num_colors=colors, seed=1, **kw).count(graph).count


class TestDegenerateShapes:
    def test_single_edge(self):
        g = COOGraph.from_edges([(0, 1)], num_nodes=2)
        assert pipeline_count(g, colors=3) == 0

    def test_single_triangle_many_colors(self):
        g = COOGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_nodes=3)
        # More colors than nodes: most cores receive nothing.
        assert pipeline_count(g, colors=6) == 1

    def test_path_graph(self):
        g = COOGraph.from_edges([(i, i + 1) for i in range(50)], num_nodes=51)
        assert pipeline_count(g) == 0

    def test_star_graph(self):
        g = COOGraph.from_edges([(0, i) for i in range(1, 60)], num_nodes=60)
        assert pipeline_count(g) == 0

    def test_cycle_graph(self):
        n = 31
        g = COOGraph.from_edges([(i, (i + 1) % n) for i in range(n)], num_nodes=n)
        assert pipeline_count(g.canonicalize()) == 0

    def test_complete_graph(self):
        n = 14
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = COOGraph.from_edges(edges, num_nodes=n)
        assert pipeline_count(g) == n * (n - 1) * (n - 2) // 6

    def test_complete_bipartite_triangle_free(self):
        left, right = 8, 9
        edges = [(i, left + j) for i in range(left) for j in range(right)]
        g = COOGraph.from_edges(edges, num_nodes=left + right)
        assert pipeline_count(g) == 0

    def test_two_disconnected_triangles(self):
        g = COOGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)], num_nodes=13
        )
        assert pipeline_count(g, colors=5) == 2

    def test_bowtie_shared_vertex(self):
        g = COOGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)], num_nodes=5
        )
        assert pipeline_count(g) == 2


class TestMessyRawInput:
    def test_duplicate_heavy_raw_stream(self, rng):
        """A raw stream with every edge repeated both ways + self-loops."""
        base = [(0, 1), (1, 2), (0, 2), (2, 3)]
        messy = []
        for u, v in base:
            messy += [(u, v), (v, u), (u, v)]
        messy += [(i, i) for i in range(4)]
        g = COOGraph.from_edges(messy, num_nodes=4).canonicalize()
        assert pipeline_count(g) == 1

    def test_ids_at_range_boundary(self):
        n = 1000
        g = COOGraph.from_edges(
            [(n - 3, n - 2), (n - 2, n - 1), (n - 3, n - 1)], num_nodes=n
        )
        assert pipeline_count(g) == 1

    def test_all_samplers_on_triangle_free_graph(self):
        g = COOGraph.from_edges([(i, i + 1) for i in range(100)], num_nodes=101)
        exact = PimTriangleCounter(num_colors=3, seed=2).count(g)
        uni = PimTriangleCounter(num_colors=3, seed=2, uniform_p=0.5).count(g)
        res = PimTriangleCounter(num_colors=3, seed=2, reservoir_capacity=20).count(g)
        assert exact.count == uni.count == res.count == 0

    def test_local_counts_on_empty(self):
        g = COOGraph.from_edges([], num_nodes=6)
        result = PimTriangleCounter(num_colors=2, seed=1).count_local(g)
        assert result.count == 0
        assert result.local_estimates.shape == (6,)
        assert not result.local_estimates.any()


class TestRepeatedEdgesRefused:
    """The static API counts simple graphs: an edge given twice, in either
    orientation, is refused on the host instead of counted twice."""

    @pytest.mark.parametrize("repeat", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("method", ["count", "count_local"])
    @pytest.mark.parametrize("batch_edges", [None, 2])
    def test_repeat_raises(self, repeat, method, batch_edges):
        g = COOGraph.from_edges([(0, 1), (1, 2), (0, 2), repeat], num_nodes=3)
        counter = PimTriangleCounter(num_colors=2, seed=0, batch_edges=batch_edges)
        with pytest.raises(GraphFormatError, match=r"edge \(0, 1\)"):
            getattr(counter, method)(g)

    def test_names_the_first_repeat_in_key_order(self):
        g = COOGraph.from_edges([(5, 6), (3, 4), (6, 5), (4, 3), (0, 1)], num_nodes=7)
        with pytest.raises(GraphFormatError, match=r"edge \(3, 4\)"):
            pipeline_count(g)

    def test_refused_before_any_core_is_allocated(self, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("PIM cores allocated for a refused graph")

        monkeypatch.setattr(PimSystem, "allocate", allocate)
        g = COOGraph.from_edges([(0, 1), (1, 0)], num_nodes=2)
        with pytest.raises(GraphFormatError):
            PimTriangleCounter(num_colors=2, seed=0).count(g)

    def test_self_loops_are_still_dropped(self):
        g = COOGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (1, 1), (2, 2), (1, 1)], num_nodes=3
        )
        assert pipeline_count(g) == 1
        local = PimTriangleCounter(num_colors=2, seed=0).count_local(g)
        assert local.count == 1


class TestDynamicEdgeCases:
    def test_every_batch_is_one_edge(self):
        g = COOGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)], num_nodes=4)
        dyn = DynamicPimCounter(g.num_nodes, num_colors=2, seed=3)
        for batch in g.split_batches(g.num_edges):
            dyn.apply_update(batch)
        assert dyn.triangles == count_triangles(g)

    def test_delete_before_any_insert(self):
        dyn = DynamicPimCounter(10, num_colors=2, seed=3)
        ghost = COOGraph.from_edges([(0, 1)], num_nodes=10)
        result = dyn.apply_deletion(ghost)
        assert result.triangles_total == 0
        assert dyn.triangles == 0
