"""COO container: construction, preprocessing, views, dynamic splitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.common.errors import ConfigurationError, GraphFormatError
from repro.graph.coo import COOGraph

from conftest import edge_list_strategy


class TestConstruction:
    def test_from_edges(self):
        g = COOGraph.from_edges([(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.num_nodes == 3

    def test_from_empty(self):
        g = COOGraph.from_edges([], num_nodes=5)
        assert g.num_edges == 0
        assert g.num_nodes == 5

    def test_infers_num_nodes(self):
        g = COOGraph.from_edges([(0, 9)])
        assert g.num_nodes == 10

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(GraphFormatError):
            COOGraph(src=np.array([0, 1]), dst=np.array([1]), num_nodes=2)

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphFormatError):
            COOGraph.from_edges([(-1, 0)], num_nodes=2)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(GraphFormatError):
            COOGraph.from_edges([(0, 5)], num_nodes=3)

    def test_rejects_bool_arrays(self):
        # np.mod of a bool array is 0: the integral-float check alone would
        # read these as nodes 1 and 0.
        with pytest.raises(ConfigurationError, match="src must contain integers"):
            COOGraph(np.array([True, False]), np.array([False, True]), num_nodes=2)

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphFormatError):
            COOGraph.from_edges(np.zeros((3, 3), dtype=np.int64))

    def test_len_and_repr(self):
        g = COOGraph.from_edges([(0, 1)], name="tiny")
        assert len(g) == 1
        assert "tiny" in repr(g)


class TestCanonicalize:
    def test_removes_self_loops(self):
        g = COOGraph.from_edges([(0, 0), (0, 1), (2, 2)], num_nodes=3).canonicalize()
        assert g.num_edges == 1

    def test_removes_directed_duplicates(self):
        g = COOGraph.from_edges([(0, 1), (1, 0), (0, 1)], num_nodes=2).canonicalize()
        assert g.num_edges == 1

    def test_orients_ascending(self):
        g = COOGraph.from_edges([(5, 2), (9, 1)], num_nodes=10).canonicalize()
        assert np.all(g.src < g.dst)

    def test_idempotent(self):
        g = COOGraph.from_edges([(0, 1), (1, 0), (2, 2), (1, 2)], num_nodes=3)
        once = g.canonicalize()
        twice = once.canonicalize()
        np.testing.assert_array_equal(once.edge_keys(), twice.edge_keys())

    def test_is_canonical_detects(self):
        messy = COOGraph.from_edges([(1, 0)], num_nodes=2)
        assert not messy.is_canonical()
        assert messy.canonicalize().is_canonical()

    def test_empty_graph_is_canonical(self):
        assert COOGraph.from_edges([], num_nodes=3).is_canonical()

    @settings(max_examples=40, deadline=None)
    @given(g=edge_list_strategy())
    def test_canonical_invariants_hold(self, g):
        c = g.canonicalize()
        assert c.is_canonical()
        # No self loops, all oriented, no duplicates.
        assert np.all(c.src < c.dst)
        assert np.unique(c.edge_keys()).size == c.num_edges


class TestShuffle:
    def test_preserves_edge_set(self, small_graph, rng):
        shuffled = small_graph.shuffle(rng)
        assert sorted(shuffled.edge_keys().tolist()) == sorted(
            small_graph.edge_keys().tolist()
        )

    def test_changes_order(self, small_graph, rng):
        shuffled = small_graph.shuffle(rng)
        assert not np.array_equal(shuffled.src, small_graph.src)


class TestViewsAndStats:
    def test_degrees_triangle(self, triangle_graph):
        deg = triangle_graph.degrees()
        assert deg.tolist() == [2, 2, 3, 1]

    def test_edge_keys_unique_for_canonical(self, small_graph):
        keys = small_graph.edge_keys()
        assert np.unique(keys).size == keys.size

    def test_edges_matrix_shape(self, triangle_graph):
        assert triangle_graph.edges().shape == (4, 2)

    def test_nbytes_positive(self, triangle_graph):
        assert triangle_graph.nbytes() == 4 * 2 * 8

    def test_iter_edges(self, triangle_graph):
        assert list(triangle_graph.iter_edges())[0] == (0, 1)


class TestDynamicOps:
    def test_concat_appends(self, triangle_graph):
        extra = COOGraph.from_edges([(1, 3)], num_nodes=4)
        merged = triangle_graph.concat(extra)
        assert merged.num_edges == 5

    def test_concat_takes_max_nodes(self):
        a = COOGraph.from_edges([(0, 1)], num_nodes=2)
        b = COOGraph.from_edges([(5, 6)], num_nodes=7)
        assert a.concat(b).num_nodes == 7

    def test_split_batches_cover_everything(self, small_graph):
        batches = small_graph.split_batches(7)
        assert sum(b.num_edges for b in batches) == small_graph.num_edges
        rebuilt = batches[0]
        for b in batches[1:]:
            rebuilt = rebuilt.concat(b)
        np.testing.assert_array_equal(rebuilt.src, small_graph.src)

    def test_split_batches_roughly_even(self, small_graph):
        batches = small_graph.split_batches(10)
        sizes = [b.num_edges for b in batches]
        assert max(sizes) - min(sizes) <= 1

    def test_split_rejects_zero(self, small_graph):
        with pytest.raises(GraphFormatError):
            small_graph.split_batches(0)

    def test_slice(self, small_graph):
        part = small_graph.slice(5, 15)
        assert part.num_edges == 10
        np.testing.assert_array_equal(part.src, small_graph.src[5:15])
