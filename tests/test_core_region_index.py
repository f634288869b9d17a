"""Region table over sorted samples (paper Fig. 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orient import orient_and_sort
from repro.core.region_index import binary_search_steps, build_region_index


@pytest.fixture
def index():
    # Sorted first-node column: regions 1 -> [0,3), 4 -> [3,4), 7 -> [4,6).
    return build_region_index(np.array([1, 1, 1, 4, 7, 7]))


class TestBuild:
    def test_regions(self, index):
        assert index.num_regions == 3
        assert index.nodes.tolist() == [1, 4, 7]
        assert index.starts.tolist() == [0, 3, 4]
        assert index.ends.tolist() == [3, 4, 6]

    def test_empty(self):
        idx = build_region_index(np.array([], dtype=np.int64))
        assert idx.num_regions == 0
        assert idx.lookup(3) == (0, 0)

    def test_table_bytes(self, index):
        assert index.table_bytes() == 3 * 8


class TestLookup:
    def test_present(self, index):
        assert index.lookup(4) == (3, 4)

    def test_absent_between(self, index):
        assert index.lookup(5) == (0, 0)

    def test_absent_above(self, index):
        assert index.lookup(100) == (0, 0)

    def test_absent_below(self, index):
        assert index.lookup(0) == (0, 0)

    def test_lookup_many(self, index):
        starts, ends = index.lookup_many(np.array([1, 5, 7, 0]))
        assert starts.tolist() == [0, 0, 4, 0]
        assert ends.tolist() == [3, 0, 6, 0]

    def test_degrees_of(self, index):
        deg = index.degrees_of(np.array([1, 4, 7, 9]))
        assert deg.tolist() == [3, 1, 2, 0]

    def test_lookup_many_on_empty_index(self):
        idx = build_region_index(np.array([], dtype=np.int64))
        starts, ends = idx.lookup_many(np.array([1, 2]))
        assert starts.tolist() == [0, 0]
        assert ends.tolist() == [0, 0]


class TestSearchSteps:
    def test_log_bound(self, index):
        assert index.search_steps() == 2  # ceil(log2(4))

    def test_empty_index_one_step(self):
        idx = build_region_index(np.array([], dtype=np.int64))
        assert idx.search_steps() == 1

    def test_array_form_matches_log_formula(self):
        """One count per core gives each core's ``ceil(log2(R + 1))``,
        including around every power of two."""
        powers = 2 ** np.arange(1, 40, dtype=np.int64)
        regions = np.concatenate((np.arange(0, 5000), powers - 1, powers, powers + 1))
        want = [int(np.ceil(np.log2(r + 1))) if r else 1 for r in regions.tolist()]
        got = binary_search_steps(regions)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert [binary_search_steps(int(r)) for r in regions[:50]] == want[:50]


class TestConsistencyWithSort:
    def test_every_edge_inside_own_region(self, small_graph):
        u, v, _ = orient_and_sort(small_graph.src, small_graph.dst)
        idx = build_region_index(u)
        for e in range(u.size):
            start, end = idx.lookup(int(u[e]))
            assert start <= e < end

    def test_region_lengths_are_forward_degrees(self, small_graph):
        u, v, _ = orient_and_sort(small_graph.src, small_graph.dst)
        idx = build_region_index(u)
        fwd = np.bincount(u, minlength=small_graph.num_nodes)
        for node, start, end in zip(idx.nodes, idx.starts, idx.ends):
            assert end - start == fwd[node]


class TestMatchesUniqueForm:
    """Region starts found where the sorted column changes value give the
    table ``np.unique(..., return_index=True)`` gave: values and dtypes."""

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.int32, np.int64]),
        column=st.lists(st.integers(0, 2**31 - 1) | st.integers(0, 8), max_size=50),
    )
    def test_matches_np_unique(self, dtype, column):
        u = np.sort(np.array(column, dtype=dtype))
        idx = build_region_index(u)
        if u.size:
            nodes, starts = np.unique(u, return_index=True)
            ends = np.append(starts[1:], u.size)
        else:
            nodes = starts = ends = np.empty(0, dtype=np.int64)
        for got, want in ((idx.nodes, nodes), (idx.starts, starts), (idx.ends, ends)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
