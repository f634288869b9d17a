"""Orient + lexicographic sort (the DPU kernel's preparation pass)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import GraphFormatError
from repro.core.orient import orient_and_sort
from repro.graph.coo import MAX_KEY_NODES

from conftest import edge_list_strategy


class TestOrientAndSort:
    def test_orientation(self):
        u, v, _ = orient_and_sort(np.array([5, 1]), np.array([2, 7]))
        assert np.all(u < v)

    def test_lexicographic_order(self):
        src = np.array([3, 1, 3, 2])
        dst = np.array([0, 5, 4, 9])
        u, v, _ = orient_and_sort(src, dst)
        keys = list(zip(u.tolist(), v.tolist()))
        assert keys == sorted(keys)

    def test_drops_self_loops(self):
        u, v, stats = orient_and_sort(np.array([1, 2]), np.array([1, 3]))
        assert u.size == 1
        assert stats.edges == 1

    def test_keeps_self_loops_when_asked(self):
        u, v, _ = orient_and_sort(
            np.array([1, 2]), np.array([1, 3]), drop_self_loops=False
        )
        assert u.size == 2

    def test_empty(self):
        u, v, stats = orient_and_sort(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert u.size == 0
        assert stats.sort_steps == 0
        assert stats.mram_passes == 0

    def test_single_edge_stats(self):
        _, _, stats = orient_and_sort(np.array([1]), np.array([0]))
        assert stats.sort_steps == 0
        assert stats.mram_passes == 1

    def test_sort_steps_nlogn(self):
        m = 1024
        src = np.arange(m)
        dst = np.arange(m) + 1
        _, _, stats = orient_and_sort(src, dst)
        assert stats.sort_steps == m * 10  # log2(1024) = 10

    def test_more_passes_for_smaller_wram(self):
        src = np.arange(10_000)
        dst = np.arange(10_000) + 1
        _, _, big = orient_and_sort(src, dst, wram_run_edges=4096)
        _, _, small = orient_and_sort(src, dst, wram_run_edges=64)
        assert small.mram_passes > big.mram_passes

    @settings(max_examples=30, deadline=None)
    @given(g=edge_list_strategy())
    def test_preserves_undirected_multiset(self, g):
        u, v, _ = orient_and_sort(g.src, g.dst)
        n = g.num_nodes
        got = sorted((u * n + v).tolist())
        lo = np.minimum(g.src, g.dst)
        hi = np.maximum(g.src, g.dst)
        keep = lo != hi
        expected = sorted((lo[keep] * n + hi[keep]).tolist())
        assert got == expected


def _lexsort_reference(src, dst, drop_self_loops=True):
    """The two-key ``np.lexsort`` formulation the one-key sort replaced."""
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    if drop_self_loops:
        keep = u != v
        u, v = u[keep], v[keep]
    order = np.lexsort((v, u))
    return u[order], v[order]


class TestOneKeySortMatchesLexsort:
    """The packed ``u * stride + v`` key sort returns exactly what
    ``np.lexsort((v, u))`` gave: same values, same order, same dtype."""

    @staticmethod
    def _check(src, dst, drop_self_loops=True):
        u, v, stats = orient_and_sort(src, dst, drop_self_loops=drop_self_loops)
        ref_u, ref_v = _lexsort_reference(src, dst, drop_self_loops)
        assert u.dtype == ref_u.dtype and v.dtype == ref_v.dtype
        assert np.array_equal(u, ref_u)
        assert np.array_equal(v, ref_v)
        assert stats.edges == ref_u.size

    @settings(max_examples=80, deadline=None)
    @given(
        dtype=st.sampled_from([np.int32, np.int64]),
        pairs=st.lists(
            st.tuples(
                st.integers(0, 2**31 - 1) | st.integers(0, 12),
                st.integers(0, 2**31 - 1) | st.integers(0, 12),
            ),
            max_size=60,
        ),
        drop_self_loops=st.booleans(),
    )
    def test_matches_lexsort(self, dtype, pairs, drop_self_loops):
        arr = np.array(pairs, dtype=dtype).reshape(-1, 2)
        self._check(arr[:, 0].copy(), arr[:, 1].copy(), drop_self_loops)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_input(self, dtype):
        empty = np.empty(0, dtype=dtype)
        self._check(empty, empty.copy())

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_all_self_loops(self, dtype):
        nodes = np.array([4, 0, 2**31 - 1, 4], dtype=dtype)
        u, v, stats = orient_and_sort(nodes, nodes.copy())
        assert u.size == v.size == stats.edges == 0
        self._check(nodes, nodes.copy())
        self._check(nodes, nodes.copy(), drop_self_loops=False)

    def test_largest_key_id_is_accepted(self):
        top = MAX_KEY_NODES - 1
        src = np.array([top, 0, 5], dtype=np.int64)
        dst = np.array([top - 1, top, 5 + top // 2], dtype=np.int64)
        self._check(src, dst)

    def test_overflowing_key_is_refused(self):
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, MAX_KEY_NODES], dtype=np.int64)
        with pytest.raises(GraphFormatError, match="int64 edge keys"):
            orient_and_sort(src, dst)

    def test_negative_id_is_refused(self):
        with pytest.raises(GraphFormatError, match="negative"):
            orient_and_sort(np.array([-1, 2]), np.array([3, 4]))
