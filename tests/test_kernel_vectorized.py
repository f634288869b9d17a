"""The ``fastvec`` kernel: searchsorted count arithmetic, identical charges.

The vectorized kernel (:mod:`repro.core.kernel_tc_vec`) swaps only the count
hook inside :func:`repro.core.kernel_tc_fast.fast_count`; everything below —
counts on every graph family, the full per-tasklet cost vectors, the golden
hand-computed charges, the duplicate-edge multiplicity semantics, and the
chunked hub-expansion path — must be bit-identical to the ``fast`` kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.kernel_tc_fast import KernelCosts, fast_count, _count_forward_sparse
from repro.core.kernel_tc_vec import (
    VecTriangleCountKernel,
    count_forward_searchsorted,
    vec_count,
)
from repro.core.orient import orient_and_sort
from repro.core.region_index import build_region_index, expand_slices
from repro.testing.strategies import graph_cases

# The worked sample from docs/algorithm.md (test_kernel_cost_golden.py):
# 6 nodes, 8 edges, 2 triangles.
GOLDEN_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (1, 5)]


@pytest.fixture
def golden_sample():
    src = np.array([e[0] for e in GOLDEN_EDGES], dtype=np.int64)
    dst = np.array([e[1] for e in GOLDEN_EDGES], dtype=np.int64)
    return src, dst


def assert_results_identical(a, b):
    """Every field of two FastCountResults, bit for bit."""
    assert a.triangles == b.triangles
    assert a.edges == b.edges
    assert a.regions == b.regions
    assert a.merge_steps_charged == b.merge_steps_charged
    assert a.binary_searches == b.binary_searches
    assert a.sort_mram_bytes == b.sort_mram_bytes
    assert np.array_equal(a.per_tasklet_instr, b.per_tasklet_instr)
    assert np.array_equal(a.per_tasklet_dma_bytes, b.per_tasklet_dma_bytes)
    assert np.array_equal(a.per_tasklet_dma_requests, b.per_tasklet_dma_requests)


class TestGoldenCosts:
    """The hand-computed charges of the worked sample, unchanged by fastvec."""

    def test_count_and_merge_steps(self, golden_sample):
        res = vec_count(*golden_sample, num_nodes=6)
        assert res.triangles == 2
        assert res.merge_steps_charged == 12
        assert res.binary_searches == 8
        assert res.regions == 5

    def test_instruction_total(self, golden_sample):
        # Same 520.0 as fast_count: per-edge 256 + merge 60 + balanced 204.
        res = vec_count(*golden_sample, num_nodes=6)
        assert float(res.per_tasklet_instr.sum()) == pytest.approx(520.0)

    def test_identical_to_fast_everywhere(self, golden_sample):
        assert_results_identical(
            fast_count(*golden_sample, num_nodes=6),
            vec_count(*golden_sample, num_nodes=6),
        )

    def test_identical_under_custom_costs(self, golden_sample):
        costs = KernelCosts(edge_bytes=16, edge_buffer_bytes=64, merge_instr_per_step=9.0)
        assert_results_identical(
            fast_count(*golden_sample, num_nodes=6, costs=costs, num_tasklets=4),
            vec_count(*golden_sample, num_nodes=6, costs=costs, num_tasklets=4),
        )


class TestIntersectionEdgeCases:
    """Targeted shapes where a searchsorted intersection can go wrong."""

    def test_empty_sample(self):
        res = vec_count(np.empty(0, np.int64), np.empty(0, np.int64), 5)
        assert res.triangles == 0 and res.edges == 0

    def test_single_edge_rows(self):
        # A path: every adjacency row has exactly one entry, no triangles.
        src = np.arange(6, dtype=np.int64)
        dst = src + 1
        assert_results_identical(
            fast_count(src, dst, 7), vec_count(src, dst, 7)
        )
        assert vec_count(src, dst, 7).triangles == 0

    def test_empty_adjacency_lookups(self):
        # Star from node 0: every dst is a leaf with empty forward adjacency.
        leaves = 20
        src = np.zeros(leaves, dtype=np.int64)
        dst = np.arange(1, leaves + 1, dtype=np.int64)
        assert vec_count(src, dst, leaves + 1).triangles == 0

    def test_duplicate_heavy_stream(self):
        """Duplicate edges multiply triangle contributions; the searchsorted
        left/right multiplicity count must match the sparse product exactly.
        A triangle with each edge doubled counts 2*2*2 = 8 ways."""
        src = np.array([0, 0, 1, 1, 0, 0], dtype=np.int64)
        dst = np.array([1, 1, 2, 2, 2, 2], dtype=np.int64)
        a = fast_count(src, dst, 3)
        b = vec_count(src, dst, 3)
        assert a.triangles == b.triangles == 8

    def test_duplicate_fuzz_matches_sparse(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            m = int(rng.integers(1, 80))
            # Tiny ID range: lots of duplicates and self-loops by design.
            src = rng.integers(0, n, m)
            dst = rng.integers(0, n, m)
            assert_results_identical(
                fast_count(src, dst, n), vec_count(src, dst, n)
            )

    def test_all_mono_triangles_single_color(self):
        """C=1 and C=2 pipelines route every triangle through the mono path;
        the kernel sees whole (or near-whole) graphs."""
        from repro.core.api import PimTriangleCounter
        from repro.graph.generators import erdos_renyi

        g = erdos_renyi(60, 400, np.random.default_rng(5)).canonicalize()
        for colors in (1, 2):
            merge = PimTriangleCounter(num_colors=colors, seed=0).count(g)
            vec = PimTriangleCounter(
                num_colors=colors, seed=0, kernel_variant="fastvec"
            ).count(g)
            assert vec.count == merge.count
            assert dict(vec.clock.phases) == dict(merge.clock.phases)

    def test_hub_rows_longer_than_chunk(self):
        """A hub whose adjacency slice exceeds the expansion chunk forces the
        multi-chunk path; counts must not change with the chunk size."""
        n = 120
        hub_src = np.zeros(n - 1, dtype=np.int64)
        hub_dst = np.arange(1, n, dtype=np.int64)
        # Ring among the leaves creates wedges through the hub's big row.
        ring_src = np.arange(1, n - 1, dtype=np.int64)
        ring_dst = ring_src + 1
        u, v, _ = orient_and_sort(
            np.concatenate([hub_src, ring_src]), np.concatenate([hub_dst, ring_dst])
        )
        expected = _count_forward_sparse(u, v, n)
        for chunk in (1, 7, 64, 1 << 22):
            got = count_forward_searchsorted(u, v, n, chunk_candidates=chunk)
            assert got == expected

    def test_expand_slices_flattens_spans(self):
        starts = np.array([2, 5, 5, 9], dtype=np.int64)
        ends = np.array([4, 5, 8, 10], dtype=np.int64)
        positions, owner = expand_slices(starts, ends)
        assert positions.tolist() == [2, 3, 5, 6, 7, 9]
        assert owner.tolist() == [0, 0, 2, 2, 2, 3]

    def test_expand_slices_empty(self):
        positions, owner = expand_slices(
            np.array([3, 7], dtype=np.int64), np.array([3, 7], dtype=np.int64)
        )
        assert positions.size == 0 and owner.size == 0


class TestPropertyParity:
    """Hypothesis sweep over the seeded graph families."""

    @given(case=graph_cases())
    @settings(max_examples=40, deadline=None)
    def test_counts_and_charges_match_fast(self, case):
        g = case.graph
        a = fast_count(g.src, g.dst, g.num_nodes)
        b = vec_count(g.src, g.dst, g.num_nodes)
        assert_results_identical(a, b)
        if case.exact is not None:
            assert b.triangles == case.exact

    @given(case=graph_cases())
    @settings(max_examples=25, deadline=None)
    def test_raw_streams_match_sparse_counter(self, case):
        # The raw (uncanonicalized) stream exercises duplicates/self-loops
        # through orient_and_sort on the adversarial family.
        g = case.raw
        assert_results_identical(
            fast_count(g.src, g.dst, g.num_nodes),
            vec_count(g.src, g.dst, g.num_nodes),
        )


class TestKernelObject:
    def test_keeps_trace_compatible_name(self):
        # The load_kernel and launch spans carry kernel.name as an attribute;
        # the vectorized kernel must be indistinguishable there.
        kernel = VecTriangleCountKernel(num_nodes=10)
        assert kernel.name == "triangle_count"

    def test_counter_hook_is_searchsorted(self):
        assert VecTriangleCountKernel(num_nodes=10)._counter() is count_forward_searchsorted

    def test_pipeline_rejects_unknown_variant(self):
        from repro.common.errors import ConfigurationError
        from repro.core.host import PimTcOptions

        with pytest.raises(ConfigurationError):
            PimTcOptions(num_colors=2, kernel_variant="fastervec")

    def test_pipeline_accepts_fastvec(self):
        from repro.core.host import PimTcOptions

        assert PimTcOptions(num_colors=2, kernel_variant="fastvec").kernel_variant == "fastvec"
