"""Golden tests of the kernel cost accounting.

Every figure's *shape* flows from these charges, so they are locked against a
hand-computed tiny sample: any change to the cost formulas must consciously
update these numbers (and EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PimTriangleCounter
from repro.core.kernel_tc_fast import KernelCosts, fast_count
from repro.core.kernel_tc_probe import probe_count
from repro.core.orient import orient_and_sort
from repro.core.region_index import build_region_index
from repro.graph.generators import rmat

# The worked sample from docs/algorithm.md: 6 nodes, 8 edges, 2 triangles.
EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (1, 5)]


@pytest.fixture
def sample():
    src = np.array([e[0] for e in EDGES], dtype=np.int64)
    dst = np.array([e[1] for e in EDGES], dtype=np.int64)
    return src, dst


class TestHandComputedQuantities:
    """Every intermediate quantity computed by hand for the worked sample."""

    def test_sorted_sample(self, sample):
        u, v, stats = orient_and_sort(*sample)
        assert list(zip(u.tolist(), v.tolist())) == [
            (0, 1), (0, 2), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5),
        ]
        # m=8 -> sort steps = 8 * ceil(log2 8) = 24; one WRAM run -> 1 pass.
        assert stats.sort_steps == 24
        assert stats.mram_passes == 1

    def test_region_table(self, sample):
        u, v, _ = orient_and_sort(*sample)
        idx = build_region_index(u)
        assert idx.nodes.tolist() == [0, 1, 2, 3, 4]
        assert idx.starts.tolist() == [0, 2, 4, 6, 7]
        assert idx.ends.tolist() == [2, 4, 6, 7, 8]
        # 5 regions -> ceil(log2 6) = 3 binary-search steps.
        assert idx.search_steps() == 3

    def test_merge_steps_charged(self, sample):
        """Charged merge work = sum over edges of (suffix(u) + deg+(v)), with
        d_v = 0 edges skipped.

        Per sorted edge: (0,1): 1+2; (0,2): 0+2; (1,2): 1+2; (1,5): 0+0 skip;
        (2,3): 1+1; (2,4): 0+1; (3,4): 0+1; (4,5): 0+0 skip -> total 12.
        """
        res = fast_count(*sample, num_nodes=6)
        assert res.triangles == 2
        assert res.merge_steps_charged == 12
        assert res.binary_searches == 8
        assert res.regions == 5

    def test_instruction_total(self, sample):
        """Full per-DPU instruction charge assembled from the defaults.

        per-edge: 8 edges * (edge_loop 8 + binsearch 3*8) = 256
        merge:    12 steps * 5                             = 60
        balanced: orient 8*4 + sort 24*6 + region 8*3 + tri 2*2 = 204
        total                                              = 520
        """
        res = fast_count(*sample, num_nodes=6)
        assert float(res.per_tasklet_instr.sum()) == pytest.approx(520.0)

    def test_probe_quantities(self, sample):
        """Probe kernel: probes = sum d_v = 9; steps = 9 * ceil(log2 9) = 36."""
        res = probe_count(*sample, num_nodes=6)
        assert res.triangles == 2
        assert res.probes == 9
        assert res.probe_steps == 9 * 4

    def test_dma_bytes_scale_with_edge_bytes(self, sample):
        small = fast_count(*sample, num_nodes=6, costs=KernelCosts(edge_bytes=8))
        big = fast_count(*sample, num_nodes=6, costs=KernelCosts(edge_bytes=16))
        assert float(big.per_tasklet_dma_bytes.sum()) == pytest.approx(
            2 * float(small.per_tasklet_dma_bytes.sum())
        )


class TestTaskletAssignment:
    def test_blocks_deal_round_robin(self):
        """With a 2-edge buffer and 4 tasklets, 8 blocks of a 16-edge sample
        land 2 blocks per tasklet."""
        m = 16
        src = np.arange(m, dtype=np.int64)
        dst = src + 1
        costs = KernelCosts(edge_buffer_bytes=16, edge_bytes=8)  # 2 edges/buffer
        res = fast_count(src, dst, num_nodes=m + 1, costs=costs, num_tasklets=4)
        # Path graph: no merges (all d_v = 1? deg+ of dst...) — instr evenly split.
        per = res.per_tasklet_instr
        assert per.max() / per.min() < 1.6

    def test_single_tasklet_gets_everything(self, ):
        src = np.array([0, 1, 0], dtype=np.int64)
        dst = np.array([1, 2, 2], dtype=np.int64)
        res = fast_count(src, dst, num_nodes=3, num_tasklets=1)
        assert res.per_tasklet_instr.shape == (1,)
        assert res.per_tasklet_instr[0] > 0


class TestStaticPipelineGolden:
    """Simulated numbers of the static pipeline, pinned to the bit.

    One seeded R-MAT graph at C=6 through five configurations, each of which
    exercises a different charge path: the exact merge kernel; uniform
    sampling with overflowing reservoirs, a Misra-Gries remap and chunked
    ingest; the probe kernel; local counts with a remap; and degree-based
    partitioning with chunked ingest.  A host-side speed-up must
    leave every value here equal: the estimate, each clock phase, the
    per-core counts and the kernel aggregate (instructions, DMA requests,
    DMA bytes, slowest core's compute seconds).
    """

    CONFIGS = {
        "exact": ("count", {}),
        "sampled": (
            "count",
            dict(
                uniform_p=0.5, reservoir_capacity=60, misra_gries_k=32,
                misra_gries_t=4, batch_edges=700,
            ),
        ),
        "probe": ("count", dict(kernel_variant="probe")),
        "local_mg": ("count_local", dict(misra_gries_k=32, misra_gries_t=4)),
        "degree": ("count", dict(partitioner="degree", batch_edges=700)),
    }

    GOLDEN = {
        "exact": {
            "estimate": "0x1.7540000000000p+14",
            "phases": {
                "setup": "0x1.96a52b44bda45p-7",
                "sample_creation": "0x1.c07fe4b39f053p-13",
                "triangle_count": "0x1.bdf5e4908e9f8p-10",
            },
            "per_dpu_counts": [
                128, 584, 493, 434, 476, 455, 591, 838, 712, 825, 834, 491, 548, 747,
                730, 275, 581, 603, 376, 588, 426, 145, 560, 481, 571, 559, 522, 616,
                798, 809, 278, 637, 694, 420, 720, 475, 125, 371, 503, 470, 231, 558,
                546, 417, 644, 427, 42, 245, 274, 317, 502, 386, 76, 321, 369, 94
            ],
            "kernel": (7572003, 27150, 3990376, "0x1.ae348c67384eap-10"),
        },
        "sampled": {
            "estimate": "0x1.e760bca41a740p+13",
            "phases": {
                "setup": "0x1.96a52b44bda45p-7",
                "sample_creation": "0x1.594d0dde07fb2p-11",
                "triangle_count": "0x1.88ac85d6124bcp-13",
            },
            "per_dpu_counts": [
                4, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 5, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 3, 2,
                2, 1, 0, 0, 9, 2, 1, 3
            ],
            "kernel": (381330, 3561, 146184, "0x1.0aa1c48b5fc51p-13"),
        },
        "probe": {
            "estimate": "0x1.7540000000000p+14",
            "phases": {
                "setup": "0x1.96a52b44bda45p-7",
                "sample_creation": "0x1.c07fe4b39f053p-13",
                "triangle_count": "0x1.1e846054a8a41p-6",
            },
            "per_dpu_counts": [
                128, 584, 493, 434, 476, 455, 591, 838, 712, 825, 834, 491, 548, 747,
                730, 275, 581, 603, 376, 588, 426, 145, 560, 481, 571, 559, 522, 616,
                798, 809, 278, 637, 694, 420, 720, 475, 125, 371, 503, 470, 231, 558,
                546, 417, 644, 427, 42, 245, 274, 317, 502, 386, 76, 321, 369, 94
            ],
            "kernel": (19229720, 1812525, 18275848, "0x1.1d884ad2133f1p-6"),
        },
        "local_mg": {
            "estimate": "0x1.7540000000000p+14",
            "phases": {
                "setup": "0x1.96a52b44bda45p-7",
                "sample_creation": "0x1.ee6b937b3bce7p-13",
                "triangle_count": "0x1.690a5757eb16cp-10",
            },
            "per_dpu_counts": [
                128, 584, 493, 434, 476, 455, 591, 838, 712, 825, 834, 491, 548, 747,
                730, 275, 581, 603, 376, 588, 426, 145, 560, 481, 571, 559, 522, 616,
                798, 809, 278, 637, 694, 420, 720, 475, 125, 371, 503, 470, 231, 558,
                546, 417, 644, 427, 42, 245, 274, 317, 502, 386, 76, 321, 369, 94
            ],
            "kernel": (7671137, 34615, 5202344, "0x1.3a4c139d9086ap-10"),
        },
        "degree": {
            "estimate": "0x1.7540000000000p+14",
            "phases": {
                "setup": "0x1.96a6704a48812p-7",
                "sample_creation": "0x1.6f302cf60ad30p-11",
                "triangle_count": "0x1.c72004ca95d74p-10",
            },
            "per_dpu_counts": [
                114, 498, 462, 440, 441, 422, 424, 722, 735, 754, 717, 498, 661, 763,
                740, 408, 627, 729, 415, 597, 417, 77, 326, 390, 404, 354, 433, 657,
                699, 618, 397, 673, 719, 425, 613, 415, 125, 452, 504, 470, 400, 663,
                712, 421, 659, 427, 85, 361, 444, 347, 578, 459, 83, 345, 365, 94
            ],
            "kernel": (7548603, 27050, 3960776, "0x1.b75eaca13f866p-10"),
        },
    }

    @pytest.fixture(scope="class")
    def graph(self):
        rng = np.random.default_rng(11)
        return rmat(10, 8, rng).canonicalize().shuffle(rng)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_simulated_numbers_are_pinned(self, graph, name):
        method, options = self.CONFIGS[name]
        counter = PimTriangleCounter(num_colors=6, seed=5, **options)
        result = getattr(counter, method)(graph)
        want = self.GOLDEN[name]
        k = result.kernel
        assert float(result.estimate).hex() == want["estimate"]
        assert {p: s.hex() for p, s in result.clock.phases.items()} == want["phases"]
        assert result.per_dpu_counts.tolist() == want["per_dpu_counts"]
        assert (
            k.instructions, k.dma_requests, k.dma_bytes,
            k.max_dpu_compute_seconds.hex(),
        ) == want["kernel"]

        # Each configuration really takes the path it is here for.
        remapped = result.telemetry.find("sample_creation/broadcast_remap") is not None
        assert remapped == ("misra_gries_k" in options)
        if name == "sampled":
            assert np.all(result.edges_routed > options["reservoir_capacity"])
            assert np.all(result.reservoir_scales < 1.0)
            assert result.meta["ingest_batches"] > 1
        else:
            assert result.is_exact
        if name == "degree":
            assert result.meta["partitioner"] == "degree"
            assert result.meta["ingest_batches"] > 1
        if name == "probe":
            assert k.instructions != self.GOLDEN["exact"]["kernel"][0]
