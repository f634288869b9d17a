"""Dynamic PIM counter: incremental correctness and time accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, GraphFormatError
from repro.core import dynamic
from repro.core.dynamic import DynamicPimCounter
from repro.graph.coo import COOGraph
from repro.graph.datasets import get_dataset
from repro.graph.generators import erdos_renyi, rmat
from repro.graph.triangles import count_triangles
from repro.pimsim.config import PimSystemConfig


class TestValidation:
    def test_rejects_zero_colors(self):
        with pytest.raises(ConfigurationError):
            DynamicPimCounter(10, num_colors=0)

    def test_mg_params_must_pair(self):
        with pytest.raises(ConfigurationError):
            DynamicPimCounter(10, num_colors=2, misra_gries_k=8)

    def test_core_budget_checked_before_triplet_table(self, monkeypatch):
        """Too many colors are refused before the C**3 triplet table is built."""
        from repro.coloring.triplets import TripletTable

        def build(cls, num_colors):
            raise AssertionError(f"triplet table built for C={num_colors}")

        monkeypatch.setattr(TripletTable, "build", classmethod(build))
        with pytest.raises(ConfigurationError, match="PIM cores"):
            DynamicPimCounter(10, num_colors=10**5)

    def test_rejects_node_range_beyond_edge_keys(self):
        with pytest.raises(ConfigurationError):
            DynamicPimCounter(2**32, num_colors=1)

    def test_key_range_covers_every_core(self):
        """Keys carry the core, so ``num_dpus * (n + 1)**2`` must fit int64."""
        with pytest.raises(ConfigurationError, match="int64 edge keys"):
            DynamicPimCounter(10**9, num_colors=8)

    @pytest.mark.parametrize(
        "colors, limit", [(8, 277_238_945), (4, 679_093_955), (1, 3_037_000_498)]
    )
    def test_node_limit_per_color_count(self, colors, limit):
        assert DynamicPimCounter(limit, num_colors=colors).num_nodes == limit
        with pytest.raises(ConfigurationError, match="int64 edge keys"):
            DynamicPimCounter(limit + 1, num_colors=colors)

    @pytest.mark.parametrize("op", ["apply_update", "apply_deletion"])
    def test_rejects_node_ids_out_of_range(self, op):
        dyn = DynamicPimCounter(10, num_colors=2)
        with pytest.raises(GraphFormatError):
            getattr(dyn, op)(COOGraph.from_edges([(1, 10)], num_nodes=11))


class TestIncrementalCorrectness:
    @pytest.mark.parametrize("colors", [1, 2, 4])
    def test_final_count_matches_oracle(self, small_graph, colors):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=colors, seed=2)
        for batch in small_graph.split_batches(5):
            dyn.apply_update(batch)
        assert dyn.triangles == count_triangles(small_graph)

    def test_every_round_matches_prefix_count(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=1)
        batches = small_graph.split_batches(4)
        cumulative = None
        for batch in batches:
            cumulative = batch if cumulative is None else cumulative.concat(batch)
            result = dyn.apply_update(batch)
            assert result.triangles_total == count_triangles(cumulative)

    def test_added_triangles_sum_to_total(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=5)
        added = [dyn.apply_update(b).triangles_added for b in small_graph.split_batches(6)]
        assert sum(added) == count_triangles(small_graph)

    def test_with_misra_gries_still_exact(self):
        g = get_dataset("wikipedia", "tiny")
        dyn = DynamicPimCounter(
            g.num_nodes, num_colors=3, seed=2, misra_gries_k=128, misra_gries_t=4
        )
        for batch in g.split_batches(4):
            dyn.apply_update(batch)
        assert dyn.triangles == count_triangles(g)

    def test_single_batch_equals_static(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=0)
        dyn.apply_update(small_graph)
        assert dyn.triangles == count_triangles(small_graph)


TRIANGLE = [(0, 1), (1, 2), (0, 2)]


class TestSetSemantics:
    """The resident graph is a set: repeats, reversed pairs, self-loops and
    resident edges change nothing, so the delta count stays exact."""

    @pytest.mark.parametrize(
        "ops, triangles, edges, last",
        [
            pytest.param(
                [("insert", TRIANGLE), ("insert", [(0, 1)])],
                1, 3, {"new_edges": 0, "ignored_edges": 1},
                id="reinsert-resident",
            ),
            pytest.param(
                [("insert", [(3, 4), (3, 5), (4, 6), (5, 6), (4, 5), (5, 4)])],
                2, 5, {"new_edges": 5, "ignored_edges": 1},
                id="reversed-pair-on-two-triangles",
            ),
            pytest.param(
                [("insert", TRIANGLE + [(1, 0)])],
                1, 3, {"new_edges": 3, "ignored_edges": 1},
                id="reversed-pair",
            ),
            pytest.param(
                [("insert", TRIANGLE), ("insert", [(1, 0)]), ("delete", [(0, 1)])],
                0, 2, {"removed_edges": 1, "ignored_edges": 0},
                id="delete-twice-inserted",
            ),
            pytest.param(
                [("insert", TRIANGLE + [(2, 2)])],
                1, 3, {"new_edges": 3, "ignored_edges": 1},
                id="self-loop",
            ),
        ],
    )
    def test_repeats_never_over_count(self, ops, triangles, edges, last):
        dyn = DynamicPimCounter(8, num_colors=2, seed=0)
        for op, pairs in ops:
            batch = COOGraph.from_edges(pairs, num_nodes=8)
            result = dyn.apply_update(batch) if op == "insert" else dyn.apply_deletion(batch)
        assert dyn.triangles == triangles
        assert dyn.cumulative_edges == edges
        assert {key: getattr(result, key, None) for key in last} == last
        np.testing.assert_array_equal(dyn._raw_counts, dyn.recount())


class TestChunkedUpdates:
    """``batch_edges`` streams each update in chunks; counts must not move."""

    def test_rejects_zero_batch_edges(self):
        with pytest.raises(ConfigurationError):
            DynamicPimCounter(10, num_colors=2, batch_edges=0)

    @pytest.mark.parametrize("chunk", [1, 13, 10**6])
    def test_counts_match_monolithic(self, small_graph, chunk):
        mono = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=2)
        chunked = DynamicPimCounter(
            small_graph.num_nodes, num_colors=3, seed=2, batch_edges=chunk
        )
        for batch in small_graph.split_batches(4):
            a = mono.apply_update(batch)
            b = chunked.apply_update(batch)
            assert b.triangles_total == a.triangles_total
            assert b.triangles_added == a.triangles_added
        assert chunked.triangles == count_triangles(small_graph)

    def test_with_misra_gries_matches_monolithic(self):
        g = get_dataset("wikipedia", "tiny")
        mono = DynamicPimCounter(
            g.num_nodes, num_colors=3, seed=2, misra_gries_k=128, misra_gries_t=4
        )
        chunked = DynamicPimCounter(
            g.num_nodes,
            num_colors=3,
            seed=2,
            misra_gries_k=128,
            misra_gries_t=4,
            batch_edges=17,
        )
        for batch in g.split_batches(3):
            assert (
                chunked.apply_update(batch).triangles_total
                == mono.apply_update(batch).triangles_total
            )
        assert chunked.triangles == count_triangles(g)

    def test_deletion_after_chunked_inserts(self, small_graph):
        dyn = DynamicPimCounter(
            small_graph.num_nodes, num_colors=3, seed=1, batch_edges=29
        )
        dyn.apply_update(small_graph)
        drop = small_graph.split_batches(8)[0]
        dyn.apply_deletion(drop)
        remaining = [
            (int(u), int(v))
            for u, v in zip(small_graph.src, small_graph.dst)
            if (int(u), int(v)) not in set(zip(drop.src.tolist(), drop.dst.tolist()))
        ]
        from repro.graph.coo import COOGraph

        expect = count_triangles(
            COOGraph.from_edges(remaining, num_nodes=small_graph.num_nodes)
        )
        assert dyn.triangles == expect


class TestTimeAccounting:
    def test_setup_excluded_from_rounds(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=1)
        assert dyn.setup_seconds > 0
        assert dyn.cumulative_seconds == 0.0
        result = dyn.apply_update(small_graph.split_batches(2)[0])
        assert result.cumulative_seconds == pytest.approx(result.round_seconds)

    def test_cumulative_monotone(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=1)
        last = 0.0
        for batch in small_graph.split_batches(5):
            result = dyn.apply_update(batch)
            assert result.round_seconds > 0
            assert result.cumulative_seconds > last
            last = result.cumulative_seconds

    def test_round_metadata(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=1)
        batches = small_graph.split_batches(3)
        r1 = dyn.apply_update(batches[0])
        r2 = dyn.apply_update(batches[1])
        assert (r1.round_index, r2.round_index) == (1, 2)
        assert r2.cumulative_edges == batches[0].num_edges + batches[1].num_edges
        assert "round=2" in repr(r2)

    def test_mg_remap_cheapens_hub_rounds(self):
        """On the hub graph, Misra-Gries lowers total dynamic time."""
        g = get_dataset("wikipedia", "tiny")
        plain = DynamicPimCounter(g.num_nodes, num_colors=3, seed=2)
        remap = DynamicPimCounter(
            g.num_nodes, num_colors=3, seed=2, misra_gries_k=256, misra_gries_t=8
        )
        for batch in g.split_batches(5):
            plain.apply_update(batch)
            remap.apply_update(batch)
        assert remap.triangles == plain.triangles
        assert remap.cumulative_seconds < plain.cumulative_seconds


class TestEmptyBatches:
    def test_empty_batch_is_noop_for_count(self, small_graph):
        from repro.graph.coo import COOGraph

        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=1)
        dyn.apply_update(small_graph)
        before = dyn.triangles
        result = dyn.apply_update(COOGraph.from_edges([], num_nodes=small_graph.num_nodes))
        assert result.triangles_added == 0
        assert dyn.triangles == before


class TestGoldenClock:
    """Simulated clocks of a seeded stream, pinned to the bit.

    Counting only the delta changed the functional arithmetic, not the
    charges: every round's ``round_seconds`` and the final
    ``cumulative_seconds`` equal the values the whole-sample recount
    produced, with Misra-Gries off and on, in one chunk and in chunks.
    """

    #: (misra_gries_k, batch_edges) -> (per-round round_seconds, final
    #: cumulative_seconds), as float hex.
    GOLDEN = {
        (0, None): (
            ["0x1.5b48b0239e980p-13", "0x1.659298fc68340p-13",
             "0x1.63b76a4229a00p-13", "0x1.9c234b6fd8b00p-14"],
            "0x1.3ca9164687310p-11",
        ),
        (0, 300): (
            ["0x1.6fdb697e0b660p-12", "0x1.7d38665e38e20p-12",
             "0x1.3b7f6b549d0c0p-12", "0x1.9c234b6fd8b00p-14"],
            "0x1.23e7038335e00p-10",
        ),
        (64, None): (
            ["0x1.8650d093a46c0p-13", "0x1.971f783578640p-13",
             "0x1.9759bd0708a80p-13", "0x1.f0106b22f5f00p-14"],
            "0x1.6b348ed8681c0p-11",
        ),
        (64, 300): (
            ["0x1.8c43f7e6f5960p-12", "0x1.a419e4234ce40p-12",
             "0x1.63e6bd89b4860p-12", "0x1.f0106b22f5f00p-14"],
            "0x1.44122d172d1f0p-10",
        ),
    }

    @pytest.mark.parametrize("mg_k, batch_edges", sorted(GOLDEN, key=str))
    def test_round_clocks_are_pinned(self, mg_k, batch_edges):
        rng = np.random.default_rng(7)
        graph = rmat(9, 8, rng).canonicalize().shuffle(rng)
        drop = np.random.default_rng(8).choice(graph.num_edges, 100, replace=False)
        dyn = DynamicPimCounter(
            graph.num_nodes,
            num_colors=8,
            seed=3,
            misra_gries_k=mg_k,
            misra_gries_t=8 if mg_k else 0,
            batch_edges=batch_edges,
        )
        rounds = [
            dyn.apply_update(graph.slice(s, min(s + 1000, graph.num_edges)))
            for s in range(0, graph.num_edges, 1000)
        ]
        rounds.append(
            dyn.apply_deletion(COOGraph(graph.src[drop], graph.dst[drop], graph.num_nodes))
        )
        per_round, total = self.GOLDEN[(mg_k, batch_edges)]
        assert [r.round_seconds.hex() for r in rounds] == per_round
        assert dyn.cumulative_seconds.hex() == total
        assert dyn.triangles == 8517


class TestPipelineBoundGoldenClock:
    """:class:`TestGoldenClock`'s stream with near-free MRAM, pinned to the bit.

    At the default costs every deleting core is MRAM-bound, so no other
    test sees the deletion round's instruction charge.  Here every core is
    pipeline-bound and each round's seconds follow its instructions.
    """

    #: (misra_gries_k, batch_edges) -> per-round round_seconds, as float hex.
    GOLDEN = {
        (0, None): [
            "0x1.32d8c7fe2a240p-13", "0x1.3ded3ef7f3c00p-13",
            "0x1.40166c3dee080p-13", "0x1.818b026a85300p-14",
        ],
        (64, 300): [
            "0x1.785fb10bfbcc0p-12", "0x1.968729f821d60p-12",
            "0x1.58cb7456961e0p-12", "0x1.d578221da2780p-14",
        ],
    }

    @pytest.mark.parametrize("mg_k, batch_edges", sorted(GOLDEN, key=str))
    def test_round_clocks_are_pinned(self, mg_k, batch_edges):
        rng = np.random.default_rng(7)
        graph = rmat(9, 8, rng).canonicalize().shuffle(rng)
        drop = np.random.default_rng(8).choice(graph.num_edges, 100, replace=False)
        dyn = DynamicPimCounter(
            graph.num_nodes,
            num_colors=8,
            seed=3,
            misra_gries_k=mg_k,
            misra_gries_t=8 if mg_k else 0,
            batch_edges=batch_edges,
            system_config=PimSystemConfig().with_cost(
                mram_read_bandwidth=1e18, mram_dma_latency_cycles=0.0
            ),
        )
        rounds = [
            dyn.apply_update(graph.slice(s, min(s + 1000, graph.num_edges)))
            for s in range(0, graph.num_edges, 1000)
        ]
        rounds.append(
            dyn.apply_deletion(COOGraph(graph.src[drop], graph.dst[drop], graph.num_nodes))
        )
        assert [r.round_seconds.hex() for r in rounds] == self.GOLDEN[(mg_k, batch_edges)]
        assert dyn.triangles == 8517


class TestChunkDifferential:
    """Every chunk a round merges equals the one-core reference, core by core.

    ``_merge_chunk`` handles all cores of a chunk with array operations;
    ``_merge_and_charge`` handles one core at a time.  A second
    counter replays each chunk through the reference, and after every chunk
    the two agree on each core's compute seconds (as float hex), triangle
    count, region count and sample.  At the default costs most cores are
    MRAM-bound, so each stream also runs with near-free MRAM, where the
    seconds follow the instruction charges.
    """

    #: System configurations: the default, and one whose cores are
    #: pipeline-bound because MRAM reads cost (almost) nothing.
    SYSTEMS = {
        "default": PimSystemConfig(),
        "pipeline-bound": PimSystemConfig().with_cost(
            mram_read_bandwidth=1e18, mram_dma_latency_cycles=0.0
        ),
    }

    @staticmethod
    def _checked(dyn: DynamicPimCounter, ref: DynamicPimCounter) -> list[int]:
        merge_chunk = dyn._merge_chunk
        chunks = []

        def checked(part, remap):
            times = merge_chunk(part, remap)
            want = [
                ref._merge_and_charge(d, src, dst, remap)
                for d, (src, dst) in enumerate(part.per_dpu)
            ]
            assert [float(x).hex() for x in times] == [x.hex() for x in want]
            np.testing.assert_array_equal(dyn._raw_counts, ref._raw_counts)
            np.testing.assert_array_equal(dyn._regions, ref._regions)
            for d in np.flatnonzero(part.counts):
                np.testing.assert_array_equal(dyn._core_keys(d), ref._core_keys(d))
            chunks.append(int(part.counts.sum()))
            return times

        dyn._merge_chunk = checked
        return chunks

    @staticmethod
    def _stream(graph, batch, deletions):
        m = graph.num_edges
        inserts = [graph.slice(s, min(s + batch, m)) for s in range(0, m, batch)]
        return inserts, [
            COOGraph(graph.src[sel], graph.dst[sel], graph.num_nodes) for sel in deletions
        ]

    def _replay(self, dyn, ref, inserts, deletes, reinserts):
        chunks = self._checked(dyn, ref)
        for batch in inserts:
            dyn.apply_update(batch)
        for batch in deletes:
            # Deletion rounds have no one-core reference: delete on both, so
            # the re-inserts start from the same samples.
            dyn.apply_deletion(batch)
            ref.apply_deletion(batch)
        for batch in reinserts:
            dyn.apply_update(batch)
        np.testing.assert_array_equal(dyn._raw_counts, dyn.recount())
        return chunks

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_service_shaped_stream(self, system):
        rng = np.random.default_rng(5)
        graph = rmat(10, 8, rng).canonicalize().shuffle(rng)
        m = graph.num_edges
        inserts, deletes = self._stream(
            graph, 128, [np.arange(s, min(s + 128, m // 4)) for s in range(0, m // 4, 128)]
        )
        dyn, ref = (
            DynamicPimCounter(
                graph.num_nodes, num_colors=4, seed=9, system_config=self.SYSTEMS[system]
            )
            for _ in "ab"
        )
        # Re-insert the deleted quarter: its first batches hold it exactly.
        chunks = self._replay(dyn, ref, inserts, deletes, inserts[: len(deletes)])
        assert len(chunks) == len(inserts) + len(deletes)
        assert dyn.triangles == count_triangles(graph)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_misra_gries_chunked_stream(self, system):
        rng = np.random.default_rng(6)
        graph = rmat(9, 8, rng).canonicalize().shuffle(rng)
        m = graph.num_edges
        drop = np.random.default_rng(7).choice(m, 150, replace=False)
        inserts, deletes = self._stream(graph, 1000, [drop])
        dyn, ref = (
            DynamicPimCounter(
                graph.num_nodes, num_colors=8, seed=3, misra_gries_k=64,
                misra_gries_t=8, batch_edges=300, system_config=self.SYSTEMS[system],
            )
            for _ in "ab"
        )
        chunks = self._replay(dyn, ref, inserts, deletes, deletes)
        assert len(chunks) > len(inserts) + 1  # batches split into chunks
        assert dyn.triangles == count_triangles(graph)


class TestShards:
    """The resident keys live in core-range shards of bounded size."""

    def test_stream_splits_shards_and_stays_exact(self, monkeypatch):
        monkeypatch.setattr(dynamic, "SHARD_MAX_KEYS", 64)
        rng = np.random.default_rng(2)
        graph = rmat(9, 8, rng).canonicalize().shuffle(rng)
        dyn = DynamicPimCounter(graph.num_nodes, num_colors=4, seed=1, batch_edges=200)
        for batch in graph.split_batches(6):
            dyn.apply_update(batch)
            spans = dyn._spans()
            assert spans[0][0] == 0 and spans[-1][1] == dyn.partitioner.num_dpus
            for (first, last), keys in zip(spans, dyn._shards):
                assert last - first == 1 or keys.size <= dynamic.SHARD_MAX_KEYS
                assert np.all(np.diff(keys) > 0)
                assert keys.size == 0 or (
                    first * dyn._n2 <= keys[0] and keys[-1] < last * dyn._n2
                )
        assert len(dyn._shards) > 1
        assert dyn.triangles == count_triangles(graph)
        np.testing.assert_array_equal(dyn._raw_counts, dyn.recount())
        assert dyn.resident_bytes == graph.num_edges * 4 * dyn.costs.edge_bytes
