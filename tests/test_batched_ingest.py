"""Batched streaming ingestion (``batch_edges``): parity, bounds, telemetry.

The contract under test (see docs/architecture.md, "Batched ingest"):

* ``batch_edges=None`` is one chunk spanning the input, and many-chunk runs
  produce **bit-identical estimates** to it on the differential grid (both
  kernels x every execution engine), because the uniform keep-mask is drawn
  from one stream chunk-by-chunk, routing uses one fixed color hash, and
  reservoir offers index by the global ``seen`` counter;
* host routed-buffer memory is bounded: ``peak_routed_bytes`` tracks at most
  two chunks' routed copies (double buffering), not the whole stream's;
* the overlap model charges ``max(host, device)`` per steady-state batch, so
  the batched simulated time never exceeds host+device serialization;
* telemetry grows one ``batch[k]`` span per chunk plus ingest counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PimTriangleCounter
from repro.common.errors import ConfigurationError
from repro.core.host import PimTcOptions
from repro.core.ingest import DoubleBufferSchedule, iter_edge_batches, num_batches
from repro.graph.coo import COOGraph
from repro.graph.triangles import count_triangles
from repro.pimsim.config import EXECUTOR_NAMES
from repro.telemetry import Telemetry


def _count(graph, *, batch_edges=None, executor=None, telemetry=None, **opts):
    options = PimTcOptions(
        num_colors=opts.pop("num_colors", 3),
        seed=opts.pop("seed", 1),
        batch_edges=batch_edges,
        **opts,
    )
    counter = PimTriangleCounter(
        options=options, executor=executor, jobs=2, telemetry=telemetry
    )
    return counter.count(graph)


# --------------------------------------------------------------- ingest module
class TestIterEdgeBatches:
    def test_views_cover_stream_in_order(self):
        src = np.arange(10, dtype=np.int64)
        dst = np.arange(10, 20, dtype=np.int64)
        chunks = list(iter_edge_batches(src, dst, 4))
        assert [k for k, _, _ in chunks] == [0, 1, 2]
        assert [s.size for _, s, _ in chunks] == [4, 4, 2]
        assert np.array_equal(np.concatenate([s for _, s, _ in chunks]), src)
        assert np.array_equal(np.concatenate([d for _, _, d in chunks]), dst)
        # Views, not copies: no memory beyond the caller's arrays.
        assert all(s.base is src for _, s, _ in chunks)

    def test_empty_stream_yields_nothing(self):
        empty = np.empty(0, dtype=np.int64)
        assert list(iter_edge_batches(empty, empty, 5)) == []

    def test_rejects_nonpositive_batch(self):
        e = np.arange(3)
        with pytest.raises(ConfigurationError):
            list(iter_edge_batches(e, e, 0))
        with pytest.raises(ConfigurationError):
            num_batches(3, -1)

    def test_num_batches_is_ceil_division(self):
        assert num_batches(0, 4) == 0
        assert num_batches(4, 4) == 1
        assert num_batches(5, 4) == 2


class TestDoubleBufferSchedule:
    def test_steady_state_is_max_of_host_and_device(self):
        # h=2, d=3 per batch: after warm-up every step costs max(h, d) = 3.
        sched = DoubleBufferSchedule()
        deltas = [sched.step(2.0, 3.0) for _ in range(5)]
        assert deltas[0] == pytest.approx(5.0)  # first batch: no overlap yet
        for delta in deltas[1:]:
            assert delta == pytest.approx(3.0)
        assert sched.elapsed == pytest.approx(5.0 + 4 * 3.0)
        assert sched.serial_seconds == pytest.approx(5 * 5.0)
        assert sched.saved_seconds == pytest.approx(5 * 5.0 - sched.elapsed)

    def test_never_faster_than_either_resource(self):
        rng = np.random.default_rng(3)
        sched = DoubleBufferSchedule()
        hs, ds = rng.random(20), rng.random(20)
        for h, d in zip(hs, ds):
            sched.step(float(h), float(d))
        assert sched.elapsed >= float(hs.sum()) - 1e-12
        assert sched.elapsed >= float(ds.sum()) - 1e-12
        assert sched.elapsed <= sched.serial_seconds + 1e-12


# ---------------------------------------------------------- end-to-end parity
class TestBatchedMonolithicParity:
    @pytest.mark.parametrize("kernel", ("merge", "probe"))
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_differential_grid_bit_identical(self, small_graph, kernel, executor):
        mono = _count(small_graph, executor=executor, kernel_variant=kernel)
        batched = _count(
            small_graph, batch_edges=48, executor=executor, kernel_variant=kernel
        )
        assert batched.estimate == mono.estimate == count_triangles(small_graph)
        assert np.array_equal(batched.per_dpu_counts, mono.per_dpu_counts)

    @pytest.mark.parametrize("batch", (1, 7, 64, 10**9))
    def test_any_chunking_same_estimate(self, small_graph, batch):
        mono = _count(small_graph)
        batched = _count(small_graph, batch_edges=batch)
        assert batched.estimate == mono.estimate

    @pytest.mark.parametrize(
        "opts",
        (
            {},
            {
                "uniform_p": 0.5,
                "reservoir_capacity": 60,
                "misra_gries_k": 64,
                "misra_gries_t": 8,
            },
        ),
    )
    def test_unchunked_is_one_chunk(self, small_graph, opts):
        # ``batch_edges=None`` is the one-chunk case of the chunked pipeline:
        # every observable output matches a chunk spanning the whole input.
        def run(batch_edges):
            tel = Telemetry()
            result = _count(small_graph, batch_edges=batch_edges, telemetry=tel, **opts)
            return result, tel

        unchunked, unchunked_tel = run(None)
        for batch in (small_graph.num_edges, 10**9):
            one, one_tel = run(batch)
            assert one.estimate == unchunked.estimate
            assert np.array_equal(one.per_dpu_counts, unchunked.per_dpu_counts)
            assert one.clock.phases == unchunked.clock.phases
            assert one_tel.span_signature() == unchunked_tel.span_signature()
            assert one_tel.metrics.snapshot() == unchunked_tel.metrics.snapshot()

    def test_uniform_sampling_parity(self, small_graph):
        # Chunked keep-mask draws are consecutive draws from the same stream:
        # estimates match bitwise even though each run keeps a random subset.
        mono = _count(small_graph, uniform_p=0.5)
        batched = _count(small_graph, batch_edges=37, uniform_p=0.5)
        assert batched.estimate == mono.estimate
        assert batched.meta["edges_kept"] == mono.meta["edges_kept"]

    def test_misra_gries_parity(self, small_graph):
        mono = _count(small_graph, misra_gries_k=64, misra_gries_t=8)
        batched = _count(
            small_graph, batch_edges=50, misra_gries_k=64, misra_gries_t=8
        )
        assert batched.estimate == mono.estimate

    def test_overflow_engine_invariance(self, small_graph):
        # Reservoir overflow draws RNG in a chunk-dependent layout, so batched
        # vs monolithic is distribution- (not bit-) identical — but across
        # engines the batched run must stay bit-identical.
        runs = [
            _count(small_graph, batch_edges=64, executor=ex, reservoir_capacity=100)
            for ex in EXECUTOR_NAMES
        ]
        estimates = {r.estimate for r in runs}
        assert len(estimates) == 1
        totals = {r.total_seconds for r in runs}
        assert len(totals) == 1

    def test_local_counts_parity(self, small_graph):
        counter = PimTriangleCounter(num_colors=3, seed=1)
        mono = counter.count_local(small_graph)
        batched = PimTriangleCounter(num_colors=3, seed=1, batch_edges=40).count_local(
            small_graph
        )
        assert batched.estimate == mono.estimate
        assert np.array_equal(batched.local_estimates, mono.local_estimates)

    def test_empty_graph(self):
        g = COOGraph.from_edges([], num_nodes=0)
        result = _count(g, batch_edges=8)
        assert result.estimate == 0.0
        assert result.meta["ingest_batches"] == 0


# --------------------------------------------------------------- memory bound
class TestBoundedMemory:
    def test_peak_routed_bytes_bounded_by_two_windows(self, small_graph):
        batch = 32
        result = _count(small_graph, batch_edges=batch)
        opts = PimTcOptions(num_colors=3)
        # Double buffering: at most two chunks resident, each duplicated at
        # most C-fold, edge_bytes per routed copy.
        bound = 2 * batch * 3 * opts.kernel_costs.edge_bytes
        assert 0 < result.meta["peak_routed_bytes"] <= bound

    def test_peak_shrinks_with_batch_size(self, small_graph):
        mono = _count(small_graph)
        batched = _count(small_graph, batch_edges=32)
        assert batched.meta["peak_routed_bytes"] < mono.meta["peak_routed_bytes"]
        assert mono.meta["ingest_batches"] == 1
        assert batched.meta["ingest_batches"] == num_batches(small_graph.num_edges, 32)


# ----------------------------------------------------------------- telemetry
class TestIngestTelemetry:
    def test_per_batch_spans_and_counters(self, small_graph):
        tel = Telemetry()
        result = _count(small_graph, batch_edges=100, telemetry=tel)
        paths = [path for path, _ in tel.span_signature()]
        batches = result.meta["ingest_batches"]
        for k in range(batches):
            assert any(path.endswith(f"batch[{k}]") for path in paths), paths
        snap = tel.metrics.snapshot()
        assert snap["host.ingest.batches"]["value"] == batches
        assert snap["host.ingest.peak_routed_bytes"]["value"] == (
            result.meta["peak_routed_bytes"]
        )
        assert snap["host.ingest.overlap_saved_seconds"]["value"] >= 0.0

    def test_batch_spans_carry_timing_attrs(self, small_graph):
        tel = Telemetry()
        _count(small_graph, batch_edges=100, telemetry=tel)
        batch_spans = [s for s in tel.root.walk() if s.name.startswith("batch[")]
        assert batch_spans
        for span in batch_spans:
            assert span.attrs["host_seconds"] > 0
            assert span.attrs["device_seconds"] > 0
            assert span.attrs["routed_bytes"] > 0


# ------------------------------------------------------------------- plumbing
class TestConfiguration:
    def test_options_validation(self):
        with pytest.raises(ConfigurationError):
            PimTcOptions(batch_edges=0)
        assert PimTcOptions().batch_edges is None

    def test_cli_flag(self, small_graph, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.el"
        write_edge_list(small_graph, path)
        assert main([str(path), "--colors", "3", "--batch-edges", "64"]) == 0
        out = capsys.readouterr().out
        assert f"triangles (exact): {count_triangles(small_graph)}" in out
