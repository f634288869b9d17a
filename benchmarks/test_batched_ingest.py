"""Batched-ingest benchmark: bounded memory and the overlap win, asserted.

Unlike the figure benchmarks this module makes hard claims on the simulated
clock: on a stream large enough that per-batch launch/transfer latencies are
amortized, the double-buffered ingest pipeline must (a) keep the peak routed
host buffer at two chunk windows instead of the whole stream and (b) finish
no later than one chunk spanning the stream — while producing the identical
count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import PimTriangleCounter
from repro.graph.generators import erdos_renyi

COLORS = 4
EDGES = 200_000
BATCH = 50_000


@pytest.fixture(scope="module")
def stream_graph():
    rng = np.random.default_rng(0)
    return erdos_renyi(50_000, EDGES, rng, name="bench-ingest").canonicalize()


@pytest.fixture(scope="module")
def results(stream_graph):
    mono = PimTriangleCounter(num_colors=COLORS, seed=1).count(stream_graph)
    batched = PimTriangleCounter(
        num_colors=COLORS, seed=1, batch_edges=BATCH
    ).count(stream_graph)
    return mono, batched


def test_counts_identical(results):
    mono, batched = results
    assert batched.estimate == mono.estimate
    assert np.array_equal(batched.per_dpu_counts, mono.per_dpu_counts)


def test_peak_routed_bytes_is_two_windows_not_stream(results, stream_graph):
    mono, batched = results
    edge_bytes = mono.meta["peak_routed_bytes"] // (
        int(mono.edges_routed.sum()) or 1
    )
    # Monolithic: the whole C-fold routed stream resident at once.
    assert mono.meta["peak_routed_bytes"] >= stream_graph.num_edges * edge_bytes
    # Batched: at most two windows of O(batch_edges * C) copies each.
    bound = 2 * BATCH * COLORS * max(edge_bytes, 1)
    assert 0 < batched.meta["peak_routed_bytes"] <= bound
    assert batched.meta["peak_routed_bytes"] < mono.meta["peak_routed_bytes"]


def test_batched_simulated_time_no_worse_than_monolithic(results):
    mono, batched = results
    assert batched.clock.get("sample_creation") <= mono.clock.get("sample_creation")
    assert batched.total_seconds <= mono.total_seconds


def test_batch_count_matches_chunking(results):
    _, batched = results
    assert batched.meta["ingest_batches"] == -(-EDGES // BATCH)
