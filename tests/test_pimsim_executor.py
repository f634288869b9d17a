"""Executor engines: parity contract, chunking, and graceful degradation.

The determinism contract (see ``repro.pimsim.executor``): the execution
engine changes host wall-clock only.  Triangle counts, per-phase simulated
seconds, per-DPU charge vectors, span trees and metric snapshots must be
bit-identical across serial / thread / process engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.core.api import PimTriangleCounter
from repro.graph.generators import erdos_renyi
from repro.pimsim.config import EXECUTOR_NAMES, PimSystemConfig
from repro.pimsim.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    _chunk_slices,
    make_executor,
)

ENGINES = list(EXECUTOR_NAMES)


@pytest.fixture(scope="module")
def seeded_graph():
    rng = RngFactory(99).stream("executor-graph")
    return erdos_renyi(150, 1500, rng, name="er-exec").canonicalize()


def _run(graph, engine: str, jobs: int | None = 2, **opts):
    counter = PimTriangleCounter(seed=5, executor=engine, jobs=jobs, **opts)
    return counter.count(graph)


# ------------------------------------------------------------------- parity
@pytest.mark.parametrize("engine", ENGINES)
def test_engine_parity_exact_path(seeded_graph, engine):
    """Counts, per-phase simulated seconds, spans and metrics match serial."""
    base = _run(seeded_graph, "serial", num_colors=5)
    result = _run(seeded_graph, engine, num_colors=5)
    assert result.count == base.count
    assert result.clock.phases == base.clock.phases  # bit-identical, not approx
    assert np.array_equal(result.per_dpu_counts, base.per_dpu_counts)
    assert result.telemetry.span_signature() == base.telemetry.span_signature()
    assert result.telemetry.metrics.snapshot() == base.telemetry.metrics.snapshot()
    assert result.kernel == base.kernel


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_parity_sampling_paths(seeded_graph, engine):
    """Reservoir + Misra-Gries paths stay bit-identical too (per-DPU RNG)."""
    kw = dict(
        num_colors=4,
        reservoir_capacity=64,
        misra_gries_k=32,
        misra_gries_t=4,
    )
    base = _run(seeded_graph, "serial", **kw)
    result = _run(seeded_graph, engine, **kw)
    assert result.estimate == base.estimate
    assert result.clock.phases == base.clock.phases
    assert np.array_equal(result.per_dpu_counts, base.per_dpu_counts)
    assert np.array_equal(result.reservoir_scales, base.reservoir_scales)


def test_engine_parity_charge_vectors(seeded_graph):
    """Worker processes hand back the exact charge ledgers serial would build."""
    from repro.core.kernel_tc_fast import TriangleCountKernel
    from repro.pimsim.system import PimSystem

    ledgers = {}
    for engine in ("serial", "process"):
        system = PimSystem(PimSystemConfig(executor=engine, jobs=2))
        dpus = system.allocate(6)
        dpus.load_kernel(TriangleCountKernel(num_nodes=seeded_graph.num_nodes))
        m = seeded_graph.num_edges
        chunks = np.array_split(np.arange(m), 6)
        dpus.scatter("sample_src", [seeded_graph.src[c].astype(np.int32) for c in chunks])
        dpus.scatter("sample_dst", [seeded_graph.dst[c].astype(np.int32) for c in chunks])
        dpus.launch()
        ledgers[engine] = [dpu.charge_vectors() for dpu in dpus.dpus]
        dpus.free()
    for (si, sd), (pi, pd) in zip(ledgers["serial"], ledgers["process"]):
        assert np.array_equal(si, pi)
        assert np.array_equal(sd, pd)


# ------------------------------------------------------------------ engines
def test_make_executor_names_and_validation():
    assert isinstance(make_executor("serial"), SerialExecutor)
    assert isinstance(make_executor("thread", 3), ThreadExecutor)
    assert isinstance(make_executor("process", 2), ProcessExecutor)
    with pytest.raises(ConfigurationError):
        make_executor("gpu")
    with pytest.raises(ConfigurationError):
        make_executor("thread", 0)


def test_config_validates_executor_fields():
    with pytest.raises(ConfigurationError):
        PimSystemConfig(executor="warp")
    with pytest.raises(ConfigurationError):
        PimSystemConfig(jobs=0)
    cfg = PimSystemConfig().with_executor("process", 4)
    assert (cfg.executor, cfg.jobs) == ("process", 4)


def test_chunk_slices_cover_exactly_once():
    for n, parts in [(1, 4), (7, 3), (10, 10), (120, 7), (5, 1)]:
        slices = _chunk_slices(n, parts)
        seen = []
        for sl in slices:
            seen.extend(range(n)[sl])
        assert seen == list(range(n))
        assert len(slices) == min(parts, n)


def test_process_executor_jobs1_degrades_gracefully(seeded_graph):
    """jobs=1 must run in-process (no pool) and still be bit-identical."""
    executor = ProcessExecutor(jobs=1)
    try:
        base = _run(seeded_graph, "serial", num_colors=4)
        result = _run(seeded_graph, "process", jobs=1, num_colors=4)
        assert result.count == base.count
        assert result.clock.phases == base.clock.phases
        # and the engine never opened a pool
        assert executor._pool is None
        executor.map_dpus(lambda dpu, p: p, [], [])
        assert executor._pool is None
    finally:
        executor.close()


def test_executor_map_results_in_dpu_order():
    """Results are merged by DPU index whatever the scheduling order."""
    from repro.pimsim.config import CostModel, DpuConfig
    from repro.pimsim.dpu import Dpu

    dpus = [Dpu(dpu_id=i, config=DpuConfig(), cost=CostModel()) for i in range(9)]
    payloads = list(range(9))
    for engine in (SerialExecutor(), ThreadExecutor(jobs=4), ProcessExecutor(jobs=3)):
        try:
            out = engine.map_dpus(_echo_payload, dpus, payloads)
            assert out == payloads
        finally:
            engine.close()


def _echo_payload(dpu, payload):
    return payload


def test_process_executor_merges_mutations_back():
    """MRAM writes made inside workers must be visible to the parent."""
    from repro.pimsim.config import CostModel, DpuConfig
    from repro.pimsim.dpu import Dpu

    dpus = [Dpu(dpu_id=i, config=DpuConfig(), cost=CostModel()) for i in range(4)]
    engine = ProcessExecutor(jobs=2)
    try:
        engine.map_dpus(_store_id, dpus, [None] * 4)
    finally:
        engine.close()
    for i, dpu in enumerate(dpus):
        assert int(dpu.mram.load("marker", count_read=False)[0]) == i


def _store_id(dpu, _payload):
    dpu.mram.store("marker", np.array([dpu.dpu_id], dtype=np.int64), count_write=False)
    return None


def test_map_dpus_async_matches_sync_results():
    """join() returns exactly what map_dpus would, on every engine."""
    from repro.pimsim.config import CostModel, DpuConfig
    from repro.pimsim.dpu import Dpu

    payloads = list(range(9))
    for engine in (SerialExecutor(), ThreadExecutor(jobs=4), ProcessExecutor(jobs=3)):
        dpus = [Dpu(dpu_id=i, config=DpuConfig(), cost=CostModel()) for i in range(9)]
        try:
            join = engine.map_dpus_async(_echo_payload, dpus, payloads)
            assert join() == payloads
        finally:
            engine.close()


def test_map_dpus_async_process_splices_mutations_at_join():
    """Worker-side MRAM writes appear in the parent's DPU list after join()."""
    from repro.pimsim.config import CostModel, DpuConfig
    from repro.pimsim.dpu import Dpu

    dpus = [Dpu(dpu_id=i, config=DpuConfig(), cost=CostModel()) for i in range(6)]
    engine = ProcessExecutor(jobs=2)
    try:
        join = engine.map_dpus_async(_store_id, dpus, [None] * 6)
        join()
    finally:
        engine.close()
    for i, dpu in enumerate(dpus):
        assert int(dpu.mram.load("marker", count_read=False)[0]) == i


def test_map_dpus_async_single_dpu_is_eager():
    """Degenerate shapes skip the pool: the base (eager) path runs inline."""
    from repro.pimsim.config import CostModel, DpuConfig
    from repro.pimsim.dpu import Dpu

    for engine in (ThreadExecutor(jobs=4), ProcessExecutor(jobs=4)):
        dpus = [Dpu(dpu_id=0, config=DpuConfig(), cost=CostModel())]
        try:
            join = engine.map_dpus_async(_echo_payload, dpus, [41])
            assert join() == [41]
        finally:
            engine.close()
