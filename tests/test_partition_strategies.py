"""Strategy selection end-to-end: exactness, skew, engine parity, wiring.

The pluggable balancing layer must never change the answer — any
partition-coloring is exact under the monochromatic correction — while the
degree strategy must visibly *reduce* routing skew on the graph families the
paper's straggler story is about (hubs and power-law tails).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import PimTriangleCounter
from repro.graph.datasets import get_dataset
from repro.graph.triangles import count_triangles
from repro.testing.differential import DifferentialRunner, PARTITIONER_GRID


@pytest.fixture(scope="module")
def hub_tiny():
    return get_dataset("wikipedia", "tiny").canonicalize()


@pytest.fixture(scope="module")
def powerlaw_tiny():
    return get_dataset("kronecker24", "tiny").canonicalize()


class TestCountParity:
    """hash / degree / auto x three executors: identical exact counts."""

    def test_differential_grid_with_all_strategies(self, hub_tiny):
        runner = DifferentialRunner(
            num_colors=4, partitioners=PARTITIONER_GRID, variants=("merge",)
        )
        report = runner.run(hub_tiny)
        assert report.ok, report.failures
        # every strategy appears in the grid under every engine
        for part in ("degree", "auto"):
            for engine in ("serial", "thread", "process"):
                assert f"pipeline:merge×{part}×{engine}" in report.counts

    @pytest.mark.parametrize("partitioner", PARTITIONER_GRID)
    def test_each_strategy_is_exact(self, powerlaw_tiny, partitioner):
        truth = count_triangles(powerlaw_tiny)
        result = PimTriangleCounter(
            num_colors=4, seed=0, partitioner=partitioner
        ).count(powerlaw_tiny)
        assert result.count == truth
        assert result.meta["partitioner"] in ("hash", "degree")

    def test_auto_records_decision(self, hub_tiny):
        result = PimTriangleCounter(
            num_colors=4, seed=0, partitioner="auto"
        ).count(hub_tiny)
        auto = result.meta["autotune"]
        assert auto["strategy"] == result.meta["partitioner"]
        assert [s["rule"] for s in auto["trace"]] == [
            "strategy", "colors", "misra_gries", "expected_load",
        ]

    def test_local_counts_follow_strategy(self, hub_tiny):
        truth = count_triangles(hub_tiny)
        local = PimTriangleCounter(
            num_colors=4, seed=0, partitioner="degree"
        ).count_local(hub_tiny)
        assert local.estimate == truth
        assert local.local_estimates.sum() == pytest.approx(3 * truth)


class TestSkewReduction:
    """Degree partitioning strictly reduces skew on hub/power-law families."""

    @pytest.mark.parametrize("name", ["wikipedia", "kronecker24"])
    def test_max_over_mean_drops(self, name):
        graph = get_dataset(name, "tiny").canonicalize()
        base = PimTriangleCounter(num_colors=4, seed=0).count(graph)
        deg = PimTriangleCounter(
            num_colors=4, seed=0, partitioner="degree"
        ).count(graph)
        assert deg.count == base.count
        base_skew = base.imbalance.skew("edges_routed")
        deg_skew = deg.imbalance.skew("edges_routed")
        assert deg_skew.max_over_mean < base_skew.max_over_mean
        assert deg_skew.p99_over_p50 <= base_skew.p99_over_p50

    def test_ledger_labels_strategy(self, hub_tiny):
        deg = PimTriangleCounter(
            num_colors=4, seed=0, partitioner="degree"
        ).count(hub_tiny)
        assert deg.imbalance.meta["partitioner"] == "degree"


class TestRebalancing:
    """Chunked degree-partitioned ingest on every engine.

    Triplet ``t`` stays on core ``t`` for the whole run; the process engine
    splices the DPUs each chunk returns into the set's own list.  Every
    engine must reproduce the serial run's count, clock and ledger.
    """

    @pytest.fixture(scope="class")
    def serial_run(self, hub_tiny):
        return PimTriangleCounter(
            num_colors=4, seed=0, batch_edges=400, partitioner="degree",
        ).count(hub_tiny)

    @pytest.mark.parametrize("engine", ["serial", "thread", "process"])
    def test_engine_invariant_under_rebalance(self, hub_tiny, serial_run, engine):
        result = PimTriangleCounter(
            num_colors=4, seed=0, batch_edges=400,
            partitioner="degree", executor=engine, jobs=2,
        ).count(hub_tiny)
        assert result.count == count_triangles(hub_tiny)
        assert result.meta["ingest_batches"] > 1
        assert result.clock.phases == serial_run.clock.phases
        np.testing.assert_array_equal(
            result.per_dpu_counts, serial_run.per_dpu_counts
        )
        np.testing.assert_array_equal(
            result.imbalance.insert_seconds, serial_run.imbalance.insert_seconds
        )


class TestEnvWiring:
    def test_invalid_strategy_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PimTriangleCounter(num_colors=4, partitioner="nope")
