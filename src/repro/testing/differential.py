"""Differential runner: one graph, every implementation, identical answers.

The repo counts triangles in many independent ways — the slow reference
tasklet kernel, the vectorized kernel, the probe kernel, the full PIM
pipeline under three host execution engines, two CPU baseline models, and
two test-only references.  On the exact path (no sampling) all of them must
return *bit-identical* integer counts, and the three execution engines must
additionally produce bit-identical simulated clocks, charge ledgers,
telemetry span trees and metric snapshots (the determinism contract of
:mod:`repro.pimsim.executor`; wall-clock span fields are excluded — they are
real measurements).

:class:`DifferentialRunner` executes the full
``kernel × executor × baseline`` grid on one graph and returns a
:class:`DifferentialReport` listing every computed count, every count
mismatch, and every executor-parity violation.  The fuzz driver
(:mod:`repro.testing.fuzz`) runs it on every generated case; targeted tests
use it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.cpu_coo import CpuCooCounter
from ..baselines.cpu_csr import CpuCsrCounter
from ..baselines.reference import count_triangles_dense, count_triangles_sets
from ..core.api import PimTriangleCounter
from ..core.host import PimTcOptions
from ..core.kernel_tc import count_triangles_reference
from ..core.kernel_tc_fast import fast_count
from ..core.kernel_tc_probe import probe_count
from ..core.kernel_tc_vec import vec_count
from ..core.result import TcResult
from ..graph.coo import COOGraph
from ..graph.triangles import count_triangles

__all__ = [
    "KERNEL_NAMES",
    "EXECUTOR_GRID",
    "BASELINE_NAMES",
    "PIPELINE_VARIANTS",
    "PARTITIONER_GRID",
    "DifferentialReport",
    "DifferentialRunner",
]

#: Kernel-level counters exercised on the raw edge arrays.
KERNEL_NAMES: tuple[str, ...] = ("reference", "fast", "fastvec", "probe")
#: Host execution engines the full pipeline is run under.
EXECUTOR_GRID: tuple[str, ...] = ("serial", "thread", "process")
#: Independent baseline implementations.
BASELINE_NAMES: tuple[str, ...] = ("reference_dense", "reference_sets", "cpu_coo", "cpu_csr")
#: Pipeline counting-kernel variants (PimTcOptions.kernel_variant).
PIPELINE_VARIANTS: tuple[str, ...] = ("merge", "fastvec", "probe")
#: Edge-partitioning strategies; any partition-coloring is exact under the
#: monochromatic correction, so every strategy must agree bit-for-bit.
PARTITIONER_GRID: tuple[str, ...] = ("hash", "degree", "auto")

#: Node-count ceiling for the dense trace(A^3) reference (it is O(n^2) memory).
_DENSE_LIMIT = 2000


@dataclass
class DifferentialReport:
    """Everything the grid computed on one graph, plus the disagreements."""

    graph_name: str
    truth: int
    counts: dict[str, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    parity_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.parity_failures

    @property
    def failures(self) -> list[str]:
        return self.mismatches + self.parity_failures

    def record(self, label: str, count: int) -> None:
        self.counts[label] = int(count)
        if int(count) != self.truth:
            self.mismatches.append(
                f"{label}: counted {int(count)}, oracle says {self.truth}"
            )

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"differential[{self.graph_name}]: {len(self.counts)} implementations, "
            f"truth={self.truth}, {status}"
        )


def _span_signature(result: TcResult) -> list[tuple[str, float]]:
    """Span-tree shape + simulated seconds (wall times excluded on purpose)."""
    if result.telemetry is None:
        return []
    return result.telemetry.span_signature()


def _charge_signature(result: TcResult) -> tuple:
    k = result.kernel
    assert k is not None
    return (k.instructions, k.dma_requests, k.dma_bytes, k.max_dpu_compute_seconds)


def _ledger_signature(result: TcResult) -> dict:
    """Full imbalance-ledger dump: per-DPU simulated columns, skews, stragglers."""
    if result.imbalance is None:
        return {}
    return result.imbalance.to_dict()


@dataclass
class DifferentialRunner:
    """Run the full implementation grid on one (canonical) graph.

    Parameters
    ----------
    num_colors:
        ``C`` for the pipeline runs; small values keep fuzz iterations cheap.
    seed:
        Root seed for every pipeline run (exact path, so it only affects the
        coloring hash).
    jobs:
        Worker count for the thread/process engines.  2 forces real pools on
        multi-DPU runs; the process engine degrades safely where the platform
        forbids worker processes.
    executors / variants / kernels / baselines / partitioners:
        Grid axes; defaults cover everything except the partitioners axis,
        which defaults to hash alone (the paper's strategy) to keep fuzz
        iterations cheap — targeted tests widen it to
        :data:`PARTITIONER_GRID`.
    """

    num_colors: int = 3
    seed: int = 0
    jobs: int = 2
    executors: tuple[str, ...] = EXECUTOR_GRID
    variants: tuple[str, ...] = PIPELINE_VARIANTS
    kernels: tuple[str, ...] = KERNEL_NAMES
    baselines: tuple[str, ...] = BASELINE_NAMES
    partitioners: tuple[str, ...] = ("hash",)

    # ------------------------------------------------------------------ pieces
    def kernel_counts(self, graph: COOGraph) -> dict[str, int]:
        """Raw kernel-level counts over the graph's edge arrays."""
        out: dict[str, int] = {}
        if "reference" in self.kernels:
            out["kernel:reference"] = count_triangles_reference(
                graph.src, graph.dst
            ).triangles
        if "fast" in self.kernels:
            out["kernel:fast"] = fast_count(
                graph.src, graph.dst, graph.num_nodes
            ).triangles
        if "fastvec" in self.kernels:
            out["kernel:fastvec"] = vec_count(
                graph.src, graph.dst, graph.num_nodes
            ).triangles
        if "probe" in self.kernels:
            out["kernel:probe"] = probe_count(
                graph.src, graph.dst, graph.num_nodes
            ).triangles
        return out

    def baseline_counts(self, graph: COOGraph) -> dict[str, int]:
        """Counts from the independent baseline implementations."""
        out: dict[str, int] = {}
        if "reference_dense" in self.baselines and graph.num_nodes <= _DENSE_LIMIT:
            out["baseline:reference_dense"] = count_triangles_dense(graph)
        if "reference_sets" in self.baselines:
            out["baseline:reference_sets"] = count_triangles_sets(graph)
        if "cpu_coo" in self.baselines:
            out["baseline:cpu_coo"] = CpuCooCounter().count(graph).count
        if "cpu_csr" in self.baselines:
            out["baseline:cpu_csr"] = CpuCsrCounter().count(graph).count
        return out

    def pipeline_results(
        self, graph: COOGraph, variant: str, partitioner: str = "hash"
    ) -> dict[str, TcResult]:
        """Full-pipeline runs of one kernel variant under every engine."""
        results: dict[str, TcResult] = {}
        for engine in self.executors:
            options = PimTcOptions(
                num_colors=self.num_colors,
                seed=self.seed,
                kernel_variant=variant,
                partitioner=partitioner,
            )
            counter = PimTriangleCounter(
                options=options, executor=engine, jobs=self.jobs
            )
            results[engine] = counter.count(graph)
        return results

    # --------------------------------------------------------------------- run
    def run(self, graph: COOGraph, expected: int | None = None) -> DifferentialReport:
        """Execute the whole grid; ``expected`` overrides the oracle as truth."""
        g = graph if graph.is_canonical() else graph.canonicalize()
        truth = int(expected) if expected is not None else count_triangles(g)
        report = DifferentialReport(graph_name=g.name, truth=truth)
        report.counts["oracle"] = count_triangles(g)
        if report.counts["oracle"] != truth:
            report.mismatches.append(
                f"oracle: counted {report.counts['oracle']}, construction says {truth}"
            )

        for label, count in self.kernel_counts(g).items():
            report.record(label, count)
        for label, count in self.baseline_counts(g).items():
            report.record(label, count)

        serial_by_cell: dict[tuple[str, str], TcResult] = {}
        for variant in self.variants:
            for part in self.partitioners:
                results = self.pipeline_results(g, variant, part)
                # Hash (the paper's strategy) keeps the historical label so
                # existing fuzz corpora and report diffs stay comparable.
                tag = variant if part == "hash" else f"{variant}×{part}"
                for engine, result in results.items():
                    report.record(f"pipeline:{tag}×{engine}", result.count)
                self._check_parity(tag, results, report)
                if "serial" in results:
                    serial_by_cell[(variant, part)] = results["serial"]
        # Cross-variant anchor: fastvec differs from merge only in count
        # arithmetic, so its serial run must match the serial fast anchor on
        # every simulated artifact, per partitioner.
        for part in self.partitioners:
            merge = serial_by_cell.get(("merge", part))
            fastvec = serial_by_cell.get(("fastvec", part))
            if merge is not None and fastvec is not None:
                self._check_fastvec_anchor(part, merge, fastvec, report)
        return report

    def _check_parity(
        self,
        variant: str,
        results: dict[str, TcResult],
        report: DifferentialReport,
    ) -> None:
        """Engines must agree bit-for-bit on counts, clocks, charges, spans, metrics."""
        if "serial" in results:
            anchor_name = "serial"
        else:
            anchor_name = next(iter(results))
        anchor = results[anchor_name]
        for engine, result in results.items():
            if engine == anchor_name:
                continue
            prefix = f"parity[{variant}] {engine} vs {anchor_name}"
            if not np.array_equal(result.per_dpu_counts, anchor.per_dpu_counts):
                report.parity_failures.append(f"{prefix}: per-DPU counts differ")
            for phase in ("setup", "sample_creation", "triangle_count"):
                a = anchor.clock.get(phase)
                b = result.clock.get(phase)
                if a != b:
                    report.parity_failures.append(
                        f"{prefix}: simulated {phase} differs ({b!r} != {a!r})"
                    )
            if _charge_signature(result) != _charge_signature(anchor):
                report.parity_failures.append(
                    f"{prefix}: charge ledger differs "
                    f"({_charge_signature(result)} != {_charge_signature(anchor)})"
                )
            if _span_signature(result) != _span_signature(anchor):
                report.parity_failures.append(
                    f"{prefix}: telemetry span tree differs"
                )
            a_snap = anchor.telemetry.metrics.snapshot() if anchor.telemetry else {}
            b_snap = result.telemetry.metrics.snapshot() if result.telemetry else {}
            if a_snap != b_snap:
                report.parity_failures.append(
                    f"{prefix}: metrics snapshot differs"
                )
            if _ledger_signature(result) != _ledger_signature(anchor):
                report.parity_failures.append(
                    f"{prefix}: imbalance ledger differs"
                )

    def _check_fastvec_anchor(
        self,
        partitioner: str,
        merge: TcResult,
        fastvec: TcResult,
        report: DifferentialReport,
    ) -> None:
        """``fastvec`` vs the serial ``fast`` (merge) anchor: only the count
        arithmetic differs between the variants, so *every* simulated artifact
        — clocks, charges, spans, metrics, the imbalance ledger —
        must be bit-identical, not just the counts.  This is the cross-variant
        leg of the determinism contract: wall-clock is the only thing the
        vectorized kernel is allowed to change.
        """
        prefix = f"parity[fastvec×{partitioner}] fastvec vs merge (serial)"
        if not np.array_equal(fastvec.per_dpu_counts, merge.per_dpu_counts):
            report.parity_failures.append(f"{prefix}: per-DPU counts differ")
        if dict(fastvec.clock.phases) != dict(merge.clock.phases):
            report.parity_failures.append(
                f"{prefix}: simulated phase totals differ "
                f"({dict(fastvec.clock.phases)!r} != {dict(merge.clock.phases)!r})"
            )
        if _charge_signature(fastvec) != _charge_signature(merge):
            report.parity_failures.append(f"{prefix}: charge ledger differs")
        if _span_signature(fastvec) != _span_signature(merge):
            report.parity_failures.append(f"{prefix}: telemetry span tree differs")
        a_snap = merge.telemetry.metrics.snapshot() if merge.telemetry else {}
        b_snap = fastvec.telemetry.metrics.snapshot() if fastvec.telemetry else {}
        if a_snap != b_snap:
            report.parity_failures.append(f"{prefix}: metrics snapshot differs")
        if _ledger_signature(fastvec) != _ledger_signature(merge):
            report.parity_failures.append(f"{prefix}: imbalance ledger differs")
