"""Result types returned by the PIM triangle-counting pipeline.

The paper reports every run as three phases (Sec. 4.1):

* **Setup** — PIM core allocation, kernel load, host buffer allocation;
* **Sample creation** — reading/coloring/batching edges on the host, the
  CPU->PIM transfers, and the DPU-side sample insertion (with reservoir
  replacement when space runs out);
* **Triangle count** — DPU-side sort + region indexing + merge counting,
  result gathering, and the host-side correction.

:class:`TcResult` carries the final estimate, that phase breakdown as
simulated seconds, and enough per-DPU detail for the experiments to compute
load-balance and error statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pimsim.kernel import SimClock
from ..telemetry.spans import Telemetry

__all__ = ["TcResult", "LocalTcResult", "KernelAggregate"]


@dataclass(frozen=True)
class KernelAggregate:
    """Aggregate DPU-side work of one run (summed over all PIM cores)."""

    instructions: int
    dma_requests: int
    dma_bytes: int
    max_dpu_compute_seconds: float


@dataclass
class TcResult:
    """Outcome of one triangle-counting run on the simulated PIM system."""

    estimate: float
    num_colors: int
    num_dpus: int
    clock: SimClock
    per_dpu_counts: np.ndarray
    reservoir_scales: np.ndarray
    edges_routed: np.ndarray
    edges_input: int
    uniform_p: float = 1.0
    kernel: KernelAggregate | None = None
    host_wall_seconds: float = 0.0
    meta: dict = field(default_factory=dict)
    #: Telemetry recorder of the run (span tree + metrics), if kept.
    telemetry: Telemetry | None = None
    #: Per-DPU work ledger for straggler analysis, if harvested
    #: (:class:`~repro.observability.imbalance.ImbalanceLedger`).
    imbalance: "object | None" = None

    # ------------------------------------------------------------- convenience
    @property
    def count(self) -> int:
        """Estimate rounded to the nearest integer triangle count."""
        return int(round(self.estimate))

    @property
    def is_exact(self) -> bool:
        """True when no sampling happened anywhere (the exact-count path)."""
        return self.uniform_p >= 1.0 and bool(np.all(self.reservoir_scales >= 1.0))

    @property
    def setup_seconds(self) -> float:
        return self.clock.get("setup")

    @property
    def sample_creation_seconds(self) -> float:
        return self.clock.get("sample_creation")

    @property
    def triangle_count_seconds(self) -> float:
        return self.clock.get("triangle_count")

    @property
    def total_seconds(self) -> float:
        return self.clock.total()

    @property
    def seconds_without_setup(self) -> float:
        """The paper's post-Sec.-4.2 metric (setup excluded from comparisons)."""
        return self.total_seconds - self.setup_seconds

    def throughput_edges_per_ms(self) -> float:
        """Fig. 3 metric: input edges per millisecond of (sample + count) time."""
        active = self.seconds_without_setup
        if active <= 0:
            return float("inf")
        return self.edges_input / (active * 1e3)

    def load_balance(self) -> float:
        """Max/mean ratio of edges routed per PIM core (1.0 = perfectly even).

        Sec. 3.1's argument: for large ``C`` most cores carry the 6N class,
        so the ratio approaches 1; small ``C`` leaves the N/3N/6N split
        visible.  Only cores of the heaviest class bound the critical path.
        """
        routed = np.asarray(self.edges_routed, dtype=np.float64)
        if routed.size == 0 or routed.sum() == 0:
            return 1.0
        return float(routed.max() / routed.mean())

    def summary(self) -> str:
        """One-line human-readable report."""
        kind = "exact" if self.is_exact else "approx"
        return (
            f"T~{self.estimate:.1f} ({kind}) C={self.num_colors} dpus={self.num_dpus} "
            f"setup={self.setup_seconds * 1e3:.2f}ms "
            f"sample={self.sample_creation_seconds * 1e3:.2f}ms "
            f"count={self.triangle_count_seconds * 1e3:.2f}ms"
        )

    def to_dict(self) -> dict:
        """JSON-serializable summary (for experiment persistence/regression)."""
        return {
            "estimate": float(self.estimate),
            "count": self.count,
            "is_exact": self.is_exact,
            "num_colors": self.num_colors,
            "num_dpus": self.num_dpus,
            "uniform_p": float(self.uniform_p),
            "edges_input": int(self.edges_input),
            "edges_routed_total": int(np.asarray(self.edges_routed).sum()),
            "load_balance": self.load_balance(),
            "phases": {k: float(v) for k, v in self.clock.phases.items()},
            "throughput_edges_per_ms": self.throughput_edges_per_ms(),
            "kernel": (
                {
                    "instructions": self.kernel.instructions,
                    "dma_requests": self.kernel.dma_requests,
                    "dma_bytes": self.kernel.dma_bytes,
                    "max_dpu_compute_seconds": self.kernel.max_dpu_compute_seconds,
                }
                if self.kernel
                else None
            ),
            "imbalance": (
                {
                    "skew": {
                        m: self.imbalance.skew(m).to_dict()
                        for m in ("edges_routed", "merge_steps", "count_seconds")
                    },
                    "stragglers": self.imbalance.stragglers(k=3),
                }
                if self.imbalance is not None
                else None
            ),
            "meta": {k: v for k, v in self.meta.items() if not k.startswith("_")},
        }


@dataclass
class LocalTcResult(TcResult):
    """Per-node (local) counting outcome.

    ``estimate`` holds the implied global count (``local_estimates.sum()/3``);
    ``local_estimates`` holds the per-node vector after all corrections.
    """

    local_estimates: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def local_counts(self) -> np.ndarray:
        """Per-node estimates rounded to integers (exact path: exact counts)."""
        return np.rint(self.local_estimates).astype(np.int64)

    def top_nodes(self, k: int = 10) -> list[tuple[int, float]]:
        """The ``k`` nodes in the most triangles, as (node, estimate) pairs."""
        order = np.argsort(-self.local_estimates, kind="stable")[:k]
        return [(int(i), float(self.local_estimates[i])) for i in order]
