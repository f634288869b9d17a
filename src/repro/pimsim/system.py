"""The PIM system: allocation, data movement, and kernel launches.

:class:`PimSystem` models the host-visible API of the UPMEM SDK that the
paper's host code uses — ``dpu_alloc``, ``dpu_load``, push/pull transfers and
``dpu_launch`` — with every operation charging simulated time to a
:class:`~repro.pimsim.kernel.SimClock`.  Launches execute each DPU's kernel
functionally through a pluggable :class:`~repro.pimsim.executor.Executor`
(serial / thread / process, selected by ``PimSystemConfig.executor``) but
always advance the clock by the *maximum* per-DPU compute time, because real
DPUs run in parallel and the host waits on the slowest one — so the engine
choice changes host wall-clock only, never simulated time.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import KernelLaunchError, PimAllocationError, TransferError
from ..telemetry.spans import SpanRecord, Telemetry
from .config import PimSystemConfig
from .dpu import Dpu
from .executor import Executor, SerialExecutor, make_executor
from .kernel import Kernel, SimClock
from .transfer import TransferModel

__all__ = ["PimSystem", "DpuSet"]


@dataclass
class PimSystem:
    """Top-level handle on the simulated machine."""

    config: PimSystemConfig = field(default_factory=PimSystemConfig)

    def allocate(
        self,
        num_dpus: int,
        clock: SimClock | None = None,
        telemetry: Telemetry | None = None,
    ) -> "DpuSet":
        """Allocate ``num_dpus`` PIM cores (the ``dpu_alloc`` analogue).

        Charges the setup phase with a base latency plus a per-rank term —
        allocating more DPUs takes longer, the overhead the paper points to
        for the LiveJournal inversion in Fig. 4.  A ``telemetry`` recorder,
        when given, receives one span per host-visible DPU operation.
        """
        if num_dpus < 1:
            raise PimAllocationError("must allocate at least one DPU")
        if num_dpus > self.config.total_dpus:
            raise PimAllocationError(
                f"requested {num_dpus} DPUs but the system has {self.config.total_dpus}"
            )
        clock = clock if clock is not None else SimClock()
        transfer = TransferModel(self.config)
        span_ctx = (
            telemetry.span("alloc", clock=clock)
            if telemetry is not None and telemetry.enabled
            else nullcontext()
        )
        with span_ctx as span:
            ranks = transfer.ranks_used(num_dpus)
            alloc_seconds = (
                self.config.cost.alloc_base_latency
                + ranks * self.config.cost.rank_alloc_latency
            )
            clock.advance("setup", alloc_seconds)
            dpus = [
                Dpu(dpu_id=i, config=self.config.dpu, cost=self.config.cost)
                for i in range(num_dpus)
            ]
            if span is not None:
                span.attrs["dpus"] = num_dpus
                span.attrs["ranks"] = ranks
        executor = make_executor(self.config.executor, self.config.jobs)
        return DpuSet(
            system=self,
            dpus=dpus,
            clock=clock,
            transfer=transfer,
            executor=executor,
            telemetry=telemetry,
        )


@dataclass
class DpuSet:
    """A set of allocated DPUs sharing one kernel and one time ledger."""

    system: PimSystem
    dpus: list[Dpu]
    clock: SimClock
    transfer: TransferModel
    kernel: Kernel | None = None
    executor: Executor = field(default_factory=SerialExecutor)
    telemetry: Telemetry | None = None
    #: Per-DPU host<->core bytes moved (work ledger for imbalance analysis);
    #: observation only — never read by the transfer cost model.
    dpu_xfer_bytes: np.ndarray | None = None
    _freed: bool = False

    def __len__(self) -> int:
        return len(self.dpus)

    def _check_alive(self) -> None:
        if self._freed:
            raise KernelLaunchError("DPU set has been freed")

    # -------------------------------------------------------------- telemetry
    def _span(self, name: str):
        """Open a telemetry span for one DPU operation (no-op when untracked)."""
        if self.telemetry is None or not self.telemetry.enabled:
            return nullcontext()
        return self.telemetry.span(name, clock=self.clock)

    def note_transfer(
        self, kind: str, payload_bytes: int, per_dpu_bytes: np.ndarray | int
    ) -> None:
        """Book one host<->PIM transfer of ``payload_bytes``.

        Adds ``per_dpu_bytes`` (a per-DPU array, or a scalar every core
        receives) to the per-DPU work ledger and, when telemetry is on, to
        the ``transfer.<kind>.bytes`` / ``.ops`` counters.  Every transfer
        goes through here: :meth:`broadcast`, :meth:`scatter`,
        :meth:`gather` and the host pipeline's cost-only ingest scatter and
        remap broadcast.
        """
        if self.dpu_xfer_bytes is None:
            self.dpu_xfer_bytes = np.zeros(len(self.dpus), dtype=np.int64)
        self.dpu_xfer_bytes += np.asarray(per_dpu_bytes, dtype=np.int64)
        if self.telemetry is None or not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        metrics.counter(
            f"transfer.{kind}.bytes", help=f"host<->PIM bytes moved by {kind}"
        ).inc(payload_bytes)
        metrics.counter(
            f"transfer.{kind}.ops", help=f"number of {kind} operations"
        ).inc()

    # ----------------------------------------------------------------- kernel
    def load_kernel(self, kernel: Kernel, phase: str = "setup") -> None:
        """Load a kernel into every DPU (the ``dpu_load`` analogue).

        Validates the kernel's WRAM plan against every DPU and charges a
        per-rank load latency.
        """
        self._check_alive()
        with self._span("load_kernel") as span:
            for dpu in self.dpus:
                dpu.wram.apply_plan(kernel.wram_plan(dpu))
            ranks = self.transfer.ranks_used(len(self.dpus))
            load_seconds = ranks * self.system.config.cost.kernel_load_latency
            self.clock.advance(phase, load_seconds)
            self.kernel = kernel
            if span is not None:
                span.attrs["kernel"] = kernel.name

    def launch(self, phase: str = "triangle_count") -> None:
        """Run the loaded kernel on every DPU; advance clock by the slowest DPU.

        The per-DPU executions go through the configured execution engine;
        regardless of engine, simulated time is the launch latency plus the
        *maximum* per-DPU compute time (real DPUs run in parallel).
        """
        self._check_alive()
        if self.kernel is None:
            raise KernelLaunchError("no kernel loaded")
        tel = self.telemetry
        with self._span("launch") as span:
            if tel is not None and tel.enabled and tel.detail:
                # Timed path: workers measure their own wall clock; the pairs
                # ride the engine's merge-back and become per-DPU child spans.
                timed = self.executor.launch_timed(self.kernel, self.dpus)
                times = [sim for sim, _ in timed]
                tel.attach_records(
                    [
                        SpanRecord(
                            name=f"dpu{dpu.dpu_id}",
                            wall_seconds=wall,
                            sim_seconds=sim,
                        )
                        for dpu, (sim, wall) in zip(self.dpus, timed)
                    ]
                )
                tel.metrics.counter(
                    "executor.worker_wall_seconds",
                    help="summed per-DPU worker wall time (all launches)",
                    volatile=True,
                ).inc(sum(wall for _, wall in timed))
            else:
                times = self.executor.launch(self.kernel, self.dpus)
            launch_seconds = self.system.config.cost.launch_latency + (
                max(times) if times else 0.0
            )
            self.clock.advance(phase, launch_seconds)
            if span is not None:
                span.attrs["kernel"] = self.kernel.name
                span.attrs["dpus"] = len(self.dpus)
            if tel is not None and tel.enabled:
                tel.metrics.counter(
                    "executor.launches", help="kernel launches issued"
                ).inc()
                tel.metrics.counter(
                    "executor.dpu_tasks", help="per-DPU kernel executions"
                ).inc(len(self.dpus))

    # -------------------------------------------------------------- transfers
    def broadcast(self, symbol: str, array: np.ndarray, phase: str = "sample_creation") -> None:
        """Copy the same buffer into every DPU's MRAM."""
        self._check_alive()
        with self._span("broadcast"):
            stats = self.transfer.broadcast(int(array.nbytes), len(self.dpus))
            self.clock.advance(phase, stats.seconds)
            self.note_transfer("broadcast", stats.payload_bytes, int(array.nbytes))
            for dpu in self.dpus:
                dpu.mram.store(symbol, array, count_write=False)

    def scatter(
        self, symbol: str, arrays: list[np.ndarray], phase: str = "sample_creation"
    ) -> None:
        """Copy a distinct buffer into each DPU's MRAM (parallel transfer)."""
        self._check_alive()
        if len(arrays) != len(self.dpus):
            raise TransferError(
                f"scatter needs {len(self.dpus)} buffers, got {len(arrays)}"
            )
        with self._span("scatter"):
            sizes = np.array([a.nbytes for a in arrays], dtype=np.int64)
            stats = self.transfer.scatter(sizes)
            self.clock.advance(phase, stats.seconds)
            self.note_transfer("scatter", stats.payload_bytes, sizes)
            for dpu, arr in zip(self.dpus, arrays):
                dpu.mram.store(symbol, arr, count_write=False)

    def gather(self, symbol: str, phase: str = "triangle_count") -> list[np.ndarray]:
        """Pull one named buffer back from every DPU."""
        self._check_alive()
        with self._span("gather") as span:
            arrays = self.executor.gather(self.dpus, symbol)
            sizes = np.array([a.nbytes for a in arrays], dtype=np.int64)
            stats = self.transfer.gather(sizes)
            self.clock.advance(phase, stats.seconds)
            self.note_transfer("gather", stats.payload_bytes, sizes)
            if span is not None:
                span.attrs["symbol"] = symbol
                span.attrs["bytes"] = stats.payload_bytes
        return arrays

    # ------------------------------------------------------------------ free
    def free(self) -> None:
        """Release the DPUs (the paper folds this into the counting phase)."""
        self._check_alive()
        for dpu in self.dpus:
            dpu.mram.free_all()
        self.executor.close()
        self._freed = True
