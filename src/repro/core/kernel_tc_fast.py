"""Vectorized DPU triangle-counting kernel with instruction/DMA accounting.

This is the production counterpart of :mod:`~repro.core.kernel_tc`.  It
executes the same algorithm — orient, sort, region-index, then per-edge
binary search + merge intersection (paper Sec. 3.4) — but computes the count
with sparse-matrix algebra (``(A @ A) .* A`` over the forward adjacency,
chunked to bound memory) and derives the *cost* a real DPU kernel would incur
analytically from exact per-edge quantities:

* binary search: ``ceil(log2(R + 1))`` steps per edge into the region table;
* merge: the suffix of ``u``'s region after the current edge plus the full
  region of ``v`` — the upper bound on merge advances, and the quantity whose
  blow-up on high-degree nodes produces the paper's Fig. 3 effect;
* MRAM traffic: streaming the edge buffer per tasklet block plus one buffered
  DMA read of ``v``'s region per processed edge.

Edges are dealt to tasklets in WRAM-buffer-sized blocks, round-robin, exactly
like the "retrieve a buffer of edges until none remain" loop; the resulting
per-tasklet cost vectors feed the DPU's water-filling pipeline model.

The test suite pins this kernel's count to the reference kernel's and to the
oracle, and checks the charged merge cost dominates the reference's measured
merge steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import Callable

from ..common.errors import KernelLaunchError
from ..pimsim.dpu import Dpu
from ..pimsim.wram import WramPlan
from .orient import orient_and_sort
from .region_index import RegionIndex, build_region_index
from .remap import RemapTable, apply_remap

__all__ = ["CounterFn", "KernelCosts", "FastCountResult", "fast_count", "TriangleCountKernel"]

#: Count hook: ``(u, v, num_nodes, index) -> triangles`` over the oriented,
#: sorted sample.  Must match ``_count_forward_sparse`` exactly, duplicates
#: and all — charges are shared, only the count arithmetic is pluggable.
CounterFn = Callable[[np.ndarray, np.ndarray, int, RegionIndex], int]


@dataclass(frozen=True)
class KernelCosts:
    """Instructions the real C kernel spends per unit of algorithmic work.

    Values are rough DPU ISA estimates (32-bit RISC, no SIMD): a merge step is
    a compare + branch + pointer bump + bounds check; a binary-search step adds
    an address computation and a WRAM load; etc.  Experiments only rely on
    their ratios staying within a plausible band.
    """

    orient_instr: float = 4.0
    sort_instr_per_step: float = 6.0
    region_instr_per_edge: float = 3.0
    remap_instr_per_edge: float = 12.0
    edge_loop_instr: float = 8.0
    binsearch_instr_per_step: float = 8.0
    merge_instr_per_step: float = 5.0
    triangle_instr: float = 2.0
    insert_instr_per_edge: float = 6.0
    #: Bytes per edge in MRAM: two 32-bit node IDs, as in the real kernel.
    edge_bytes: int = 8

    #: Per-tasklet WRAM buffers (bytes): staged edges, v-region, u-suffix.
    edge_buffer_bytes: int = 1024
    region_buffer_bytes: int = 1024
    stack_bytes: int = 1024

    @property
    def edge_buffer_edges(self) -> int:
        return max(1, self.edge_buffer_bytes // self.edge_bytes)


@dataclass(frozen=True)
class FastCountResult:
    """Count plus the cost vectors of one DPU sample."""

    triangles: int
    edges: int
    regions: int
    merge_steps_charged: int
    binary_searches: int
    per_tasklet_instr: np.ndarray
    per_tasklet_dma_bytes: np.ndarray
    per_tasklet_dma_requests: np.ndarray
    sort_mram_bytes: int


def _count_forward_sparse(
    u: np.ndarray, v: np.ndarray, num_nodes: int, chunk_nnz: int = 1 << 24
) -> int:
    """Triangles of an oriented edge list via chunked ``(A @ A) .* A``.

    ``A`` is the (upper-triangular) forward adjacency.  ``(A @ A)[u, w]``
    counts 2-paths ``u -> v -> w``; masking by ``A`` keeps closed ones.  Row
    chunks bound the intermediate's nnz by ``chunk_nnz``.

    ``(u, v)`` must be lexicographically sorted (the kernel's post-sort
    state), which lets the CSR structure be assembled directly — ``indptr``
    from a bincount, ``indices`` = ``v`` — with no conversion sort.
    """
    m = int(u.size)
    if m == 0:
        return 0
    import scipy.sparse as sp  # loaded on the first product, not at import

    n = int(num_nodes)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    adj = sp.csr_matrix(
        (np.ones(m, dtype=np.int64), v.astype(np.int64, copy=False), indptr),
        shape=(n, n),
    )
    # Wedge work per row: sum over the row's neighbors of their out-degree.
    out_deg = np.diff(indptr)
    cs = np.concatenate(([0], np.cumsum(out_deg[adj.indices])))
    row_wedges = cs[indptr[1:]] - cs[indptr[:-1]]
    total_wedges = int(row_wedges.sum())
    if total_wedges <= chunk_nnz:
        paths = adj @ adj
        return int(paths.multiply(adj).sum())
    total = 0
    row = 0
    cum = np.concatenate(([0], np.cumsum(row_wedges)))
    while row < n:
        stop = int(np.searchsorted(cum, cum[row] + chunk_nnz, side="right"))
        stop = min(max(stop - 1, row + 1), n)
        block = adj[row:stop, :]
        paths = block @ adj
        total += int(paths.multiply(block).sum())
        row = stop
    return total


def fast_count(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    costs: KernelCosts | None = None,
    num_tasklets: int = 16,
    counter: "CounterFn | None" = None,
) -> FastCountResult:
    """Count triangles over one sample and compute its per-tasklet cost split.

    ``counter`` swaps the host-side arithmetic that produces the *count* while
    every *charge* below keeps flowing through the same analytic formulas —
    this is what lets alternative count implementations (e.g. the
    searchsorted kernel in :mod:`~repro.core.kernel_tc_vec`) stay bit-identical
    on simulated clocks, charges and ``kernel_stats`` by construction: the
    cost model never sees which arithmetic ran.  The callable receives the
    oriented, lexicographically sorted ``(u, v)`` arrays, ``num_nodes`` and the
    prebuilt :class:`~repro.core.region_index.RegionIndex`, and must return
    the exact triangle count (duplicate-edge multiplicities included).
    """
    costs = costs or KernelCosts()
    u, v, ostats = orient_and_sort(src, dst, wram_run_edges=costs.edge_buffer_edges)
    index = build_region_index(u)
    m = int(u.size)
    t = int(num_tasklets)
    if m == 0:
        zeros = np.zeros(t, dtype=np.float64)
        return FastCountResult(0, 0, 0, 0, 0, zeros, zeros.copy(), zeros.copy(), 0)

    if counter is None:
        triangles = _count_forward_sparse(u, v, num_nodes)
    else:
        triangles = counter(u, v, num_nodes, index)

    # --- per-edge cost quantities -------------------------------------------
    bs_steps = index.search_steps()
    edge_ids = np.arange(m, dtype=np.int64)
    region_lengths = index.ends - index.starts
    # Forward degree of each edge's second node, from a dense per-node table.
    fwd_degree = np.zeros(num_nodes, dtype=np.int64)
    fwd_degree[index.nodes] = region_lengths
    d_v = fwd_degree[v]
    # Suffix of u's own region after the edge itself: the sample is sorted,
    # so every edge of a region shares that region's end.
    suffix_u = np.repeat(index.ends, region_lengths) - edge_ids - 1
    merge_steps = np.where(d_v > 0, suffix_u + d_v, 0)
    per_edge_instr = (
        costs.edge_loop_instr
        + costs.binsearch_instr_per_step * bs_steps
        + costs.merge_instr_per_step * merge_steps
    )

    # --- tasklet assignment: buffer blocks round-robin -----------------------
    buf = costs.edge_buffer_edges
    tasklet_of_block = np.arange((m + buf - 1) // buf, dtype=np.int64) % t
    tasklet_of_edge = np.repeat(tasklet_of_block, buf)[:m]
    instr = np.bincount(tasklet_of_edge, weights=per_edge_instr, minlength=t)
    # Balanced charges: orient + sort + region build + triangle bookkeeping.
    balanced = (
        costs.orient_instr * m
        + costs.sort_instr_per_step * ostats.sort_steps
        + costs.region_instr_per_edge * m
        + costs.triangle_instr * triangles
    )
    instr += balanced / t

    # --- DMA traffic ----------------------------------------------------------
    eb = costs.edge_bytes
    # Edge-buffer streaming: one request per block.
    edge_bytes_per_tasklet = np.bincount(tasklet_of_edge, minlength=t) * float(eb)
    blocks_per_tasklet = np.bincount(tasklet_of_block, minlength=t).astype(np.float64)
    # v-region reads, buffered through the region WRAM buffer.
    v_bytes = d_v.astype(np.float64) * eb
    v_requests = np.where(d_v > 0, np.ceil(v_bytes / costs.region_buffer_bytes), 0.0)
    dma_bytes = edge_bytes_per_tasklet + np.bincount(
        tasklet_of_edge, weights=v_bytes, minlength=t
    )
    dma_requests = blocks_per_tasklet + np.bincount(
        tasklet_of_edge, weights=v_requests, minlength=t
    )
    # Sort passes stream the whole sample through MRAM (read + write).
    sort_mram = 2 * m * eb * ostats.mram_passes
    dma_bytes += sort_mram / t
    dma_requests += np.ceil(sort_mram / t / costs.edge_buffer_bytes)

    return FastCountResult(
        triangles=int(triangles),
        edges=m,
        regions=index.num_regions,
        merge_steps_charged=int(merge_steps.sum()),
        binary_searches=m,
        per_tasklet_instr=instr,
        per_tasklet_dma_bytes=dma_bytes,
        per_tasklet_dma_requests=dma_requests,
        sort_mram_bytes=int(sort_mram),
    )


@dataclass
class TriangleCountKernel:
    """The SPMD kernel loaded on every PIM core for the counting phase.

    Expects MRAM symbols prepared by the host pipeline:

    * ``sample_src`` / ``sample_dst`` — the (possibly reservoir-sampled) edges;
    * optionally ``remap_table`` — the Misra-Gries top-``t`` node IDs
      (broadcast; most frequent first).

    Produces ``triangle_count`` (1-element int64) and ``kernel_stats``
    (edges, regions, merge steps charged).

    The kernel is a stateless picklable dataclass and ``run`` depends only on
    the target DPU's MRAM contents — the contract the process execution
    engine relies on to ship (kernel, DPU) pairs to workers and merge the
    mutated DPUs back bit-identically (see ``repro.pimsim.executor``).
    """

    num_nodes: int
    costs: KernelCosts = field(default_factory=KernelCosts)
    name: str = "triangle_count"

    def _counter(self) -> CounterFn | None:
        """Count hook handed to :func:`fast_count`; ``None`` = sparse matmul.

        Subclasses (``VecTriangleCountKernel``) override this to swap the
        count arithmetic without touching charges or MRAM layout — they
        deliberately keep ``name`` as ``"triangle_count"`` so span attributes
        stay bit-identical too.
        """
        return None

    def wram_plan(self, dpu: Dpu) -> WramPlan:
        c = self.costs
        return WramPlan(
            per_tasklet_buffers={
                "edge_buffer": c.edge_buffer_bytes,
                "region_buffer": c.region_buffer_bytes,
                "stack": c.stack_bytes,
            },
            shared_bytes=2048,
        )

    def run(self, dpu: Dpu) -> None:
        if not dpu.mram.has("sample_src"):
            raise KernelLaunchError("sample_src missing: host must scatter the sample first")
        src = dpu.mram.load("sample_src", count_read=False)
        dst = dpu.mram.load("sample_dst", count_read=False)
        num_nodes = self.num_nodes
        if dpu.mram.has("remap_table"):
            table = RemapTable(
                nodes=dpu.mram.load("remap_table", count_read=False), num_nodes=num_nodes
            )
            src, dst = apply_remap(table, src, dst)
            num_nodes = table.remapped_num_nodes
            # One pass over the sample: read, look up both endpoints, write back.
            dpu.charge_balanced(self.costs.remap_instr_per_edge * src.size)
            tasklets = dpu.config.num_tasklets
            per = np.full(
                tasklets, int(src.size * self.costs.edge_bytes / tasklets), dtype=np.int64
            )
            ones = np.ones(tasklets, dtype=np.int64)
            dpu.charge_mram_read_all(per, ones)
            dpu.charge_mram_write_all(per, ones)

        result = fast_count(
            src,
            dst,
            num_nodes,
            costs=self.costs,
            num_tasklets=dpu.config.num_tasklets,
            counter=self._counter(),
        )
        dpu.charge_instructions_all(result.per_tasklet_instr)
        dpu.charge_mram_read_all(
            result.per_tasklet_dma_bytes.astype(np.int64),
            result.per_tasklet_dma_requests.astype(np.int64),
        )
        dpu.mram.store(
            "triangle_count", np.array([result.triangles], dtype=np.int64), count_write=False
        )
        dpu.mram.store(
            "kernel_stats",
            np.array(
                [result.edges, result.regions, result.merge_steps_charged], dtype=np.int64
            ),
            count_write=False,
        )
