"""Searchsorted triangle-counting kernel: same charges, faster wall-clock.

This is the ``fastvec`` kernel variant.  It reuses the whole
:func:`~repro.core.kernel_tc_fast.fast_count` cost pipeline — orient, sort,
region index, the analytic per-edge instruction/DMA charges — and swaps only
the *count arithmetic* via the ``counter`` hook: instead of assembling a
scipy CSR matrix and multiplying ``(A @ A) .* A``, it intersects adjacency
slices directly with :func:`numpy.searchsorted` over the sorted oriented
edge arrays:

1. encode every oriented edge as a single int64 key ``u * stride + v``
   (sorted, because ``(u, v)`` is lexsorted);
2. for each edge ``(u, v)``, expand ``v``'s region — the contiguous
   adjacency slice ``adj(v)`` located through the region index — into one
   flat candidate array (:func:`~repro.core.region_index.expand_slices`);
3. count how many wedges ``u -> v -> w`` close: the multiplicity of edge
   ``(u, w)`` is ``searchsorted(keys, key, "right") - searchsorted(keys,
   key, "left")``, which matches the sparse product's duplicate-edge
   semantics exactly (``sum_{u,v,w} A[u,v] * A[v,w] * A[u,w]``).

Orientation makes the forward adjacency strictly upper-triangular, so
``w > v > u`` holds for every candidate with no explicit filtering.  The
expansion is chunked by candidate count to bound memory on hub-heavy graphs.

Because the hook only returns an integer and every charge is computed by the
shared ``fast_count`` code path, simulated clocks, per-phase totals,
``kernel_stats`` and the imbalance ledger are bit-identical to the ``merge``
variant *by construction* — the differential grid
(:mod:`repro.testing.differential`) pins this.  The kernel keeps
``name="triangle_count"`` on purpose: the ``load_kernel`` and ``launch`` spans
carry the kernel name as an attribute, and those must not move either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel_tc_fast import (
    FastCountResult,
    KernelCosts,
    TriangleCountKernel,
    _count_forward_sparse,
    fast_count,
)
from .region_index import RegionIndex, build_region_index, expand_slices

__all__ = [
    "count_forward_searchsorted",
    "vec_count",
    "VecTriangleCountKernel",
]

#: Upper bound on expanded wedge candidates held in memory at once.
DEFAULT_CHUNK_CANDIDATES = 1 << 22


def count_forward_searchsorted(
    u: np.ndarray,
    v: np.ndarray,
    num_nodes: int,
    index: RegionIndex | None = None,
    chunk_candidates: int = DEFAULT_CHUNK_CANDIDATES,
) -> int:
    """Triangles of an oriented, lexsorted edge list via key binary search.

    Exact drop-in for ``_count_forward_sparse`` including duplicate-edge
    multiplicities: each wedge ``u -> v -> w`` contributes the multiplicity
    of ``(u, w)`` in the edge list.
    """
    m = int(u.size)
    if m == 0:
        return 0
    if index is None:
        index = build_region_index(u)
    u64 = u.astype(np.int64, copy=False)
    v64 = v.astype(np.int64, copy=False)
    # One int64 key per edge.  ids < stride, so keys are collision-free and
    # inherit the lexsort order.  Node IDs are int32 in practice; fall back
    # to the sparse counter in the (untestable here) stride-overflow regime.
    stride = max(int(num_nodes), int(v64.max()) + 1)
    if stride > np.iinfo(np.int64).max // max(stride, 1):
        return _count_forward_sparse(u, v, num_nodes)
    keys = u64 * stride + v64

    # Per edge (u, v), the triangle contribution is the multiplicity-weighted
    # intersection sum_w mult_u(w) * mult_v(w) over w > v.  Both of these
    # produce it: expand adj(v) and look up (u, w), or expand the *suffix* of
    # u's region after the edge (its w's are exactly the > v entries) and
    # look up (v, w).  Expanding the smaller side bounds the wedge work by
    # sum min(suffix_u, d_v) — the same min-side trick the real kernel's
    # merge uses, and what keeps hub-heavy rows cheap.
    su_starts = np.arange(1, m + 1, dtype=np.int64)
    _, u_ends = index.lookup_many(u64)  # u is always present
    v_starts, v_ends = index.lookup_many(v64)
    expand_u = (u_ends - su_starts) < (v_ends - v_starts)
    exp_starts = np.where(expand_u, su_starts, v_starts)
    exp_ends = np.where(expand_u, u_ends, v_ends)
    base = np.where(expand_u, v64, u64) * stride

    # Canonicalized pipelines never route duplicate edges, so keys are
    # usually strictly increasing: one search plus an equality test counts
    # membership.  Duplicate-bearing streams (raw/adversarial input) take the
    # two-sided search, whose left/right difference is the multiplicity.
    has_dup_keys = bool(np.any(keys[1:] == keys[:-1])) if m > 1 else False

    # Chunk edges so each expansion holds at most chunk_candidates wedges.
    cum = np.concatenate(([0], np.cumsum(exp_ends - exp_starts)))
    total = 0
    lo = 0
    while lo < m:
        hi = int(np.searchsorted(cum, cum[lo] + chunk_candidates, side="right")) - 1
        hi = min(max(hi, lo + 1), m)
        positions, owner = expand_slices(exp_starts[lo:hi], exp_ends[lo:hi])
        if positions.size:
            qkeys = base[owner + lo] + v64[positions]
            if has_dup_keys:
                left = np.searchsorted(keys, qkeys, side="left")
                right = np.searchsorted(keys, qkeys, side="right")
                total += int((right - left).sum())
            else:
                idx = np.searchsorted(keys, qkeys)
                np.minimum(idx, m - 1, out=idx)
                total += int(np.count_nonzero(keys[idx] == qkeys))
        lo = hi
    return total


def vec_count(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    costs: KernelCosts | None = None,
    num_tasklets: int = 16,
) -> FastCountResult:
    """``fast_count`` with the searchsorted counter: identical costs, only
    the count arithmetic differs (and must agree bit-for-bit)."""
    return fast_count(
        src,
        dst,
        num_nodes,
        costs=costs,
        num_tasklets=num_tasklets,
        counter=count_forward_searchsorted,
    )


@dataclass
class VecTriangleCountKernel(TriangleCountKernel):
    """``fastvec`` pipeline kernel: TriangleCountKernel with the searchsorted
    counter.  Inherits MRAM layout, WRAM plan, remap handling and every
    charge; ``name`` stays ``"triangle_count"`` so traces are bit-identical.
    """

    def _counter(self):
        return count_forward_searchsorted
