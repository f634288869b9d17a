"""Edge orientation and lexicographic sorting — the DPU kernel's first steps.

Paper Sec. 3.4: before counting, each PIM core orders its sample so that every
edge satisfies ``u < v`` and the edge list is sorted under

    ``(u, v) < (w, z)  <=>  u < w  or  (u == w and v < z)``

After this step the sample is exactly the "forward adjacency in COO clothing"
of Fig. 2: contiguous regions of equal first node, second nodes ascending.

The functions here perform the transformation with NumPy and return the
operation counts a C kernel doing the same work would incur, which the
:class:`~repro.core.kernel_tc_fast.TriangleCountKernel` charges to the DPU.
On the host the sort packs each edge into one ``int64`` key
``u * stride + v`` (``stride`` past the largest ID), whose plain sort is the
order above; the cost charged is the DPU's merge sort, whatever the host
sorts with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import GraphFormatError
from ..graph.coo import MAX_KEY_NODES

__all__ = ["OrientStats", "orient_and_sort"]


@dataclass(frozen=True)
class OrientStats:
    """Work performed by the orient + sort preparation pass."""

    edges: int
    #: Comparison-ish steps of the in-MRAM merge sort: ``m * ceil(log2 m)``.
    sort_steps: int
    #: Full read+write passes over the sample the merge sort performs in MRAM
    #: (WRAM-sized runs are pre-sorted in scratchpad, then merged).
    mram_passes: int


def orient_and_sort(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    wram_run_edges: int = 2048,
    drop_self_loops: bool = True,
) -> tuple[np.ndarray, np.ndarray, OrientStats]:
    """Orient every edge ``u < v`` and sort lexicographically.

    Parameters
    ----------
    src, dst:
        The DPU's edge sample (any orientation, possibly with self-loops if
        the input graph was not preprocessed).
    wram_run_edges:
        Edges that fit in one tasklet's WRAM sort buffer; determines how many
        MRAM merge passes the modeled sort needs.

    Returns
    -------
    (u, v, stats):
        Sorted oriented arrays (in the input's integer dtype) plus the work
        accounting.

    Raises
    ------
    GraphFormatError
        On a negative node ID, or one of ``MAX_KEY_NODES`` or more (the sort
        key would overflow ``int64``).
    """
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    if drop_self_loops:
        keep = u != v
        u, v = u[keep], v[keep]
    m = int(u.size)
    if m:
        if int(u.min()) < 0:
            raise GraphFormatError(f"negative node ID {int(u.min())}")
        stride = int(v.max()) + 1
        if stride > MAX_KEY_NODES:
            raise GraphFormatError(
                f"node ID {stride - 1} too large for int64 edge keys; "
                "compact() sparse ID spaces first"
            )
        # One key per edge; its plain sort is the lexicographic (u, v) order.
        keys = u.astype(np.int64)
        keys *= stride
        keys += v
        keys.sort()
        first, second = np.divmod(keys, stride)
        u = first.astype(u.dtype, copy=False)
        v = second.astype(v.dtype, copy=False)
    if m > 1:
        sort_steps = int(m * np.ceil(np.log2(m)))
        runs = max(1, int(np.ceil(m / max(1, wram_run_edges))))
        mram_passes = 1 + int(np.ceil(np.log2(runs))) if runs > 1 else 1
    else:
        sort_steps = 0
        mram_passes = 1 if m else 0
    return u, v, OrientStats(edges=m, sort_steps=sort_steps, mram_passes=mram_passes)
