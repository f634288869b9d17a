"""Per-node (local) triangle counting — the oracle side.

The paper's approximation machinery descends from TRIÈST (De Stefani et al.,
reference [48]), which estimates *local* triangle counts — the number of
triangles each node participates in — alongside the global total.  This
module provides the exact per-node oracle; :mod:`repro.core.local` runs the
same computation on the simulated PIM system.

The local count vector ``L`` satisfies ``L.sum() == 3 * T`` (each triangle
touches three nodes) and yields per-node clustering coefficients
``c(v) = L[v] / (deg(v) * (deg(v) - 1) / 2)``.

Implementation: with the symmetric adjacency ``S``, the closed-wedge count at
``v`` is ``((S @ S) .* S).sum(axis=1)[v] / 2``; rows are processed in chunks
to bound the intermediate product's memory, exactly like the global oracle.
"""

from __future__ import annotations

import numpy as np

from .coo import COOGraph

__all__ = ["count_triangles_per_node", "local_clustering"]


def count_triangles_per_node(
    graph: COOGraph, chunk_nnz: int = 1 << 24
) -> np.ndarray:
    """Exact triangles-per-node vector of ``graph`` (length ``num_nodes``)."""
    g = graph if graph.is_canonical() else graph.canonicalize()
    n = g.num_nodes
    local = np.zeros(n, dtype=np.int64)
    m = g.num_edges
    if m == 0:
        return local
    import scipy.sparse as sp  # loaded on the first product, not at import

    ones = np.ones(2 * m, dtype=np.int64)
    rows = np.concatenate([g.src, g.dst])
    cols = np.concatenate([g.dst, g.src])
    sym = sp.csr_matrix((ones, (rows, cols)), shape=(n, n))
    deg = np.diff(sym.indptr)
    # Row wedge work bounds the chunk product size.
    cs = np.concatenate(([0], np.cumsum(deg[sym.indices])))
    row_wedges = cs[sym.indptr[1:]] - cs[sym.indptr[:-1]]
    cum = np.concatenate(([0], np.cumsum(row_wedges)))
    row = 0
    while row < n:
        stop = int(np.searchsorted(cum, cum[row] + chunk_nnz, side="right"))
        stop = min(max(stop - 1, row + 1), n)
        block = sym[row:stop, :]
        closed = (block @ sym).multiply(block)
        local[row:stop] = np.asarray(closed.sum(axis=1)).ravel() // 2
        row = stop
    return local


def local_clustering(graph: COOGraph, per_node: np.ndarray | None = None) -> np.ndarray:
    """Per-node clustering coefficients ``L[v] / binom(deg(v), 2)`` (0 if deg < 2)."""
    g = graph if graph.is_canonical() else graph.canonicalize()
    if per_node is None:
        per_node = count_triangles_per_node(g)
    deg = g.degrees().astype(np.float64)
    wedges = deg * (deg - 1) / 2.0
    out = np.zeros(g.num_nodes, dtype=np.float64)
    mask = wedges > 0
    out[mask] = per_node[mask] / wedges[mask]
    return out
