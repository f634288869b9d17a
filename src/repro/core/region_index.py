"""First-node region index over a sorted edge sample (paper Fig. 2).

After sorting, edges sharing a first node form a contiguous *region*.  The
DPU builds a table with one entry per region — ``(first_node, start_offset)``
— and the counting phase binary-searches this table to locate the region of a
given node ``v`` (the neighbors of ``v``).

:class:`RegionIndex` is the NumPy equivalent: ``nodes`` (sorted unique first
nodes) and ``starts`` / ``ends`` offsets into the edge arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RegionIndex", "binary_search_steps", "build_region_index", "expand_slices"]


def binary_search_steps(num_regions: int | np.ndarray) -> int | np.ndarray:
    """Binary-search step count for one lookup in an ``R``-region table:
    ``ceil(log2(R + 1))``, and 1 for an empty table.

    ``num_regions`` is one count or an array of them (one per core); the
    result has the same shape.  ``ceil(log2(R + 1))`` is the bit length of
    ``R``, read exactly from the binary exponent ``frexp`` returns.
    """
    steps = np.maximum(np.frexp(np.asarray(num_regions, dtype=np.float64))[1], 1)
    return int(steps) if steps.ndim == 0 else steps.astype(np.int64)


@dataclass(frozen=True)
class RegionIndex:
    """Region table of a sorted, oriented edge sample."""

    nodes: np.ndarray  # distinct first nodes, ascending
    starts: np.ndarray  # first edge index of each region
    ends: np.ndarray  # one-past-last edge index of each region

    @property
    def num_regions(self) -> int:
        return int(self.nodes.size)

    def lookup(self, node: int) -> tuple[int, int]:
        """Binary search one node; returns ``(start, end)`` (empty if absent).

        Mirrors the DPU's per-edge search; the vectorized kernel uses
        :meth:`lookup_many`.
        """
        i = int(np.searchsorted(self.nodes, node))
        if i < self.nodes.size and self.nodes[i] == node:
            return int(self.starts[i]), int(self.ends[i])
        return 0, 0

    def lookup_many(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized region lookup; absent nodes get an empty ``(0, 0)`` span."""
        idx = np.searchsorted(self.nodes, nodes)
        idx_c = np.minimum(idx, max(self.nodes.size - 1, 0))
        if self.nodes.size:
            found = self.nodes[idx_c] == nodes
        else:
            found = np.zeros(nodes.shape, dtype=bool)
        starts = np.where(found, self.starts[idx_c] if self.nodes.size else 0, 0)
        ends = np.where(found, self.ends[idx_c] if self.nodes.size else 0, 0)
        return starts.astype(np.int64), ends.astype(np.int64)

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        """Forward degree (region length) of each queried node; 0 if absent."""
        starts, ends = self.lookup_many(nodes)
        return ends - starts

    def search_steps(self) -> int:
        """Binary-search step count for one lookup: ``ceil(log2(R + 1))``."""
        return binary_search_steps(self.num_regions)

    def table_bytes(self, entry_bytes: int = 8) -> int:
        """MRAM footprint of the table (node + offset per region)."""
        return self.num_regions * entry_bytes


def expand_slices(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten contiguous ``[start, end)`` spans into flat gather indices.

    Returns ``(positions, owner)``: span ``i``'s positions
    ``starts[i] .. ends[i]-1`` appear contiguously in ``positions`` and
    ``owner`` records which span each position came from.  The vectorized
    kernel uses this to expand per-edge adjacency slices into one flat
    candidate array in a single pass — no Python loop over edges.
    """
    counts = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - offsets[owner]
    positions = np.asarray(starts, dtype=np.int64)[owner] + within
    return positions, owner


def build_region_index(u_sorted: np.ndarray) -> RegionIndex:
    """Build the region table from the sorted first-node column.

    A region starts at offset 0 and wherever the column changes value, and
    ends where the next one starts; one comparison pass over the column, as
    the DPU's table build scans its sorted sample once.
    """
    m = int(u_sorted.size)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return RegionIndex(nodes=empty, starts=empty.copy(), ends=empty.copy())
    bounds = np.concatenate(([0], np.flatnonzero(u_sorted[1:] != u_sorted[:-1]) + 1, [m]))
    starts = bounds[:-1]
    return RegionIndex(
        nodes=u_sorted[starts].astype(np.int64), starts=starts, ends=bounds[1:]
    )
