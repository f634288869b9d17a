"""Coordinate-list (COO) graph container.

The paper's entire pipeline is built around the COO representation: the host
reads a stream of ``(u, v)`` tuples, and each PIM core stores its sub-graph as
a plain edge array in its DRAM bank (paper Fig. 2).  COO is also what makes
the dynamic-graph experiment (Fig. 7) possible — updates are appended to the
edge list without rebuilding an index.

:class:`COOGraph` is an immutable-by-convention pair of ``int64`` arrays plus
a node count.  All preprocessing used in the paper's methodology (Sec. 4.1) is
provided: removal of self-loops and duplicate (undirected) edges, and a
uniform shuffle standing in for the ``shuf`` command-line utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..common.errors import GraphFormatError
from ..common.validation import check_int_array

__all__ = ["COOGraph", "MAX_KEY_NODES"]

#: Largest node-ID span whose ``u * n + v`` edge keys fit in ``int64``.
MAX_KEY_NODES = 3_000_000_000


@dataclass
class COOGraph:
    """A simple, unweighted, undirected graph stored as an edge list.

    Attributes
    ----------
    src, dst:
        ``int64`` arrays of equal length holding edge endpoints.  The graph is
        undirected; an edge may be stored in either orientation unless
        :meth:`canonicalize` has been applied.
    num_nodes:
        Number of node IDs, i.e. IDs are in ``[0, num_nodes)``.
    """

    src: np.ndarray
    dst: np.ndarray
    num_nodes: int
    name: str = field(default="graph", compare=False)

    def __post_init__(self) -> None:
        self.src = check_int_array("src", self.src).astype(np.int64, copy=False)
        self.dst = check_int_array("dst", self.dst).astype(np.int64, copy=False)
        if self.src.shape != self.dst.shape:
            raise GraphFormatError(
                f"src and dst must have equal length, got {self.src.size} and {self.dst.size}"
            )
        if self.src.size:
            lo = min(int(self.src.min()), int(self.dst.min()))
            hi = max(int(self.src.max()), int(self.dst.max()))
            if lo < 0:
                raise GraphFormatError(f"negative node ID {lo}")
            if hi >= self.num_nodes:
                raise GraphFormatError(
                    f"node ID {hi} out of range for num_nodes={self.num_nodes}"
                )

    # ------------------------------------------------------------------ basics
    @property
    def num_edges(self) -> int:
        """Number of stored edge tuples (after canonicalize: undirected edges)."""
        return int(self.src.size)

    def __len__(self) -> int:
        return self.num_edges

    def edges(self) -> np.ndarray:
        """Return an ``(m, 2)`` view-like array of the edge list."""
        return np.stack([self.src, self.dst], axis=1)

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        num_nodes: int | None = None,
        name: str = "graph",
    ) -> "COOGraph":
        """Build a graph from an ``(m, 2)`` array or a sequence of pairs."""
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError(f"edges must have shape (m, 2), got {arr.shape}")
        if num_nodes is None:
            num_nodes = int(arr.max(initial=-1)) + 1
        return cls(src=arr[:, 0].copy(), dst=arr[:, 1].copy(), num_nodes=num_nodes, name=name)

    # ------------------------------------------------------------ preprocessing
    def canonicalize(self) -> "COOGraph":
        """Apply the paper's preprocessing: drop self-loops and duplicate edges.

        Duplicates are detected on the *undirected* edge, i.e. ``(u, v)`` and
        ``(v, u)`` are the same edge.  The surviving copy is oriented with
        ``u < v``.  The result is sorted lexicographically (callers that need
        the stream order randomized — as the paper does with ``shuf`` — should
        chain :meth:`shuffle`).
        """
        u = np.minimum(self.src, self.dst)
        v = np.maximum(self.src, self.dst)
        keep = u != v
        u, v = u[keep], v[keep]
        # Lexicographic sort + consecutive-duplicate drop (no packed keys, so
        # arbitrarily large sparse ID spaces are safe here).
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        if u.size:
            fresh = np.empty(u.size, dtype=bool)
            fresh[0] = True
            fresh[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
            u, v = u[fresh], v[fresh]
        return COOGraph(src=u, dst=v, num_nodes=self.num_nodes, name=self.name)

    def is_canonical(self) -> bool:
        """True if edges are oriented ``u < v`` and free of duplicates/self-loops."""
        if self.num_edges == 0:
            return True
        if not bool(np.all(self.src < self.dst)):
            return False
        order = np.lexsort((self.dst, self.src))
        u, v = self.src[order], self.dst[order]
        dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
        return not bool(dup.any())

    def shuffle(self, rng: np.random.Generator) -> "COOGraph":
        """Return a copy with the edge stream order randomly permuted.

        Mirrors the ``shuf`` preprocessing in the paper's methodology: stream
        order matters for reservoir sampling and Misra-Gries, so experiments
        always randomize it.
        """
        perm = rng.permutation(self.num_edges)
        return COOGraph(
            src=self.src[perm], dst=self.dst[perm], num_nodes=self.num_nodes, name=self.name
        )

    # ------------------------------------------------------------------- views
    def edge_keys(self, oriented: bool = True) -> np.ndarray:
        """Unique ``int64`` key per edge: ``min*n + max`` (or ``src*n + dst``).

        Keys are the backbone of the vectorized membership tests used by the
        fast kernels: sorted keys + ``searchsorted`` is the NumPy analogue of
        the binary search into the region table the DPU kernel performs.
        """
        if self.num_nodes > MAX_KEY_NODES:
            raise GraphFormatError(
                "edge keys need num_nodes**2 < 2**63; compact() sparse ID spaces first"
            )
        if oriented:
            u = np.minimum(self.src, self.dst)
            v = np.maximum(self.src, self.dst)
        else:
            u, v = self.src, self.dst
        return u * np.int64(self.num_nodes) + v

    def degrees(self) -> np.ndarray:
        """Undirected degree of every node (assumes canonical form for exactness)."""
        deg = np.bincount(self.src, minlength=self.num_nodes)
        deg += np.bincount(self.dst, minlength=self.num_nodes)
        return deg

    def nbytes(self) -> int:
        """Size of the edge list in bytes as stored on a PIM core (2 x int64)."""
        return int(self.src.nbytes + self.dst.nbytes)

    # ----------------------------------------------------------------- updates
    def concat(self, other: "COOGraph", name: str | None = None) -> "COOGraph":
        """Append another edge list (a dynamic-graph batch) — O(new) COO update."""
        n = max(self.num_nodes, other.num_nodes)
        return COOGraph(
            src=np.concatenate([self.src, other.src]),
            dst=np.concatenate([self.dst, other.dst]),
            num_nodes=n,
            name=name or self.name,
        )

    def slice(self, start: int, stop: int) -> "COOGraph":
        """Sub-stream of edges ``[start, stop)`` in current stream order."""
        return COOGraph(
            src=self.src[start:stop],
            dst=self.dst[start:stop],
            num_nodes=self.num_nodes,
            name=f"{self.name}[{start}:{stop}]",
        )

    def split_batches(self, num_batches: int) -> list["COOGraph"]:
        """Split the edge stream into ``num_batches`` contiguous chunks.

        This is exactly the paper's dynamic-graph simulation (Sec. 4.6): the
        input graph is divided into smaller subgraphs merged in one at a time.
        """
        if num_batches < 1:
            raise GraphFormatError("num_batches must be >= 1")
        bounds = np.linspace(0, self.num_edges, num_batches + 1).astype(np.int64)
        return [self.slice(int(bounds[i]), int(bounds[i + 1])) for i in range(num_batches)]

    def compact(self) -> tuple["COOGraph", np.ndarray]:
        """Relabel nodes to a dense ``[0, k)`` ID range; returns (graph, mapping).

        Public COO datasets often carry sparse ID spaces (the paper's V1r has
        214M node IDs) while the in-memory pipeline wants dense IDs for its
        O(num_nodes) accumulators.  ``mapping[new_id] == old_id`` recovers the
        original labels.  Isolated nodes (IDs that appear in no edge)
        disappear — they cannot participate in triangles.
        """
        if self.num_edges == 0:
            return (
                COOGraph(
                    src=self.src.copy(), dst=self.dst.copy(), num_nodes=0, name=self.name
                ),
                np.empty(0, dtype=np.int64),
            )
        mapping, inverse = np.unique(
            np.concatenate([self.src, self.dst]), return_inverse=True
        )
        m = self.num_edges
        return (
            COOGraph(
                src=inverse[:m].astype(np.int64),
                dst=inverse[m:].astype(np.int64),
                num_nodes=int(mapping.size),
                name=self.name,
            ),
            mapping.astype(np.int64),
        )

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as Python tuples (test/reference paths only)."""
        for u, v in zip(self.src.tolist(), self.dst.tolist()):
            yield (u, v)

    def __repr__(self) -> str:
        return (
            f"COOGraph(name={self.name!r}, num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )
