"""Dynamic-graph triangle counting on the PIM system (paper Sec. 4.6, Fig. 7).

COO's advantage on dynamic graphs is that an update is an append: the host
routes only the *new* edges to the PIM cores, each core merges them into its
already-sorted sample, and the counting kernel processes just the new edges'
wedges.  This module drives that loop:

* :class:`DynamicPimCounter` keeps the coloring (the hash is drawn once, so
  node colors are stable across updates) and each core's resident sample,
  sorted between rounds.
* ``apply_update(batch)`` routes, transfers and merges the batch, charges the
  incremental kernel work (sort of the batch + one merge pass over the sample
  + per-new-edge binary search and merge intersection), and returns the new
  global count with the monochromatic correction re-applied.

The functional arithmetic does the same incremental work.  Every core's
sample is kept as sorted int64 keys ``c * (n+1)**2 + x * (n+1) + y`` over
both orientations of every edge, so core ``c``'s sample is one key range
and node ``x``'s neighbours on it are one slice.  The keys live in a few
*shards*, each a contiguous core range with one sorted array; a shard of
more than one core is halved at a core boundary after a round that leaves
it above :data:`SHARD_MAX_KEYS` keys.  Per-core counts are independent
(the coloring argument), so a round handles all cores at once: each chunk
sorts its routed copies once, then runs one merge, one delta-triangle count
and one charge-input search per shard it touches.  A delta edge intersects
its endpoints' neighbour slices, and a triangle holding ``k`` delta edges
weighs ``1/k``; one ``bincount`` over ``core * 4 + k`` gives every core's
count.  Deletions count the same way against the pre-deletion sample and
subtract.  Inserts have set semantics (self-loops, repeats and resident
edges are ignored), which is what makes the delta exact.  The per-core
charges go through :meth:`repro.pimsim.dpu.Dpu.balanced_seconds`, the
vector form of the one cost model.

:meth:`DynamicPimCounter.recount` recounts every core from scratch, and
:meth:`DynamicPimCounter._merge_and_charge` merges and charges one core at a
time: the oracles the tests hold the rounds' counts and charges to.
Reservoir and uniform sampling are disabled on this path, matching the
paper's dynamic experiment which counts exactly.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..coloring.partition import ColoringPartitioner, EdgePartition
from ..coloring.triplets import num_triplets
from ..common.errors import ConfigurationError, GraphFormatError
from ..common.rng import RngFactory
from ..graph.coo import COOGraph
from ..pimsim.config import PimSystemConfig
from ..pimsim.dpu import Dpu
from ..pimsim.kernel import SimClock
from ..pimsim.system import PimSystem
from ..streaming.estimators import combine_dpu_counts
from ..streaming.misra_gries import MisraGries
from .ingest import DoubleBufferSchedule, iter_edge_batches
from .kernel_tc_fast import KernelCosts, _count_forward_sparse
from .orient import orient_and_sort
from .region_index import binary_search_steps, build_region_index, expand_slices
from .remap import RemapTable, apply_remap

__all__ = ["DynamicUpdateResult", "DynamicPimCounter"]

#: Keys a shard of more than one core may hold after a round; a larger one
#: is halved.  Each chunk's merge and count allocate temporaries in
#: proportion to the shards it touches, so one array for every core would
#: make each insert's transient memory grow with the whole resident graph.
#: 2**16 keys are 512 KiB.
SHARD_MAX_KEYS = 1 << 16


class DynamicUpdateResult:
    """Outcome of one dynamic update round.

    ``new_edges`` counts edges *added* by an insert round and is 0 for
    deletions; ``removed_edges`` counts logical edges actually dropped by a
    delete round and is 0 for inserts.  ``ignored_edges`` counts the batch's
    records that changed nothing: self-loops, repeats within the batch
    (either orientation) and edges already resident on insert; tombstones
    for absent edges and repeats on delete.
    """

    def __init__(
        self,
        round_index: int,
        new_edges: int,
        cumulative_edges: int,
        triangles_total: int,
        triangles_added: int,
        round_seconds: float,
        cumulative_seconds: float,
        op: str = "insert",
        removed_edges: int = 0,
        ignored_edges: int = 0,
    ) -> None:
        self.round_index = round_index
        self.new_edges = new_edges
        self.cumulative_edges = cumulative_edges
        self.triangles_total = triangles_total
        self.triangles_added = triangles_added
        self.round_seconds = round_seconds
        self.cumulative_seconds = cumulative_seconds
        self.op = op
        self.removed_edges = removed_edges
        self.ignored_edges = ignored_edges

    def to_dict(self) -> dict:
        """JSON-ready view (service responses, NDJSON events, reports)."""
        return {
            "round_index": int(self.round_index),
            "op": self.op,
            "new_edges": int(self.new_edges),
            "removed_edges": int(self.removed_edges),
            "ignored_edges": int(self.ignored_edges),
            "cumulative_edges": int(self.cumulative_edges),
            "triangles_total": int(self.triangles_total),
            "triangles_added": int(self.triangles_added),
            "round_seconds": float(self.round_seconds),
            "cumulative_seconds": float(self.cumulative_seconds),
        }

    def __repr__(self) -> str:
        edges = (
            f"edges={self.new_edges}"
            if self.op == "insert"
            else f"removed={self.removed_edges}"
        )
        return (
            f"DynamicUpdateResult(round={self.round_index}, op={self.op}, "
            f"{edges}, T={self.triangles_total}, "
            f"dt={self.round_seconds * 1e3:.3f}ms)"
        )


def _contains(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership of each query in the sorted array ``keys``."""
    if not keys.size:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.searchsorted(keys, queries)
    return keys[np.minimum(pos, keys.size - 1)] == queries


def _forward_degrees(keys: np.ndarray, nodes: np.ndarray, n1: np.int64) -> np.ndarray:
    """Neighbours of each node with a larger ID: its region length in the
    ``u < v`` oriented sample.

    ``nodes`` are core-node IDs ``c * n1 + x`` (``x`` alone for one core's
    unprefixed keys): node ``x``'s forward neighbours on core ``c`` start
    at key ``(c * n1 + x) * n1 + x + 1``.
    """
    end, past_self = np.searchsorted(
        keys, np.concatenate(((nodes + 1) * n1, nodes * n1 + nodes % n1 + 1))
    ).reshape(2, -1)
    return end - past_self


def _merge(old: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted ``delta`` into sorted ``old`` (disjoint key sets).

    Returns the merged keys and a mask marking where ``delta``'s keys landed.
    """
    at = np.searchsorted(old, delta) + np.arange(delta.size)
    marked = np.zeros(old.size + delta.size, dtype=bool)
    marked[at] = True
    keys = np.empty(marked.size, dtype=np.int64)
    keys[at] = delta
    keys[~marked] = old
    return keys, marked


def _delta_triangles(
    keys: np.ndarray,
    marked: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    n1: np.int64,
    first: int = 0,
    num_cores: int = 1,
) -> np.ndarray:
    """Triangles of each core's sample that hold at least one of the edges ``(a, b)``.

    ``keys`` holds the samples of cores ``first .. first + num_cores - 1``
    as sorted keys ``c * n1**2 + x * n1 + y`` over both orientations of
    every edge; ``a`` and ``b`` are core-node IDs ``p = c * n1 + x``
    (distinct, ``a < b``, both on the edge's core), and ``p``'s neighbours
    are the keys in ``[p * n1, (p + 1) * n1)``.  ``keys`` holds every
    ``(a, b)`` edge and ``marked`` flags their keys.  Each such edge walks
    the shorter of its endpoints' neighbour slices and binary-searches the
    other endpoint for each candidate, so a triangle holding ``k`` of the
    edges is found ``k`` times and weighs ``1/k``.  Returns one count per
    core.
    """
    if not a.size:
        return np.zeros(num_cores, dtype=np.int64)
    lo_a, hi_a, lo_b, hi_b = np.searchsorted(
        keys, np.concatenate((a * n1, (a + 1) * n1, b * n1, (b + 1) * n1))
    ).reshape(4, -1)
    a_short = hi_a - lo_a <= hi_b - lo_b
    pos, owner = expand_slices(
        np.where(a_short, lo_a, lo_b), np.where(a_short, hi_a, hi_b)
    )
    short = np.where(a_short, a, b)[owner]
    other = np.where(a_short, b, a)[owner]
    probe = other * n1 + (keys[pos] - short * n1)
    at = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
    closed = keys[at] == probe
    k = 1 + marked[pos[closed]].astype(np.int64) + marked[at[closed]]
    core = short[closed] // n1 - first
    found = np.bincount(core * 4 + k, minlength=4 * num_cores).reshape(-1, 4)
    return found[:, 1] + found[:, 2] // 2 + found[:, 3] // 3


class DynamicPimCounter:
    """Incremental triangle counting over a stream of COO edge batches.

    Each update batch streams through one chunk loop: ``batch_edges`` sets
    the chunk size, and ``None`` makes the whole batch one chunk.  Counts do
    not depend on the chunk size; the simulated clock overlaps host routing
    with the cores' merges across chunks.

    The resident graph is a set of undirected edges.  An insert batch adds
    the edges not yet resident and ignores self-loops, repeats (either
    orientation) and resident edges; a delete batch removes the resident
    edges it names and ignores the rest.  Both report what they ignored in
    :attr:`DynamicUpdateResult.ignored_edges`.
    """

    def __init__(
        self,
        num_nodes: int,
        num_colors: int = 4,
        seed: int = 0,
        system_config: PimSystemConfig | None = None,
        kernel_costs: KernelCosts | None = None,
        misra_gries_k: int = 0,
        misra_gries_t: int = 0,
        batch_edges: int | None = None,
    ) -> None:
        if num_colors < 1:
            raise ConfigurationError("num_colors must be >= 1")
        if (misra_gries_k > 0) != (misra_gries_t > 0):
            raise ConfigurationError("misra_gries_k and misra_gries_t go together")
        if batch_edges is not None and batch_edges < 1:
            raise ConfigurationError("batch_edges must be >= 1 or None")
        needed = num_triplets(num_colors)
        if needed * (int(num_nodes) + 1) ** 2 > np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"num_nodes={num_nodes} too large for int64 edge keys on "
                f"{needed} PIM cores: {needed} * (num_nodes + 1)**2 must be < 2**63"
            )
        #: Streaming-ingest chunk size for update batches, in edges; ``None``
        #: makes each update batch one chunk.
        self.batch_edges = batch_edges
        self.num_nodes = int(num_nodes)
        self.num_colors = int(num_colors)
        self.costs = kernel_costs or KernelCosts()
        # Misra-Gries is a streaming summary, so it extends naturally to the
        # dynamic setting: each update batch feeds it, and the current top-t
        # is re-broadcast (the remap is a bijection, counts are unaffected).
        self._mg = MisraGries(misra_gries_k) if misra_gries_k > 0 else None
        self._mg_t = int(misra_gries_t)
        self.system = PimSystem(system_config or PimSystemConfig())
        # Check the core budget before the partitioner builds its triplet
        # table, which grows as C**3.
        if needed > self.system.config.total_dpus:
            raise ConfigurationError(
                f"{num_colors} colors need {needed} PIM cores but the system has "
                f"{self.system.config.total_dpus}"
            )
        rngs = RngFactory(seed)
        self.partitioner = ColoringPartitioner(num_colors, rngs.stream("coloring"))
        self.clock = SimClock()
        self.dpus = self.system.allocate(self.partitioner.num_dpus, self.clock)
        # Resident samples: sorted ``c * (n + 1)**2 + x * (n + 1) + y`` keys
        # over both orientations of every edge, so core c's sample is one
        # key range and node x's neighbours on it are one slice.  Shard i
        # holds cores ``_firsts[i]`` up to the next shard's first core.
        self._n1 = np.int64(self.num_nodes + 1)
        self._n2 = self._n1 * self._n1
        self._firsts = [0]
        self._shards = [np.empty(0, dtype=np.int64)]
        # Regions (nodes with a larger-ID neighbour) of each core's sample:
        # the size of the table the kernel's per-edge binary search walks.
        self._regions = np.zeros(self.partitioner.num_dpus, dtype=np.int64)
        self._raw_counts = np.zeros(self.partitioner.num_dpus, dtype=np.int64)
        self._estimate = 0
        self._round = 0
        self._cumulative_edges = 0
        #: Largest routed-bytes footprint of any single update/deletion round
        #: (the service layer budgets sessions against this accounting).
        self.peak_routed_bytes = 0
        self._closed = False

    # --------------------------------------------------------------------- state
    @property
    def triangles(self) -> int:
        """Current exact triangle count of the accumulated graph."""
        return self._estimate

    @property
    def cumulative_edges(self) -> int:
        """Logical edges currently resident (inserts minus real deletions)."""
        return self._cumulative_edges

    @property
    def resident_bytes(self) -> int:
        """Bytes of sample records currently resident across all PIM cores."""
        records = sum(int(keys.size) for keys in self._shards) // 2
        return records * self.costs.edge_bytes

    def recount(self) -> np.ndarray:
        """Each core's triangle count, recomputed from its whole resident sample.

        The oracle for the per-core counts the rounds maintain incrementally;
        update rounds never call it.
        """
        counts = np.zeros(self.partitioner.num_dpus, dtype=np.int64)
        for d in range(counts.size):
            u, v = self._oriented(self._core_keys(d))
            counts[d] = _count_forward_sparse(u, v, self.num_nodes)
        return counts

    # ------------------------------------------------------------------ shards
    def _spans(self) -> list[tuple[int, int]]:
        """Each shard's core range ``[first, last)``."""
        return list(zip(self._firsts, self._firsts[1:] + [self.partitioner.num_dpus]))

    def _touched(self, keys: np.ndarray) -> list[tuple[int, int, int, int, int]]:
        """``(shard, first, last, lo, hi)`` for each shard whose key range
        holds the sorted keys ``keys[lo:hi]``, with its core range."""
        bounds = np.array(self._firsts + [self.partitioner.num_dpus], dtype=np.int64)
        cuts = np.searchsorted(keys, bounds * self._n2).tolist()
        return [
            (i, first, last, cuts[i], cuts[i + 1])
            for i, (first, last) in enumerate(self._spans())
            if cuts[i] < cuts[i + 1]
        ]

    def _core_sizes(self) -> np.ndarray:
        """Resident keys on each core: two per edge."""
        return np.concatenate([
            np.diff(np.searchsorted(keys, np.arange(first, last + 1) * self._n2))
            for (first, last), keys in zip(self._spans(), self._shards)
        ])

    def _locate(self, d: int) -> tuple[int, int, int]:
        """``(shard, lo, hi)``: core ``d``'s keys are ``_shards[shard][lo:hi]``."""
        i = bisect_right(self._firsts, d) - 1
        lo, hi = np.searchsorted(self._shards[i], np.array([d, d + 1]) * self._n2)
        return i, int(lo), int(hi)

    def _core_keys(self, d: int) -> np.ndarray:
        """Core ``d``'s sample as sorted ``x * (n + 1) + y`` keys."""
        i, lo, hi = self._locate(d)
        return self._shards[i][lo:hi] - d * self._n2

    def _resident(self, keys: np.ndarray) -> np.ndarray:
        """Whether each core-prefixed key is resident."""
        order = np.argsort(keys)
        ordered = keys[order]
        found = np.zeros(keys.size, dtype=bool)
        for i, _, _, lo, hi in self._touched(ordered):
            found[order[lo:hi]] = _contains(self._shards[i], ordered[lo:hi])
        return found

    def _split_shards(self) -> None:
        """Halve each shard of more than one core that holds more than
        :data:`SHARD_MAX_KEYS` keys, at the core boundary between its halves,
        until none does."""
        i = 0
        while i < len(self._shards):
            first, last = self._spans()[i]
            keys = self._shards[i]
            if last - first > 1 and keys.size > SHARD_MAX_KEYS:
                mid = (first + last) // 2
                cut = int(np.searchsorted(keys, mid * self._n2))
                self._shards[i : i + 1] = [keys[:cut].copy(), keys[cut:].copy()]
                self._firsts.insert(i + 1, mid)
            else:
                i += 1

    def _oriented(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A core's sample as ``u < v`` edges, sorted lexicographically."""
        x = keys // self._n1
        y = keys - x * self._n1
        forward = x < y
        return x[forward], y[forward]

    def routed_bytes_for(self, num_edges: int) -> int:
        """Routed-byte footprint of a ``num_edges`` batch: every edge is
        replicated once per third-color choice (``C`` copies, one per
        compatible triplet core)."""
        return int(num_edges) * self.partitioner.table.edge_multiplicity() * self.costs.edge_bytes

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the PIM cores and drop resident state (idempotent).

        A long-lived service session must hand its DPUs back when it ends;
        after :meth:`close`, further updates raise ``ConfigurationError``.
        """
        if self._closed:
            return
        self._closed = True
        self.dpus.free()
        self._firsts = [0]
        self._shards = [np.empty(0, dtype=np.int64)]
        self._regions[:] = 0

    def _check_batch(self, batch: COOGraph) -> None:
        """Refuse a batch on a closed counter, or one with node IDs past
        ``num_nodes`` (their keys would alias other edges')."""
        if self._closed:
            raise ConfigurationError("DynamicPimCounter is closed")
        if batch.num_nodes > self.num_nodes and batch.num_edges:
            hi = max(int(batch.src.max()), int(batch.dst.max()))
            if hi >= self.num_nodes:
                raise GraphFormatError(
                    f"node ID {hi} out of range for num_nodes={self.num_nodes}"
                )

    @property
    def cumulative_seconds(self) -> float:
        """Total update time, excluding the one-time setup (paper convention:
        setup is excluded from every post-Sec.-4.2 comparison)."""
        return self.clock.total() - self.clock.get("setup")

    @property
    def setup_seconds(self) -> float:
        return self.clock.get("setup")

    # -------------------------------------------------------------------- update
    def _merge_and_charge(
        self, d: int, new_src: np.ndarray, new_dst: np.ndarray, remap: RemapTable | None
    ) -> float:
        """Merge one routed chunk into core ``d``'s sample and count what it adds.

        The one-core reference for :meth:`_merge_chunk`, which rounds call:
        the tests hold every chunk's per-core counts, regions and compute
        seconds to this method's, as :meth:`recount` holds the counts.  The
        chunk's edges are new to the core.  Sorts the chunk, merges it into
        the sorted sample, adds the triangles it closes to the core's count,
        and charges the incremental kernel work (batch sort, one merge pass
        over the resident sample, per-new-edge search + intersection) to the
        core's :class:`~repro.pimsim.dpu.Dpu`.  Returns the core's compute
        seconds for this chunk.
        """
        dpu = self.dpus.dpus[d]
        dpu.reset_charges()
        b = int(new_src.size)
        if not b:
            return dpu.compute_seconds()
        n1 = self._n1
        i, lo, hi = self._locate(d)
        shard = self._shards[i]
        old = shard[lo:hi] - d * self._n2
        old_m = old.size // 2
        nu, nv, _ = orient_and_sort(new_src, new_dst)
        delta = np.sort(np.concatenate((nu * n1 + nv, nv * n1 + nu)))
        # A batch first node with no larger-ID neighbour yet opens a region.
        firsts = nu[np.concatenate(([True], nu[1:] != nu[:-1]))]
        self._regions[d] += int((_forward_degrees(old, firsts, n1) == 0).sum())
        keys, marked = _merge(old, delta)
        self._shards[i] = np.concatenate((shard[:lo], keys + d * self._n2, shard[hi:]))
        self._raw_counts[d] += int(_delta_triangles(keys, marked, nu, nv, n1)[0])

        if remap is None:
            search_steps = binary_search_steps(int(self._regions[d]))
            end_u, past_uv, end_v, past_v = np.searchsorted(
                keys,
                np.concatenate(((nu + 1) * n1, nu * n1 + nv + 1, (nv + 1) * n1, nv * n1 + nv + 1)),
            ).reshape(4, -1)
            d_v = end_v - past_v  # forward degree of v
            suffix = end_u - past_uv  # forward neighbours of u past v
            merge_steps = np.where(d_v > 0, suffix + d_v, 0).sum()
        else:
            search_steps, merge_steps = self._remapped_steps(keys, new_src, new_dst, remap)
        # Incremental kernel: sort the batch, one merge pass over the
        # resident sample, then per-new-edge search + intersection.
        sort_steps = b * max(1, int(np.ceil(np.log2(max(b, 2)))))
        merge_pass = old_m + b
        remap_instr = (
            self.costs.remap_instr_per_edge * merge_pass if remap is not None else 0.0
        )
        instr = (
            remap_instr
            + self.costs.sort_instr_per_step * sort_steps
            + self.costs.insert_instr_per_edge * merge_pass
            + self.costs.edge_loop_instr * b
            + self.costs.binsearch_instr_per_step * search_steps * b
            + self.costs.merge_instr_per_step * float(merge_steps)
        )
        dpu.charge_balanced(instr)
        # Merge (and remap) passes stream the sample through MRAM
        # (read + write) plus the counting phase's region reads.
        passes = 2 + (2 if remap is not None else 0)
        nbytes = (passes * merge_pass + int(merge_steps)) * self.costs.edge_bytes
        tasklets = dpu.config.num_tasklets
        dpu.charge_mram_read_all(
            np.full(tasklets, nbytes // tasklets, dtype=np.int64),
            np.full(tasklets, max(1, b // 8), dtype=np.int64),
        )
        return dpu.compute_seconds()

    def _remapped_steps(
        self, keys: np.ndarray, new_src: np.ndarray, new_dst: np.ndarray, remap: RemapTable
    ) -> tuple[int, int]:
        """``(search steps, merge steps)`` the kernel pays for one core's chunk
        under a Misra-Gries remap.

        The remap reorders node IDs, so these come from a remapped, re-sorted
        view of the core's merged sample ``keys`` (``x * (n + 1) + y``); only
        the charges read it.
        """
        eff_src, eff_dst = apply_remap(remap, *self._oriented(keys))
        eff_ns, eff_nd = apply_remap(remap, new_src, new_dst)
        eff_n1 = np.int64(remap.remapped_num_nodes + 1)
        u, v, _ = orient_and_sort(eff_src, eff_dst)
        index = build_region_index(u)
        ru = np.minimum(eff_ns, eff_nd)
        rv = np.maximum(eff_ns, eff_nd)
        d_v = index.degrees_of(rv)
        _, ends_u = index.lookup_many(ru)
        pos = np.searchsorted(u * eff_n1 + v, ru * eff_n1 + rv, side="right")
        suffix = np.maximum(ends_u - pos, 0)
        return index.search_steps(), int(np.where(d_v > 0, suffix + d_v, 0).sum())

    def _merge_chunk(self, part: EdgePartition, remap: RemapTable | None) -> np.ndarray:
        """Merge one routed chunk into every core's sample and count what it adds.

        :meth:`_merge_and_charge` for all cores at once, to the bit: one sort
        of the chunk's copies, then one merge, one delta-triangle count and
        one charge-input search per shard the chunk touches.  Returns each
        core's compute seconds for the chunk (0 where it routed nothing).
        """
        n1, n2 = self._n1, self._n2
        t = self.partitioner.num_dpus
        b = part.counts
        core = np.repeat(np.arange(t, dtype=np.int64), b)
        lo = np.minimum(part.src, part.dst)
        hi = np.maximum(part.src, part.dst)
        old_m = self._core_sizes() // 2
        # Within a core the copies come in (third color, stream) order, so
        # the forward keys are sorted here; the core order already holds.
        fwd = np.sort(core * n2 + lo * n1 + hi)
        delta = np.sort(np.concatenate((fwd, core * n2 + hi * n1 + lo)))
        pu = fwd // n1  # core-node IDs of each edge's endpoints
        pv = core * n1 + (fwd - pu * n1)
        steps = np.zeros(fwd.size, dtype=np.int64)
        for i, first, last, e0, e1 in self._touched(fwd):
            cores = last - first
            u, v = pu[e0:e1], pv[e0:e1]
            old = self._shards[i]
            # A batch first node with no larger-ID neighbour yet opens a region.
            firsts = u[np.concatenate(([True], u[1:] != u[:-1]))]
            opened = firsts[_forward_degrees(old, firsts, n1) == 0]
            self._regions[first:last] += np.bincount(opened // n1 - first, minlength=cores)
            # Each edge holds two delta keys of its own core.
            keys, marked = _merge(old, delta[2 * e0 : 2 * e1])
            self._shards[i] = keys
            self._raw_counts[first:last] += _delta_triangles(
                keys, marked, u, v, n1, first, cores
            )
            if remap is None:
                end_u, past_uv, end_v, past_v = np.searchsorted(
                    keys,
                    np.concatenate(((u + 1) * n1, fwd[e0:e1] + 1, (v + 1) * n1, v * n1 + v % n1 + 1)),
                ).reshape(4, -1)
                d_v = end_v - past_v  # forward degree of v
                suffix = end_u - past_uv  # forward neighbours of u past v
                steps[e0:e1] = np.where(d_v > 0, suffix + d_v, 0)
        if remap is None:
            search_steps = binary_search_steps(self._regions)
            cum = np.concatenate(([0], np.cumsum(steps)))
            ends = np.cumsum(b)
            merge_steps = cum[ends] - cum[ends - b]
        else:
            search_steps = np.zeros(t, dtype=np.int64)
            merge_steps = np.zeros(t, dtype=np.int64)
            for d in np.flatnonzero(b):
                search_steps[d], merge_steps[d] = self._remapped_steps(
                    self._core_keys(d), *part.per_dpu[d], remap
                )
        # The charges of _merge_and_charge, one vector entry per core.
        sort_steps = b * binary_search_steps(np.maximum(b, 2) - 1)  # ceil(log2(max(b, 2)))
        merge_pass = old_m + b
        remap_instr = (
            self.costs.remap_instr_per_edge * merge_pass if remap is not None else 0.0
        )
        instr = (
            remap_instr
            + self.costs.sort_instr_per_step * sort_steps
            + self.costs.insert_instr_per_edge * merge_pass
            + self.costs.edge_loop_instr * b
            + self.costs.binsearch_instr_per_step * search_steps * b
            + self.costs.merge_instr_per_step * merge_steps.astype(np.float64)
        )
        passes = 2 + (2 if remap is not None else 0)
        nbytes = (passes * merge_pass + merge_steps) * self.costs.edge_bytes
        return self._core_seconds(b, instr, nbytes)

    def _core_seconds(self, b: np.ndarray, instr: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
        """Compute seconds of each core that received ``b > 0`` edges: balanced
        ``instr`` plus ``nbytes`` of MRAM reads split over the tasklets, each
        tasklet's share in ``max(1, b // 8)`` transfers; 0 on the others."""
        run = b > 0
        return Dpu.balanced_seconds(
            self.system.config.dpu,
            self.system.config.cost,
            np.where(run, instr, 0.0),
            np.where(run, nbytes, 0),
            np.where(run, np.maximum(1, b // 8), 0),
        )

    @staticmethod
    def _endpoint_stream(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Node stream of one batch: each edge contributes both endpoints."""
        stream = np.empty(2 * src.size, dtype=np.int64)
        stream[0::2] = src
        stream[1::2] = dst
        return stream

    def _refresh_remap(self) -> RemapTable | None:
        """Rebuild the remap table from the current summary and broadcast it."""
        if self._mg is None:
            return None
        top = self._mg.top(self._mg_t)
        if not top:
            return None
        remap = RemapTable(nodes=np.array(top, dtype=np.int64), num_nodes=self.num_nodes)
        # Broadcast the refreshed table to every core.
        self.clock.advance(
            "dynamic", self.dpus.transfer.broadcast(remap.nbytes(), len(self.dpus)).seconds
        )
        return remap

    def _update_mg(self, src: np.ndarray, dst: np.ndarray) -> RemapTable | None:
        """Feed one update batch to the Misra-Gries summary; refresh the remap."""
        if self._mg is None:
            return None
        self._mg.update_array(self._endpoint_stream(src, dst))
        return self._refresh_remap()

    def _decay_mg(self, batch: COOGraph) -> RemapTable | None:
        """Retract one deletion batch from the Misra-Gries summary.

        Without this, a hub whose edges were all deleted would stay pinned in
        the summary's top-``t`` forever and keep winning remap slots over
        nodes that are *currently* hot.  Decaying the deleted endpoints (and
        re-broadcasting the refreshed table, charged like any remap refresh)
        keeps the summary tracking the live graph.  Counts are unaffected
        either way — the remap is a bijection — which the differential grid
        and the deletion oracle tests pin.
        """
        if self._mg is None:
            return None
        self._mg.decay_array(self._endpoint_stream(batch.src, batch.dst))
        return self._refresh_remap()

    def _route(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[float, EdgePartition, float]:
        """Host side of one routed chunk: (host seconds, partition, scatter seconds).

        The host streams, hash-colors and routes only the chunk's edges;
        inserts and deletion tombstones take the same route.
        """
        cost = self.system.config.cost
        host_seconds = (
            cost.host_edge_cycles
            * int(src.size)
            / (cost.host_clock_hz * cost.host_threads)
        )
        part = self.partitioner.assign_arrays(src, dst)
        routed_bytes = part.counts * self.costs.edge_bytes
        self.peak_routed_bytes = max(self.peak_routed_bytes, int(routed_bytes.sum()))
        return host_seconds, part, self.dpus.transfer.scatter(routed_bytes).seconds

    def _finish_round(
        self,
        before_total: float,
        op: str,
        added_edges: int = 0,
        removed_edges: int = 0,
        ignored_edges: int = 0,
    ) -> DynamicUpdateResult:
        """Gather counts, apply corrections, and close one update round."""
        # Gather the per-core counts (8 bytes each).
        sizes = np.full(len(self.dpus), 8, dtype=np.int64)
        self.clock.advance("dynamic", self.dpus.transfer.gather(sizes).seconds)
        ones = np.ones(self.partitioner.num_dpus, dtype=np.float64)
        new_estimate = int(
            round(
                combine_dpu_counts(
                    self._raw_counts,
                    ones,
                    self.partitioner.mono_mask(),
                    num_colors=self.num_colors,
                )
            )
        )
        added = new_estimate - self._estimate
        self._estimate = new_estimate
        self._round += 1
        self._cumulative_edges += added_edges - removed_edges
        round_seconds = self.cumulative_seconds - before_total
        return DynamicUpdateResult(
            round_index=self._round,
            new_edges=added_edges,
            cumulative_edges=self._cumulative_edges,
            triangles_total=new_estimate,
            triangles_added=added,
            round_seconds=round_seconds,
            cumulative_seconds=self.cumulative_seconds,
            op=op,
            removed_edges=removed_edges,
            ignored_edges=ignored_edges,
        )

    def _canonical_keys(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """``min * (n + 1) + max``: one key per undirected edge."""
        return np.minimum(src, dst) * self._n1 + np.maximum(src, dst)

    def _new_edges(self, batch: COOGraph) -> tuple[np.ndarray, np.ndarray]:
        """The edges an insert batch actually adds, in first-occurrence order.

        Drops self-loops, repeats within the batch (either orientation) and
        edges already resident.  Every resident edge has a replica on its
        home core, so residency is one lookup of its key there.
        """
        src, dst = batch.src, batch.dst
        keys = self._canonical_keys(src, dst)
        _, first = np.unique(keys, return_index=True)
        first = np.sort(first[src[first] != dst[first]])
        home = self._canonical_dpus(src[first], dst[first])
        first = first[~self._resident(home * self._n2 + keys[first])]
        if first.size == src.size:
            return src, dst
        return src[first], dst[first]

    def apply_update(self, batch: COOGraph) -> DynamicUpdateResult:
        """Merge one batch of new edges and count the triangles it adds.

        Routes and merges the batch's new edges (see :meth:`_new_edges`) in
        ``batch_edges``-sized chunks (``None``: the whole batch is one
        chunk).  Each core counts the triangles each chunk closes right after
        merging it, so neither the per-core samples nor the count depend on
        the chunking, while the simulated clock models host routing of chunk
        ``k+1`` overlapped with the cores merging chunk ``k``.
        """
        self._check_batch(batch)
        cost = self.system.config.cost
        before_total = self.cumulative_seconds
        src, dst = self._new_edges(batch)
        remap = self._update_mg(src, dst)
        schedule = DoubleBufferSchedule()
        chunk = self.batch_edges or max(1, src.size)
        for _, s_chunk, d_chunk in iter_edge_batches(src, dst, chunk):
            h_k, part, xfer = self._route(s_chunk, d_chunk)
            times = self._merge_chunk(part, remap)
            d_k = xfer + cost.launch_latency + float(times.max())
            self.clock.advance("dynamic", schedule.step(h_k, d_k))
        self._split_shards()
        return self._finish_round(
            before_total,
            "insert",
            added_edges=int(src.size),
            ignored_edges=batch.num_edges - int(src.size),
        )

    # ------------------------------------------------------------------ delete
    def _canonical_dpus(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Each edge's designated home core: the third-color-0 triplet.

        Every edge is replicated once per third-color choice — the partition
        routes ``edge_multiplicity() == C`` copies to ``C`` distinct triplet
        cores — and the triplet LUT is symmetric in its first two arguments,
        so ``lut[cu, cv, 0]`` names the *same* core for every replica of an
        undirected edge.  Counting removals only on that core counts each
        logical edge exactly once, with no division by a replication factor.
        """
        cu = self.partitioner.node_colors(src)
        cv = self.partitioner.node_colors(dst)
        return self.partitioner.table.lut[cu, cv, np.int64(0)]

    def apply_deletion(self, batch: COOGraph) -> DynamicUpdateResult:
        """Remove a batch of edges (fully-dynamic streams, TRIEST-FD style).

        COO makes deletions as cheap as insertions for the PIM layout: the
        hash coloring is stable, so an edge's ``C`` copies live on exactly the
        cores its colors name — the host routes the *tombstones* the same way
        it routes insertions, and each core drops the matching records with
        one binary search plus a compaction pass.  Edges not present are
        ignored (idempotent deletes).  Only cores that receive tombstones
        run: each subtracts the triangles its dropped edges held.
        """
        self._check_batch(batch)
        cost = self.system.config.cost
        before_total = self.cumulative_seconds
        host_seconds, partition, xfer = self._route(batch.src, batch.dst)
        self.clock.advance("dynamic", host_seconds)
        self.clock.advance("dynamic", xfer)

        # Deletions change which nodes are hot: retract the batch from the
        # Misra-Gries summary so stale hubs don't stay pinned in the remap.
        self._decay_mg(batch)

        n1, n2 = self._n1, self._n2
        b = partition.counts
        m = self._core_sizes() // 2  # resident edges per core before the round
        copy_core = np.repeat(np.arange(b.size, dtype=np.int64), b)
        tombstones = np.unique(
            copy_core * n2 + self._canonical_keys(partition.src, partition.dst)
        )
        gone = tombstones[self._resident(tombstones)]
        pa = gone // n1  # core-node IDs of each dropped edge's endpoints
        core = pa // n1
        x, y = pa - core * n1, gone - pa * n1
        pb = core * n1 + y
        for i, first, last, lo, hi in self._touched(gone):
            keys = self._shards[i]
            u, v = pa[lo:hi], pb[lo:hi]
            marked = np.zeros(keys.size, dtype=bool)
            marked[np.searchsorted(keys, np.concatenate((gone[lo:hi], v * n1 + x[lo:hi])))] = True
            self._raw_counts[first:last] -= _delta_triangles(
                keys, marked, u, v, n1, first, last - first
            )
            keys = keys[~marked]
            self._shards[i] = keys
            firsts = u[np.concatenate(([True], u[1:] != u[:-1]))]
            closed = firsts[_forward_degrees(keys, firsts, n1) == 0]
            self._regions[first:last] -= np.bincount(closed // n1 - first, minlength=last - first)
        # An edge's replicas live on C cores; its logical removal counts on
        # its home core only, rather than dividing a replica tally by an
        # assumed factor.
        removed_edges = int((self._canonical_dpus(x, y) == core).sum())
        # Each core holding a sample runs a tombstone search + one compaction
        # pass over it.
        instr = (
            self.costs.binsearch_instr_per_step * binary_search_steps(m) * b
            + self.costs.insert_instr_per_edge * m
        )
        times = self._core_seconds(
            np.where(m > 0, b, 0), instr, 2 * m * self.costs.edge_bytes
        )
        self.clock.advance("dynamic", cost.launch_latency + float(times.max()))
        return self._finish_round(
            before_total,
            "delete",
            removed_edges=removed_edges,
            ignored_edges=batch.num_edges - removed_edges,
        )
