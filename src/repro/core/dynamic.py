"""Dynamic-graph triangle counting on the PIM system (paper Sec. 4.6, Fig. 7).

COO's advantage on dynamic graphs is that an update is an append: the host
routes only the *new* edges to the PIM cores, each core merges them into its
already-sorted sample, and the counting kernel processes just the new edges'
wedges.  This module drives that loop:

* :class:`DynamicPimCounter` keeps the coloring (the hash is drawn once, so
  node colors are stable across updates) and each core's resident sample.
* ``apply_update(batch)`` routes, transfers and merges the batch, charges the
  incremental kernel work (sort of the batch + one merge pass over the sample
  + per-new-edge binary search and merge intersection), and returns the new
  global count with the monochromatic correction re-applied.

Functional counts are obtained by recounting each core's updated sample with
the exact sparse-algebra routine and differencing — bit-identical to what an
incremental kernel computes, with the *time* charged for the incremental
work only (the recount is a simulator implementation detail; see DESIGN.md).
Reservoir and uniform sampling are disabled on this path, matching the
paper's dynamic experiment which counts exactly.
"""

from __future__ import annotations

import numpy as np

from ..coloring.partition import ColoringPartitioner, EdgePartition
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..graph.coo import COOGraph
from ..pimsim.config import PimSystemConfig
from ..pimsim.kernel import SimClock
from ..pimsim.system import PimSystem
from ..streaming.estimators import combine_dpu_counts
from ..streaming.misra_gries import MisraGries
from .ingest import DoubleBufferSchedule, iter_edge_batches, num_batches
from .kernel_tc_fast import KernelCosts, _count_forward_sparse
from .orient import orient_and_sort
from .region_index import build_region_index
from .remap import RemapTable, apply_remap

__all__ = ["DynamicUpdateResult", "DynamicPimCounter"]


class DynamicUpdateResult:
    """Outcome of one dynamic update round.

    ``new_edges`` counts edges *added* by an insert round and is 0 for
    deletions; ``removed_edges`` counts logical edges actually dropped by a
    delete round (tombstones for absent edges are not counted) and is 0 for
    inserts.
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

    def to_dict(self) -> dict:
        """JSON-ready view (service responses, NDJSON events, reports)."""
        return {
            "round_index": int(self.round_index),
            "op": self.op,
            "new_edges": int(self.new_edges),
            "removed_edges": int(self.removed_edges),
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


class DynamicPimCounter:
    """Incremental triangle counting over a stream of COO edge batches.

    Each update batch streams through one chunk loop: ``batch_edges`` sets
    the chunk size, and ``None`` makes the whole batch one chunk.  Counts do
    not depend on the chunk size; the simulated clock overlaps host routing
    with the cores' merges across chunks.

    Precondition on insertions: a batch must not contain edges already
    resident (COO appends would otherwise duplicate sample records and
    over-count, exactly as on the real system).  Deletions are idempotent —
    tombstones for absent edges are ignored.
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
        rngs = RngFactory(seed)
        self.partitioner = ColoringPartitioner(num_colors, rngs.stream("coloring"))
        if self.partitioner.num_dpus > self.system.config.total_dpus:
            raise ConfigurationError("not enough PIM cores for this color count")
        self.clock = SimClock()
        self.dpus = self.system.allocate(self.partitioner.num_dpus, self.clock)
        # Resident per-core samples, kept sorted/oriented between updates.
        self._src = [np.empty(0, dtype=np.int64) for _ in range(self.partitioner.num_dpus)]
        self._dst = [np.empty(0, dtype=np.int64) for _ in range(self.partitioner.num_dpus)]
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
        records = sum(int(src.size) for src in self._src)
        return records * self.costs.edge_bytes

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
        self.dpus.free(phase="dynamic")
        self._src = [np.empty(0, dtype=np.int64) for _ in self._src]
        self._dst = [np.empty(0, dtype=np.int64) for _ in self._dst]

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("DynamicPimCounter is closed")

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
    ) -> tuple[np.ndarray, np.ndarray, int, float]:
        """Merge one routed chunk into core ``d``'s resident sample.

        Charges the incremental kernel work (batch sort, one merge pass over
        the resident sample, per-new-edge search + intersection) and returns
        the oriented/sorted effective edge arrays, the effective node count,
        and the core's compute seconds for this chunk.  The functional recount
        is left to the caller, which runs it once after the core's last chunk.
        """
        dpu = self.dpus.dpus[d]
        dpu.reset_charges()
        old_m = self._src[d].size
        merged_src = np.concatenate([self._src[d], new_src])
        merged_dst = np.concatenate([self._dst[d], new_dst])
        self._src[d], self._dst[d] = merged_src, merged_dst
        b = int(new_src.size)
        if remap is not None:
            eff_src, eff_dst = apply_remap(remap, merged_src, merged_dst)
            eff_ns, eff_nd = apply_remap(remap, new_src, new_dst)
            eff_nodes = remap.remapped_num_nodes
        else:
            eff_src, eff_dst = merged_src, merged_dst
            eff_ns, eff_nd = new_src, new_dst
            eff_nodes = self.num_nodes
        u, v, _ = orient_and_sort(eff_src, eff_dst)
        if b:
            # Incremental kernel: sort the batch, one merge pass over the
            # resident sample, then per-new-edge search + intersection.
            sort_steps = b * max(1, int(np.ceil(np.log2(max(b, 2)))))
            merge_pass = old_m + b
            index = build_region_index(u)
            nu = np.minimum(eff_ns, eff_nd)
            nv = np.maximum(eff_ns, eff_nd)
            d_v = index.degrees_of(nv)
            _, ends_u = index.lookup_many(nu)
            # Forward neighbors of u strictly greater than v: edges are
            # (u, v)-sorted, so one key search finds the edge's own slot.
            keys = u * np.int64(eff_nodes + 1) + v
            pos = np.searchsorted(keys, nu * np.int64(eff_nodes + 1) + nv, side="right")
            suffix = np.maximum(ends_u - pos, 0)
            merge_steps = np.where(d_v > 0, suffix + d_v, 0).sum()
            remap_instr = (
                self.costs.remap_instr_per_edge * merge_pass if remap is not None else 0.0
            )
            instr = (
                remap_instr
                + self.costs.sort_instr_per_step * sort_steps
                + self.costs.insert_instr_per_edge * merge_pass
                + self.costs.edge_loop_instr * b
                + self.costs.binsearch_instr_per_step * index.search_steps() * b
                + self.costs.merge_instr_per_step * float(merge_steps)
            )
            dpu.charge_balanced(instr)
            # Merge (and remap) passes stream the sample through MRAM
            # (read + write) plus the counting phase's region reads.
            passes = 2 + (2 if remap is not None else 0)
            nbytes = (passes * merge_pass + int(merge_steps)) * self.costs.edge_bytes
            per = nbytes // dpu.config.num_tasklets
            for tk in range(dpu.config.num_tasklets):
                dpu.charge_mram_read(tk, int(per), requests=max(1, b // 8))
        return u, v, eff_nodes, dpu.compute_seconds()

    @staticmethod
    def _endpoint_stream(batch: COOGraph) -> np.ndarray:
        """Node stream of one batch: each edge contributes both endpoints."""
        stream = np.empty(2 * batch.num_edges, dtype=np.int64)
        stream[0::2] = batch.src
        stream[1::2] = batch.dst
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

    def _update_mg(self, batch: COOGraph) -> RemapTable | None:
        """Feed one update batch to the Misra-Gries summary; refresh the remap."""
        if self._mg is None:
            return None
        self._mg.update_array(self._endpoint_stream(batch))
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
        self._mg.decay_array(self._endpoint_stream(batch))
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
        self, before_total: float, op: str, added_edges: int = 0, removed_edges: int = 0
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
        )

    def apply_update(self, batch: COOGraph) -> DynamicUpdateResult:
        """Merge one batch of new edges and recount incrementally.

        Routes and merges the batch in ``batch_edges``-sized chunks (``None``:
        the whole batch is one chunk).  Per-core merged samples do not depend
        on the chunking (routing is stable within every chunk and chunks
        arrive in stream order), so neither does the count, while the
        simulated clock models host routing of chunk ``k+1`` overlapped with
        the cores merging chunk ``k``.  Each core is recounted once, right
        after its last chunk merges.
        """
        self._check_open()
        cost = self.system.config.cost
        before_total = self.cumulative_seconds
        remap = self._update_mg(batch)
        schedule = DoubleBufferSchedule()
        chunk = self.batch_edges or max(1, batch.num_edges)
        last = num_batches(batch.num_edges, chunk) - 1
        for k, s_chunk, d_chunk in iter_edge_batches(batch.src, batch.dst, chunk):
            h_k, part, xfer = self._route(s_chunk, d_chunk)
            times = []
            for d, (new_src, new_dst) in enumerate(part.per_dpu):
                u, v, eff_nodes, seconds = self._merge_and_charge(
                    d, new_src, new_dst, remap
                )
                if k == last:
                    self._raw_counts[d] = _count_forward_sparse(u, v, eff_nodes)
                times.append(seconds)
            d_k = xfer + cost.launch_latency + (max(times) if times else 0.0)
            self.clock.advance("dynamic", schedule.step(h_k, d_k))
        return self._finish_round(before_total, "insert", added_edges=batch.num_edges)

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
        ignored (idempotent deletes).
        """
        self._check_open()
        cost = self.system.config.cost
        before_total = self.cumulative_seconds
        host_seconds, partition, xfer = self._route(batch.src, batch.dst)
        self.clock.advance("dynamic", host_seconds)
        self.clock.advance("dynamic", xfer)

        # Deletions change which nodes are hot: retract the batch from the
        # Misra-Gries summary so stale hubs don't stay pinned in the remap.
        self._decay_mg(batch)

        removed_edges = 0  # logical edges, counted on each edge's home core
        times = []
        for d, (del_src, del_dst) in enumerate(partition.per_dpu):
            dpu = self.dpus.dpus[d]
            dpu.reset_charges()
            old_src, old_dst = self._src[d], self._dst[d]
            m = int(old_src.size)
            b = int(del_src.size)
            if b and m:
                n = np.int64(self.num_nodes + 1)
                old_keys = np.minimum(old_src, old_dst) * n + np.maximum(old_src, old_dst)
                del_keys = np.minimum(del_src, del_dst) * n + np.maximum(del_src, del_dst)
                keep = ~np.isin(old_keys, del_keys)
                dropped = ~keep
                if dropped.any():
                    # A record's replicas live on C cores; attribute the
                    # logical removal to the replica on its home core rather
                    # than dividing a physical-replica tally by an assumed
                    # factor (which drifts whenever a tombstone's replicas
                    # are not all resident).
                    home = self._canonical_dpus(old_src[dropped], old_dst[dropped])
                    removed_edges += int((home == d).sum())
                self._src[d] = old_src[keep]
                self._dst[d] = old_dst[keep]
                # Tombstone search + one compaction pass over the sample.
                log_m = max(1, int(np.ceil(np.log2(m + 1))))
                instr = (
                    self.costs.binsearch_instr_per_step * log_m * b
                    + self.costs.insert_instr_per_edge * m
                )
                dpu.charge_balanced(instr)
                nbytes = 2 * m * self.costs.edge_bytes
                per = nbytes // dpu.config.num_tasklets
                for tk in range(dpu.config.num_tasklets):
                    dpu.charge_mram_read(tk, int(per), requests=max(1, b // 8))
            u, v, _ = orient_and_sort(self._src[d], self._dst[d])
            self._raw_counts[d] = _count_forward_sparse(u, v, self.num_nodes)
            times.append(dpu.compute_seconds())
        self.clock.advance(
            "dynamic", cost.launch_latency + (max(times) if times else 0.0)
        )
        return self._finish_round(before_total, "delete", removed_edges=removed_edges)
