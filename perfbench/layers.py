"""Which library functions the traced run wraps, and how spans become metrics.

Every target is wrapped where the program looks it up: a function imported
by name into a module is patched in that module's namespace (``fast_count``
finds ``orient_and_sort`` in ``repro.core.kernel_tc_fast``, the dynamic
counter finds it in ``repro.core.dynamic``), a method on its class.  Spans
named ``op.*`` are the public calls a user makes; everything else is a layer.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from tracing import Span, Tracer, self_times


def _edges(args, kwargs, result) -> dict:
    return {"edges": int(args[0].size)}


def _fast_count(args, kwargs, result) -> dict:
    return {"instructions": float(result.per_tasklet_instr.sum())}


def _merge_and_charge(args, kwargs, result) -> dict:
    counter, core = args[0], args[1]
    return {"instructions": float(counter.dpus.dpus[core].run_stats().instructions)}


def _assign(args, kwargs, result) -> dict:
    return {
        "routed": int(result.counts.sum()),
        "cores": int((result.counts > 0).sum()),
    }


def _offer(args, kwargs, result) -> dict:
    return {"offered": int(args[1].size), "accepted": int(result)}


def _frame(args, kwargs, result) -> dict:
    msg = args[0]
    return {
        "op": msg.get("op"),
        "bytes": len(result),
        "edges": len(msg.get("src", ())),
    }


#: (module, class or None, attribute, span name, note)
LIBRARY_TARGETS = [
    ("repro.core.api", "PimTriangleCounter", "count", "op.count", None),
    ("repro.core.dynamic", "DynamicPimCounter", "apply_update", "op.insert", None),
    ("repro.core.dynamic", "DynamicPimCounter", "apply_deletion", "op.delete", None),
    ("repro.core.kernel_tc_fast", None, "_count_forward_sparse", "kernel.count", _edges),
    ("repro.core.dynamic", None, "_count_forward_sparse", "kernel.count", _edges),
    ("repro.core.kernel_tc_vec", None, "count_forward_searchsorted",
     "kernel.count_fastvec", _edges),
    ("repro.core.kernel_tc_fast", None, "orient_and_sort", "kernel.orient_sort", _edges),
    ("repro.core.dynamic", None, "orient_and_sort", "kernel.orient_sort", _edges),
    ("repro.core.kernel_tc_fast", None, "build_region_index", "kernel.region_index", None),
    ("repro.core.dynamic", None, "build_region_index", "kernel.region_index", None),
    ("repro.core.kernel_tc_fast", None, "fast_count", "kernel.charge", _fast_count),
    ("repro.core.dynamic", "DynamicPimCounter", "_merge_and_charge", "kernel.charge",
     _merge_and_charge),
    ("repro.core.host", None, "uniform_sample", "streaming.uniform", None),
    ("repro.core.host", None, "uniform_keep_mask", "streaming.uniform", None),
    ("repro.streaming.misra_gries", "MisraGries", "update_array",
     "streaming.misra_gries", None),
    ("repro.streaming.misra_gries", "MisraGries", "merge", "streaming.misra_gries", None),
    ("repro.streaming.reservoir", "EdgeReservoir", "offer_batch",
     "streaming.reservoir", _offer),
    ("repro.coloring.partition", "ColoringPartitioner", "assign_arrays",
     "coloring.assign", _assign),
    ("repro.core.host", None, "combine_dpu_counts", "streaming.correction", None),
    ("repro.core.dynamic", None, "combine_dpu_counts", "streaming.correction", None),
    ("repro.observability.imbalance", None, "collect_ledger", "observability.ledger", None),
    ("repro.pimsim.system", "DpuSet", "launch", "pimsim.launch", None),
    ("repro.pimsim.system", "DpuSet", "gather", "pimsim.gather", None),
    ("repro.pimsim.executor", "SerialExecutor", "map_dpus", "pimsim.map_dpus", None),
]

#: The service client's frame encoder, wrapped in the client process.
CLIENT_TARGETS = [
    ("repro.service.protocol", None, "encode_frame", "service.client_encode", _frame),
]

#: Layer spans reported as seconds of self time per pass.  BENCHMARK.json's
#: per-layer list carries the layer times every workload runs, plus counts
#: and ratios; the other layer times are printed as report lines only,
#: because each is zero on some workload.
LAYER_SPANS = sorted({t[3] for t in LIBRARY_TARGETS if not t[3].startswith("op.")})


def install(tracer: Tracer, targets) -> None:
    for module_name, cls, attr, name, note in targets:
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, note)


def _top_op(span: Span, by_key: dict) -> Span | None:
    """The outermost ``op.*`` span enclosing ``span`` (itself included)."""
    found = None
    cur: Span | None = span
    while cur is not None:
        if cur.name.startswith("op."):
            found = cur
        cur = by_key.get((cur.run, cur.parent)) if cur.parent is not None else None
    return found


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass layer seconds, counts and ratios from library spans.

    Layer seconds are self times, so the layers plus ``unattributed_s`` (the
    self time of the public ``op.*`` calls) add up to the traced wall time.
    Only spans inside an ``op.*`` call are counted.
    """
    by_key = {(s.run, s.id): s for s in spans}
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    totals: dict[str, float] = defaultdict(float)
    deletes: dict[tuple[str, int], list[int]] = {}
    for s in spans:
        op = _top_op(s, by_key)
        if op is None:
            continue
        seconds[s.name] += own[(s.run, s.id)]
        a = s.attrs
        if s.name == "kernel.count":
            totals["edges_counted"] += a["edges"]
        elif s.name == "kernel.charge":
            totals["instructions"] += a["instructions"]
        elif s.name == "streaming.reservoir":
            totals["offered"] += a["offered"]
            totals["accepted"] += a["accepted"]
        if op.name in ("op.insert", "op.delete"):
            if s.name == "kernel.orient_sort":
                totals["resorted"] += a["edges"]
            elif s.name == "coloring.assign":
                totals["dyn_routed"] += a["routed"]
        if s.name == "coloring.assign":
            totals["routed"] += a["routed"]
        if op.name == "op.delete":
            tally = deletes.setdefault((op.run, op.id), [0, 0])
            if s.name == "kernel.count":
                tally[0] += 1
            elif s.name == "coloring.assign":
                tally[1] += a["cores"]
    out = {f"{name}_s": seconds[name] / passes for name in LAYER_SPANS}
    out["unattributed_s"] = sum(v for k, v in seconds.items() if k.startswith("op.")) / passes
    out["kernel.edges_counted"] = totals["edges_counted"] / passes
    out["kernel.instructions"] = totals["instructions"] / passes
    out["pimsim.edges_routed"] = totals["routed"] / passes
    out["streaming.reservoir_kept_ratio"] = (
        totals["accepted"] / totals["offered"] if totals["offered"] else 1.0
    )
    out["dynamic.edges_resorted"] = totals["resorted"] / passes
    out["dynamic.resort_ratio"] = (
        totals["resorted"] / totals["dyn_routed"] if totals["dyn_routed"] else 0.0
    )
    recounted = sum(t[0] for t in deletes.values())
    tombstoned = sum(t[1] for t in deletes.values())
    out["dynamic.cores_recounted_ratio"] = recounted / tombstoned if tombstoned else 0.0
    out["service.wire_bytes_per_edge"] = 0.0  # the service workload overrides this
    return out
