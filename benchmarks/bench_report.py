#!/usr/bin/env python
"""Telemetry benchmark harness: the fig3-style sweep as a perf trajectory.

Runs the paper's Figure-3 sweep (every dataset analogue, ordered by max
degree, exact counting at the tier's default ``C``) with a fresh telemetry
recorder per run and writes ``BENCH_telemetry.json`` — one stable-schema
record per graph with the phase ledger, throughput, load balance, the
deterministic metrics snapshot, and the span tree (simulated + wall clocks).

This file is the baseline future PRs diff against: a hot-path optimisation
should move ``wall_seconds`` / span wall times while leaving every simulated
number and metric snapshot bit-identical (unless it intentionally changes
the cost model, in which case the diff documents exactly what moved).

A second, optional artifact compares many-chunk streaming ingestion against
one chunk spanning the input (``batch_edges=None``, the ``*_monolithic``
columns): ``--ingest-out BENCH_ingest.json`` re-runs every graph with
``batch_edges`` chunking and records the count-parity, the peak routed-buffer
bytes (bounded at two chunk windows), and the simulated seconds the
double-buffered overlap hides.

Usage::

    python benchmarks/bench_report.py                       # small tier
    python benchmarks/bench_report.py --tier tiny --out BENCH_telemetry.json
    python benchmarks/bench_report.py --tier tiny --ingest-out BENCH_ingest.json

Not a pytest-benchmark module on purpose: the output is a committed-schema
JSON artifact, not a timing assertion (CI uploads it as a workflow artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH_SCHEMA = "repro-bench-telemetry/1"
INGEST_SCHEMA = "repro-bench-ingest/1"
IMBALANCE_SCHEMA = "repro-bench-imbalance/2"
KERNEL_SCHEMA = "repro-bench-kernel/1"


def run_sweep(
    tier: str,
    seed: int,
    num_colors: int | None = None,
    flamegraph_dir: str | None = None,
) -> dict:
    """Execute the sweep and return the ``BENCH_telemetry.json`` document.

    With ``flamegraph_dir`` set, also write one simulated-clock flamegraph
    SVG per graph into that directory (created if missing) — observation
    only, rendered from the span tree after each run finishes.
    """
    from repro.core.api import PimTriangleCounter
    from repro.experiments.common import DEFAULT_COLORS, paper_graph_order_by_max_degree
    from repro.graph.datasets import get_dataset
    from repro.graph.stats import degree_stats
    from repro.telemetry import Telemetry, write_flamegraph

    colors = num_colors or DEFAULT_COLORS[tier]
    if flamegraph_dir:
        os.makedirs(flamegraph_dir, exist_ok=True)
    runs = []
    for name in paper_graph_order_by_max_degree(tier):
        graph = get_dataset(name, tier)
        max_degree, _ = degree_stats(graph)
        telemetry = Telemetry()
        counter = PimTriangleCounter(num_colors=colors, seed=seed, telemetry=telemetry)
        wall_start = time.perf_counter()
        result = counter.count(graph)
        wall_seconds = time.perf_counter() - wall_start
        if flamegraph_dir:
            write_flamegraph(
                os.path.join(flamegraph_dir, f"{name}_{tier}.svg"),
                telemetry,
                axis="sim",
            )
        runs.append(
            {
                "graph": name,
                "num_nodes": int(graph.num_nodes),
                "num_edges": int(graph.num_edges),
                "max_degree": int(max_degree),
                "count": result.count,
                "phases": {k: float(v) for k, v in result.clock.phases.items()},
                "throughput_edges_per_ms": result.throughput_edges_per_ms(),
                "load_balance": result.load_balance(),
                "wall_seconds": wall_seconds,
                "metrics": telemetry.metrics.snapshot(),
                "spans": telemetry.to_dict()["spans"],
            }
        )
    return {
        "schema": BENCH_SCHEMA,
        "tier": tier,
        "seed": seed,
        "colors": colors,
        "runs": runs,
    }


def run_ingest_sweep(
    tier: str, seed: int, num_colors: int | None = None, batch_edges: int | None = None
) -> dict:
    """Batched-vs-one-chunk ingest comparison -> ``BENCH_ingest.json``.

    One record per graph: both runs' counts (must agree), sample-creation and
    total simulated seconds, peak routed-buffer bytes, chunk count, and the
    overlap savings counter.  The batch size defaults to a quarter of the
    graph's edges (at least 1) so every tier exercises multi-chunk runs.
    """
    from repro.core.api import PimTriangleCounter
    from repro.experiments.common import DEFAULT_COLORS, paper_graph_order_by_max_degree
    from repro.graph.datasets import get_dataset
    from repro.telemetry import Telemetry

    colors = num_colors or DEFAULT_COLORS[tier]
    runs = []
    for name in paper_graph_order_by_max_degree(tier):
        graph = get_dataset(name, tier)
        batch = batch_edges or max(1, graph.num_edges // 4)
        mono = PimTriangleCounter(num_colors=colors, seed=seed).count(graph)
        telemetry = Telemetry()
        batched = PimTriangleCounter(
            num_colors=colors, seed=seed, batch_edges=batch, telemetry=telemetry
        ).count(graph)
        snap = telemetry.metrics.snapshot()
        runs.append(
            {
                "graph": name,
                "num_edges": int(graph.num_edges),
                "batch_edges": int(batch),
                "count_monolithic": mono.count,
                "count_batched": batched.count,
                "counts_match": batched.count == mono.count,
                "ingest_batches": int(batched.meta["ingest_batches"]),
                "peak_routed_bytes_monolithic": int(mono.meta["peak_routed_bytes"]),
                "peak_routed_bytes_batched": int(batched.meta["peak_routed_bytes"]),
                "sample_seconds_monolithic": float(mono.sample_creation_seconds),
                "sample_seconds_batched": float(batched.sample_creation_seconds),
                "total_seconds_monolithic": float(mono.total_seconds),
                "total_seconds_batched": float(batched.total_seconds),
                "overlap_saved_seconds": float(
                    snap["host.ingest.overlap_saved_seconds"]["value"]
                ),
            }
        )
    return {
        "schema": INGEST_SCHEMA,
        "tier": tier,
        "seed": seed,
        "colors": colors,
        "runs": runs,
    }


def run_imbalance_sweep(
    tier: str,
    seed: int,
    num_colors: int | None = None,
    mg: tuple[int, int] = (256, 16),
) -> dict:
    """Per-DPU skew comparison across balancing strategies -> ``BENCH_imbalance.json``.

    One record per graph: the baseline (hash-coloring) run's skew statistics
    (count-phase seconds and merge steps, the dimensions the paper's
    straggler story is about), its top straggler attributed to a color
    triplet and heavy node, then the same run with Misra-Gries remapping
    enabled, then the same run with the degree-aware partitioner
    (``partitioner="degree"``), and the resulting max/mean improvement
    factors.  Counts must agree on every side — remapping is a node-ID
    bijection and any partition-coloring is exact under the monochromatic
    correction, so neither ever changes the answer.
    """
    from repro.core.api import PimTriangleCounter
    from repro.experiments.common import DEFAULT_COLORS, paper_graph_order_by_max_degree
    from repro.graph.datasets import get_dataset
    from repro.graph.stats import degree_stats

    mg_k, mg_t = mg
    colors = num_colors or DEFAULT_COLORS[tier]
    runs = []
    for name in paper_graph_order_by_max_degree(tier):
        graph = get_dataset(name, tier)
        max_degree, _ = degree_stats(graph)
        base = PimTriangleCounter(num_colors=colors, seed=seed).count(graph)
        remapped = PimTriangleCounter(
            num_colors=colors, seed=seed, misra_gries_k=mg_k, misra_gries_t=mg_t
        ).count(graph)
        degreed = PimTriangleCounter(
            num_colors=colors, seed=seed, partitioner="degree"
        ).count(graph)

        def _side(result):
            ledger = result.imbalance
            top = ledger.stragglers(metric="count_seconds", k=1)
            straggler = top[0] if top else None
            return {
                "count_seconds": ledger.skew("count_seconds").to_dict(),
                "merge_steps": ledger.skew("merge_steps").to_dict(),
                "edges_routed": ledger.skew("edges_routed").to_dict(),
                "top_straggler": straggler,
            }

        base_ratio = base.imbalance.skew("count_seconds").max_over_mean
        mg_ratio = remapped.imbalance.skew("count_seconds").max_over_mean
        degree_ratio = degreed.imbalance.skew("count_seconds").max_over_mean
        runs.append(
            {
                "graph": name,
                "num_edges": int(graph.num_edges),
                "max_degree": int(max_degree),
                "count": base.count,
                "counts_match": remapped.count == base.count,
                "counts_match_degree": degreed.count == base.count,
                "misra_gries_k": mg_k,
                "misra_gries_t": mg_t,
                "baseline": _side(base),
                "misra_gries": _side(remapped),
                "degree": _side(degreed),
                "skew_improvement_max_over_mean": (
                    base_ratio / mg_ratio if mg_ratio else 1.0
                ),
                "skew_improvement_degree": (
                    base_ratio / degree_ratio if degree_ratio else 1.0
                ),
            }
        )
    return {
        "schema": IMBALANCE_SCHEMA,
        "tier": tier,
        "seed": seed,
        "colors": colors,
        "runs": runs,
    }


def run_kernel_sweep(tier: str, seed: int, num_colors: int | None = None) -> dict:
    """``fastvec``-vs-``fast`` kernel comparison -> ``BENCH_kernel.json``.

    One record per graph: both variants' counts (must agree), the simulated
    phase ledger and kernel charge aggregate of the ``merge`` run, a
    ``simulated_identical`` flag (1.0 iff *every* simulated quantity —
    phases, per-DPU counts, instruction/DMA charges — is bit-identical
    between the variants), and both wall-clocks.  bench_diff hard-gates the
    simulated side to zero drift and treats the wall-clock columns as
    warn-only: the vectorized kernel is a wall-clock optimization and must
    never move a simulated number.
    """
    import numpy as np

    from repro.core.api import PimTriangleCounter
    from repro.experiments.common import DEFAULT_COLORS, paper_graph_order_by_max_degree
    from repro.graph.datasets import get_dataset

    colors = num_colors or DEFAULT_COLORS[tier]
    runs = []
    for name in paper_graph_order_by_max_degree(tier):
        graph = get_dataset(name, tier)

        def _run(variant: str):
            counter = PimTriangleCounter(
                num_colors=colors, seed=seed, kernel_variant=variant
            )
            start = time.perf_counter()
            result = counter.count(graph)
            return result, time.perf_counter() - start

        fast, fast_s = _run("merge")
        fastvec, fastvec_s = _run("fastvec")
        k_fast, k_vec = fast.kernel, fastvec.kernel
        simulated_identical = (
            dict(fast.clock.phases) == dict(fastvec.clock.phases)
            and np.array_equal(fast.per_dpu_counts, fastvec.per_dpu_counts)
            and (k_fast.instructions, k_fast.dma_requests, k_fast.dma_bytes,
                 k_fast.max_dpu_compute_seconds)
            == (k_vec.instructions, k_vec.dma_requests, k_vec.dma_bytes,
                k_vec.max_dpu_compute_seconds)
        )
        runs.append(
            {
                "graph": name,
                "num_edges": int(graph.num_edges),
                "count": fast.count,
                "counts_match": fastvec.count == fast.count,
                "simulated_identical": float(simulated_identical),
                "phases": {k: float(v) for k, v in fast.clock.phases.items()},
                "kernel_instructions": float(k_fast.instructions),
                "kernel_dma_requests": float(k_fast.dma_requests),
                "kernel_dma_bytes": float(k_fast.dma_bytes),
                "wall_seconds_fast": fast_s,
                "wall_seconds_fastvec": fastvec_s,
                "speedup_fastvec": fast_s / fastvec_s if fastvec_s > 0 else 1.0,
            }
        )
    return {
        "schema": KERNEL_SCHEMA,
        "tier": tier,
        "seed": seed,
        "colors": colors,
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fig3-style telemetry sweep -> BENCH_telemetry.json"
    )
    parser.add_argument("--tier", default="small", choices=("tiny", "small", "bench"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--colors", type=int, default=None,
                        help="C for every run (default: the tier's default)")
    parser.add_argument("--out", default="BENCH_telemetry.json")
    parser.add_argument("--ingest-out", default=None, metavar="PATH",
                        help="also write the batched-vs-monolithic ingest "
                             "comparison artifact (BENCH_ingest.json)")
    parser.add_argument("--batch-edges", type=int, default=None, metavar="B",
                        help="chunk size for --ingest-out runs "
                             "(default: |E| / 4 per graph)")
    parser.add_argument("--imbalance-out", default=None, metavar="PATH",
                        help="also write the per-DPU skew comparison "
                             "(baseline vs Misra-Gries remap vs degree "
                             "partitioner) artifact (BENCH_imbalance.json)")
    parser.add_argument("--misra-gries", default="256:16", metavar="K:t",
                        help="summary size and remap count for the "
                             "--imbalance-out remapped runs (default 256:16)")
    parser.add_argument("--kernel-out", default=None, metavar="PATH",
                        help="also write the fastvec-vs-fast kernel "
                             "comparison artifact (BENCH_kernel.json): "
                             "wall-clock of both variants, simulated "
                             "metrics gated to zero drift")
    parser.add_argument("--flamegraph-dir", default=None, metavar="DIR",
                        help="also write one simulated-clock flamegraph SVG "
                             "per swept graph into DIR (created if missing)")
    args = parser.parse_args(argv)

    document = run_sweep(
        args.tier, args.seed, args.colors, flamegraph_dir=args.flamegraph_dir
    )
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    total_wall = sum(r["wall_seconds"] for r in document["runs"])
    print(
        f"{args.out}: {len(document['runs'])} runs (tier={args.tier}, "
        f"C={document['colors']}), {total_wall:.2f}s wall total"
    )
    if args.flamegraph_dir:
        print(
            f"{args.flamegraph_dir}/: {len(document['runs'])} flamegraph SVGs"
        )
    if args.ingest_out:
        ingest = run_ingest_sweep(args.tier, args.seed, args.colors, args.batch_edges)
        with open(args.ingest_out, "w") as fh:
            json.dump(ingest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        mismatches = [r["graph"] for r in ingest["runs"] if not r["counts_match"]]
        print(
            f"{args.ingest_out}: {len(ingest['runs'])} batched-vs-monolithic "
            f"comparisons, {len(mismatches)} count mismatches"
        )
        if mismatches:
            print(f"MISMATCHED GRAPHS: {', '.join(mismatches)}", file=sys.stderr)
            return 1
    if args.imbalance_out:
        mg_k, mg_t = (int(x) for x in args.misra_gries.split(":"))
        imbalance = run_imbalance_sweep(
            args.tier, args.seed, args.colors, mg=(mg_k, mg_t)
        )
        with open(args.imbalance_out, "w") as fh:
            json.dump(imbalance, fh, indent=2, sort_keys=True)
            fh.write("\n")
        mismatches = [
            r["graph"]
            for r in imbalance["runs"]
            if not (r["counts_match"] and r["counts_match_degree"])
        ]
        improvements = [
            f"{r['graph']} MG x{r['skew_improvement_max_over_mean']:.2f} "
            f"deg x{r['skew_improvement_degree']:.3f}"
            for r in imbalance["runs"]
        ]
        print(
            f"{args.imbalance_out}: {len(imbalance['runs'])} skew comparisons "
            f"(MG {mg_k}:{mg_t}) — max/mean improvement {', '.join(improvements)}"
        )
        if mismatches:
            print(f"MISMATCHED GRAPHS: {', '.join(mismatches)}", file=sys.stderr)
            return 1
    if args.kernel_out:
        kernel = run_kernel_sweep(args.tier, args.seed, args.colors)
        with open(args.kernel_out, "w") as fh:
            json.dump(kernel, fh, indent=2, sort_keys=True)
            fh.write("\n")
        bad = [
            r["graph"]
            for r in kernel["runs"]
            if not (r["counts_match"] and r["simulated_identical"] == 1.0)
        ]
        speedups = [
            f"{r['graph']} x{r['speedup_fastvec']:.2f}" for r in kernel["runs"]
        ]
        print(
            f"{args.kernel_out}: {len(kernel['runs'])} fastvec-vs-fast "
            f"comparisons — {', '.join(speedups)}"
        )
        if bad:
            print(f"SIMULATED DRIFT: {', '.join(bad)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
