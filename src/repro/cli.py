"""``repro-count`` — count triangles of an edge-list file on the simulated PIM system.

The adoption path for a downstream user: point the tool at a COO text file
(or SuiteSparse ``.mtx``, or a built-in dataset analogue) and get the count,
the paper's phase breakdown, and optionally approximate/local modes — all the
paper's knobs as flags.

Examples::

    repro-count graph.el
    repro-count graph.mtx --colors 8 --misra-gries 1024:64
    repro-count dataset:orkut --tier small --uniform-p 0.1 --trials 5
    repro-count dataset:wikipedia --local --top 10
    repro-count dataset:orkut --colors 8 --executor process --jobs 4
    repro-count graph.el --profile --metrics-out report.json --chrome-trace t.json
    repro-count --fuzz 25 --seed 7     # seeded correctness fuzzing, no graph
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .common.units import fmt_time
from .core.api import PimTriangleCounter
from .pimsim.config import EXECUTOR_NAMES
from .graph.coo import COOGraph
from .graph.datasets import DATASET_NAMES, get_dataset
from .graph.io import read_edge_list, read_matrix_market
from .telemetry import Telemetry

__all__ = ["main"]


def _load_graph(spec: str, tier: str) -> COOGraph:
    if spec.startswith("dataset:"):
        name = spec.split(":", 1)[1]
        return get_dataset(name, tier)
    if spec.endswith(".mtx"):
        graph = read_matrix_market(spec).canonicalize()
    elif spec.endswith(".npz"):
        from .graph.io import load_npz

        graph = load_npz(spec).canonicalize()
    else:
        graph = read_edge_list(spec).canonicalize()
    # Public COO files often have sparse node-ID spaces (the paper's V1r has
    # 214M IDs); compact them so pipeline memory scales with real nodes.
    if graph.num_nodes > 4 * max(graph.num_edges, 1):
        graph, _ = graph.compact()
    return graph


def _parse_mg(value: str) -> tuple[int, int]:
    try:
        k, t = value.split(":")
        return int(k), int(t)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected K:t, e.g. 1024:64") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-count",
        description="Triangle counting on the simulated UPMEM PIM system.",
    )
    parser.add_argument(
        "graph",
        nargs="?",
        default=None,
        help=(
            "edge-list file (.el/.txt), SuiteSparse .mtx, cached .npz, or "
            f"dataset:<name> with name in {{{', '.join(DATASET_NAMES)}}}; "
            "optional with --fuzz/--verify"
        ),
    )
    parser.add_argument("--tier", default="small", choices=("tiny", "small", "bench"),
                        help="size tier for dataset: specs")
    parser.add_argument("--colors", type=int, default=8, help="C; PIM cores = binom(C+2,3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--uniform-p", type=float, default=1.0,
                        help="keep-probability of host-level edge sampling (Sec. 3.2)")
    parser.add_argument("--reservoir", type=int, default=None, metavar="M",
                        help="per-core reservoir capacity in edges (Sec. 3.3)")
    parser.add_argument("--misra-gries", type=_parse_mg, default=(0, 0), metavar="K:t",
                        help="heavy-hitter summary size and remap count (Sec. 3.5)")
    parser.add_argument("--batch-edges", type=int, default=None, metavar="B",
                        help="streaming-ingest chunk size in input edges: the "
                             "host samples/routes/transfers the stream in "
                             "B-edge chunks (bounded memory, double-buffered "
                             "overlap with DPU inserts); default: one chunk")
    parser.add_argument("--partitioner", default="hash",
                        choices=("hash", "degree", "auto"),
                        help="edge-partitioning strategy: 'hash' (universal "
                             "hash coloring, the paper's), 'degree' "
                             "(degree-based hub placement), or 'auto' (pick "
                             "strategy, C and Misra-Gries from graph stats; "
                             "see docs/partitioning.md); counts are identical "
                             "across strategies (default: hash)")
    parser.add_argument("--kernel", default="merge",
                        choices=("merge", "fastvec", "probe"),
                        help="counting kernel variant: 'merge' (the paper's "
                             "Sec. 3.4 merge-intersection), 'fastvec' (same "
                             "charges, numpy searchsorted hot path — changes "
                             "wall-clock only), or 'probe' (binary-search "
                             "wedge checks, a different cost model) "
                             "(default: merge)")
    parser.add_argument("--local", action="store_true",
                        help="also compute per-node (local) triangle counts")
    parser.add_argument("--top", type=int, default=5,
                        help="with --local: how many top nodes to print")
    parser.add_argument("--trials", type=int, default=1,
                        help="repeat with different seeds and report mean/std")
    parser.add_argument("--executor", default=None, choices=EXECUTOR_NAMES,
                        help="host engine for the per-DPU kernel runs; changes "
                             "wall-clock only, never simulated time "
                             "(default: serial)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker count for --executor thread/process "
                             "(default: all cores)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a machine-readable RunReport JSON "
                             "(result + span tree + metrics; see "
                             "docs/observability.md for the schema); "
                             "PATH ending in .csv writes the metrics as CSV")
    parser.add_argument("--chrome-trace", default=None, metavar="PATH",
                        help="write a chrome://tracing / Perfetto trace of "
                             "the run (wall-clock span track + simulated "
                             "operation track)")
    parser.add_argument("--profile", action="store_true",
                        help="print a sorted self-time table per span "
                             "(simulated and wall clocks) plus the per-DPU "
                             "straggler top-k")
    parser.add_argument("--imbalance", action="store_true",
                        help="print the per-DPU load-imbalance report: skew "
                             "statistics per work dimension and the top "
                             "straggler cores attributed to their color "
                             "triplet and heaviest sampled node "
                             "(see docs/observability.md)")
    parser.add_argument("--imbalance-svg", default=None, metavar="PATH",
                        help="write the per-DPU work-ledger heatmap as SVG "
                             "(one row per metric, one column per core)")
    parser.add_argument("--log-json", default=None, metavar="PATH",
                        help="write an NDJSON structured event log (run/phase "
                             "start+end, heartbeat batch progress, final "
                             "estimate, terminal run_end with exit status); "
                             "every line carries the run_id also stamped "
                             "into the --metrics-out report; tail it live "
                             "with repro-watch")
    parser.add_argument("--history", default=None, metavar="DB",
                        help="append this run's RunReport to an sqlite "
                             "run-history store (created on first use); "
                             "query it with repro-history and gate on drift "
                             "with repro-history trend / bench_diff --history")
    parser.add_argument("--flamegraph", default=None, metavar="PATH",
                        help="write a flamegraph of the span tree; PATH "
                             "ending in .svg gets a standalone SVG, anything "
                             "else collapsed-stack text for external "
                             "flamegraph.pl-style tooling")
    parser.add_argument("--flamegraph-axis", default="sim", choices=("sim", "wall"),
                        help="clock the flamegraph widths measure: the "
                             "deterministic simulated clock (default) or the "
                             "host wall clock")
    parser.add_argument("--serve-url", default=None, metavar="HOST:PORT",
                        help="count via a running repro-serve instance "
                             "instead of in-process: open a session, stream "
                             "the graph as insert batches, print the exact "
                             "count, close the session (see docs/service.md)")
    parser.add_argument("--session", default=None, metavar="NAME",
                        help="with --serve-url: session name to open "
                             "(default: derived from the graph name)")
    parser.add_argument("--request-timeout", type=float, default=None,
                        metavar="S",
                        help="with --serve-url: per-request deadline, "
                             "distinct from the 60s connect timeout (a "
                             "count that drains a deep queue may need more)")
    parser.add_argument("--verify", action="store_true",
                        help="run the library's invariant self-checks first")
    parser.add_argument("--fuzz", type=int, default=None, metavar="N",
                        help="run N seeded fuzz iterations of the correctness "
                             "harness (differential grid + metamorphic "
                             "relations; see docs/testing.md) and exit; "
                             "iteration seeds are --seed .. --seed+N-1")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.fuzz is not None:
        from .testing.fuzz import run_fuzz

        report = run_fuzz(args.fuzz, seed=args.seed, verbose=True)
        print(report.summary())
        return 0 if report.ok else 1
    if args.verify:
        from .verify import verify_installation

        checks = verify_installation(seed=args.seed, verbose=True)
        if not all(c.passed for c in checks):
            print("self-verification FAILED")
            return 1
        if args.graph is None:
            return 0
    if args.graph is None:
        parser.error("a graph argument is required unless --fuzz or --verify is given")
    graph = _load_graph(args.graph, args.tier)
    mg_k, mg_t = args.misra_gries
    print(f"graph: {graph.name} — {graph.num_nodes} nodes, {graph.num_edges} edges")
    if args.serve_url:
        return _count_via_service(args, graph, mg_k, mg_t)

    telemetry_wanted = bool(
        args.metrics_out or args.chrome_trace or args.profile or args.log_json
        or args.history or args.flamegraph
    )
    logger = None
    if args.log_json:
        from .observability import NdjsonLogger

        logger = NdjsonLogger(args.log_json)
        logger.event(
            "run_start",
            graph=graph.name,
            num_nodes=int(graph.num_nodes),
            num_edges=int(graph.num_edges),
            colors=args.colors,
            seed=args.seed,
            uniform_p=args.uniform_p,
            trials=args.trials,
        )
    estimates = []
    result = None
    try:
        for trial in range(args.trials):
            # A fresh recorder per trial: reports describe the *last* run
            # rather than an accumulation over trials.
            telemetry = Telemetry(detail=True) if telemetry_wanted else None
            if telemetry is not None and logger is not None:
                telemetry.log_sink = logger.span_hook
                telemetry.event_sink = logger.event
            counter = PimTriangleCounter(
                num_colors=args.colors,
                uniform_p=args.uniform_p,
                reservoir_capacity=args.reservoir,
                misra_gries_k=mg_k,
                misra_gries_t=mg_t,
                seed=args.seed + trial,
                batch_edges=args.batch_edges,
                partitioner=args.partitioner,
                kernel_variant=args.kernel,
                executor=args.executor,
                jobs=args.jobs,
                telemetry=telemetry,
            )
            result = counter.count_local(graph) if args.local else counter.count(graph)
            estimates.append(result.estimate)
            if logger is not None:
                logger.event(
                    "estimate",
                    trial=trial,
                    estimate=float(result.estimate),
                    exact=bool(result.is_exact),
                    phases={k: float(v) for k, v in result.clock.phases.items()},
                )
    except BaseException as exc:
        # Join-complete streams: the terminal run_end goes out even when the
        # pipeline raises, so a tailing repro-watch (or the history ingester)
        # can tell a crash from a run still in flight.
        if logger is not None:
            logger.event(
                "run_end",
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )
            logger.close()
        raise

    assert result is not None
    kind = "exact" if result.is_exact else "estimated"
    if args.trials > 1:
        mean = float(np.mean(estimates))
        std = float(np.std(estimates))
        print(f"triangles ({kind}, {args.trials} trials): {mean:.1f} +/- {std:.1f}")
    else:
        print(f"triangles ({kind}): {result.estimate:.0f}")
    print(
        f"PIM cores: {result.num_dpus}  |  setup {fmt_time(result.setup_seconds)}  "
        f"sample {fmt_time(result.sample_creation_seconds)}  "
        f"count {fmt_time(result.triangle_count_seconds)}"
    )
    print(f"throughput: {result.throughput_edges_per_ms():,.0f} edges/ms (excl. setup)")
    if result.meta.get("autotune"):
        auto = result.meta["autotune"]
        print(
            f"auto-tune: strategy={auto['strategy']} C={auto['num_colors']} "
            f"MG=({auto['misra_gries_k']},{auto['misra_gries_t']}) "
            f"(degree skew {auto['degree_skew']:.1f})"
        )
    if args.local:
        print(f"top {args.top} nodes by triangle participation:")
        for node, value in result.top_nodes(args.top):
            print(f"  node {node}: {value:.0f}")
    if args.imbalance or args.imbalance_svg:
        _emit_imbalance(args, result)
    if telemetry_wanted:
        _emit_telemetry(args, graph, result, logger)
    if logger is not None:
        logger.event("run_end", status="ok", estimate=float(result.estimate))
        logger.close()
        print(f"NDJSON event log written to {args.log_json} (run_id {logger.run_id})")
    return 0


def _count_via_service(args, graph: COOGraph, mg_k: int, mg_t: int) -> int:
    """The ``--serve-url`` smoke path: one session round trip on a server."""
    import re

    from .service.client import ServiceClient, ServiceError

    name = args.session or re.sub(r"[^A-Za-z0-9._-]", "-", graph.name).lstrip("._-")
    if not name:
        name = "cli"
    batch_edges = args.batch_edges or 10_000
    deadline = args.request_timeout
    try:
        with ServiceClient(args.serve_url) as client:
            opened = client.open_session(
                name,
                num_nodes=graph.num_nodes,
                num_colors=args.colors,
                seed=args.seed,
                misra_gries_k=mg_k,
                misra_gries_t=mg_t,
            )
            try:
                client.insert_graph(
                    name, graph, batch_edges=batch_edges, timeout=deadline
                )
                view = client.count(name, timeout=deadline)
                stats = client.stats(name, timeout=deadline)
            finally:
                try:
                    client.close_session(name)
                except ServiceError:
                    pass  # already reaped/closed; the count above still stands
    except ServiceError as exc:
        if exc.code != "connection_lost":
            raise
        print(
            f"error: {exc} (op={exc.op!r}, trace_id={exc.trace_id})",
            file=sys.stderr,
        )
        return 1
    print(
        f"triangles (exact, via {args.serve_url} session {name!r}): "
        f"{view['triangles']}"
    )
    print(
        f"PIM cores: {opened['num_dpus']}  |  rounds {view['rounds']}  "
        f"sim {fmt_time(view['sim_seconds'])}  "
        f"peak routed {stats['peak_routed_bytes']:,} B"
    )
    if opened.get("event_log"):
        print(f"session event stream: {opened['event_log']}")
    return 0


def _emit_imbalance(args, result) -> None:
    """Print/write the per-DPU imbalance diagnostics of the last run."""
    from .observability import imbalance_heatmap_svg, render_imbalance_report

    ledger = result.imbalance
    if ledger is None:
        print("imbalance ledger unavailable for this run")
        return
    if args.imbalance:
        print()
        print(render_imbalance_report(ledger))
    if args.imbalance_svg:
        with open(args.imbalance_svg, "w") as fh:
            fh.write(imbalance_heatmap_svg(ledger))
            fh.write("\n")
        print(f"imbalance heatmap written to {args.imbalance_svg}")


def _emit_telemetry(args, graph, result, logger=None) -> None:
    """Write/print the telemetry artifacts of the last run."""
    from .telemetry import RunReport, metrics_to_csv, render_profile, write_chrome_trace

    tel = result.telemetry
    report = None
    if args.metrics_out or args.history:
        report = RunReport.from_result(
            result,
            graph=graph,
            config={
                "colors": args.colors,
                "seed": args.seed + args.trials - 1,
                "uniform_p": args.uniform_p,
                "executor": args.executor or "serial",
                "tier": args.tier,
            },
            run_id=logger.run_id if logger is not None else None,
        )
    if args.metrics_out:
        if args.metrics_out.endswith(".csv"):
            with open(args.metrics_out, "w") as fh:
                fh.write(metrics_to_csv(tel.metrics.snapshot()))
        else:
            report.write_json(args.metrics_out)
        print(f"metrics report written to {args.metrics_out}")
    if args.history:
        from .observability.history import RunHistory

        with RunHistory(args.history) as history:
            history.ingest(report.to_dict(), source="repro-count")
            total = history.num_runs()
        print(f"run appended to history {args.history} ({total} runs on record)")
    if args.chrome_trace:
        write_chrome_trace(args.chrome_trace, tel)
        print(f"chrome trace written to {args.chrome_trace} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    if args.flamegraph:
        from .telemetry import write_flamegraph

        write_flamegraph(args.flamegraph, tel, axis=args.flamegraph_axis)
        print(f"flamegraph ({args.flamegraph_axis} clock) written to "
              f"{args.flamegraph}")
    if args.profile:
        print()
        print(render_profile(tel, imbalance=result.imbalance))


if __name__ == "__main__":
    sys.exit(main())
