"""Command-line experiment runner.

Regenerate any paper artifact::

    repro-experiments fig6 --tier bench
    repro-experiments all --tier small --out results.txt
    python -m repro.experiments.runner tab3

Output is the rendered table; ``--json`` dumps the structured form.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .registry import EXPERIMENTS, experiment_ids, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulated PIM system.",
    )
    parser.add_argument(
        "experiment",
        choices=experiment_ids() + ["all", "list"],
        help="experiment ID (paper artifact) or 'all'/'list'",
    )
    parser.add_argument("--tier", default="small", choices=("tiny", "small", "bench"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--markdown", action="store_true", help="emit a markdown report instead of text"
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append an ASCII bar chart of the experiment's headline column",
    )
    parser.add_argument("--out", default=None, help="also write output to this file")
    parser.add_argument(
        "--svg",
        default=None,
        metavar="DIR",
        help="also write an SVG figure per experiment into this directory",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a telemetry JSON (one span per experiment run, plus the "
             "harness metrics registry) after all experiments finish",
    )
    parser.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="write a chrome://tracing / Perfetto trace of the harness run",
    )
    parser.add_argument(
        "--flamegraph",
        default=None,
        metavar="PATH",
        help="write a wall-clock flamegraph of the harness run (one frame "
             "per experiment); .svg for standalone SVG, else collapsed-stack "
             "text",
    )
    return parser


#: Headline (value column, log scale) per experiment for --chart.
_CHART_COLUMNS = {
    "tab1": ("Triangles", True),
    "tab2": ("Max degree", True),
    "fig3": ("Edges/ms", True),
    "fig4": ("Speedup", False),
    "fig5": ("Speedup vs no-MG", False),
    "fig6": ("PIM speedup", True),
    "fig7": ("PIM speedup vs CPU", False),
    "abl_coloring": ("Max-DPU ms", False),
    "abl_energy": ("Dynamic mJ", False),
    "abl_dynamic": ("PIM speedup", False),
}


def _headline_chart(exp_id: str, table) -> str | None:
    spec = _CHART_COLUMNS.get(exp_id)
    if spec is None:
        return None
    column, log_scale = spec
    try:
        return table.render_chart(column, log_scale=log_scale)
    except (ValueError, TypeError):
        return None


def main(argv: list[str] | None = None, telemetry=None) -> int:
    """Run experiments; an optional ``Telemetry`` records one span per run.

    A caller-supplied recorder (e.g. a service harness wrapping the runner)
    is used as-is; otherwise one is created on demand when ``--metrics-out``
    or ``--chrome-trace`` ask for exported telemetry.
    """
    args = _build_parser().parse_args(argv)
    if args.experiment == "list":
        for exp in EXPERIMENTS.values():
            print(f"{exp.id:12s} {exp.paper_artifact:14s} {exp.description}")
        return 0
    if telemetry is None and (args.metrics_out or args.chrome_trace or args.flamegraph):
        from ..telemetry import Telemetry

        telemetry = Telemetry()
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    chunks: list[str] = []
    for exp_id in ids:
        start = time.perf_counter()
        if telemetry is not None:
            with telemetry.span(exp_id) as span:
                table = run_experiment(exp_id, tier=args.tier, seed=args.seed)
                if span is not None:
                    span.attrs["tier"] = args.tier
                    span.attrs["rows"] = len(table.rows)
            telemetry.metrics.gauge(
                f"experiment.{exp_id}.rows", help="rows in the rendered table"
            ).set(len(table.rows))
            telemetry.metrics.counter(
                "experiment.runs", help="experiments executed"
            ).inc()
        else:
            table = run_experiment(exp_id, tier=args.tier, seed=args.seed)
        elapsed = time.perf_counter() - start
        if args.svg:
            from pathlib import Path

            from .svg import render_figure

            svg = render_figure(exp_id, table)
            if svg is not None:
                out_dir = Path(args.svg)
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"{exp_id}.svg").write_text(svg)
        if args.json:
            chunks.append(json.dumps(table.to_dict(), indent=2))
        elif args.markdown:
            chunks.append(table.to_markdown())
            chunks.append("")
        else:
            chunks.append(table.render())
            if args.chart:
                chart = _headline_chart(exp_id, table)
                if chart:
                    chunks.append("")
                    chunks.append(chart)
            chunks.append(f"[{exp_id} regenerated in {elapsed:.2f}s wall]")
        chunks.append("")
    text = "\n".join(chunks)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if telemetry is not None and args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(
                {
                    "schema": "repro-experiments-telemetry/1",
                    "tier": args.tier,
                    "seed": args.seed,
                    "spans": telemetry.to_dict(),
                    "metrics": telemetry.metrics.snapshot(),
                    "volatile_metrics": telemetry.metrics.snapshot(volatile=True),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    if telemetry is not None and args.chrome_trace:
        from ..telemetry import write_chrome_trace

        write_chrome_trace(args.chrome_trace, telemetry)
    if telemetry is not None and args.flamegraph:
        from ..telemetry import write_flamegraph

        # Harness spans carry no simulated clock, so the wall axis is the
        # informative one here.
        write_flamegraph(args.flamegraph, telemetry, axis="wall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
