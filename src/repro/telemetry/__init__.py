"""Structured telemetry for the PIM pipeline: spans, metrics, run reports.

Three modules, one recorder object:

* :mod:`repro.telemetry.spans` — hierarchical :class:`Span` trees carrying
  both simulated and wall-clock time, recorded through the
  :class:`Telemetry` context-manager API and stitched safely across the
  thread/process execution engines;
* :mod:`repro.telemetry.metrics` — a typed registry of counters, gauges and
  fixed-bucket histograms whose default snapshot is bit-identical across
  executors;
* :mod:`repro.telemetry.export` — JSON :class:`RunReport` (+ schema
  validator), metrics CSV, Chrome-trace/Perfetto emission, the
  ``--profile`` self-time table and the simulated-time timeline.

Usage::

    from repro import PimTriangleCounter
    from repro.telemetry import Telemetry, RunReport

    tel = Telemetry(detail=True)
    result = PimTriangleCounter(num_colors=4, telemetry=tel).count(graph)
    RunReport.from_result(result, graph=graph).write_json("report.json")

See ``docs/observability.md`` for span naming conventions, the metrics
catalog, and the report schema.
"""

from .export import (
    ACCEPTED_RUN_REPORT_SCHEMAS,
    RUN_REPORT_SCHEMA,
    RunReport,
    chrome_trace,
    metrics_to_csv,
    render_profile,
    render_timeline,
    validate_run_report,
    write_chrome_trace,
)
from .flamegraph import collapsed_stacks, flamegraph_svg, write_flamegraph
from .metrics import (
    DEFAULT_FRACTION_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_snapshot,
)
from .spans import PHASE_NAMES, Span, SpanRecord, Telemetry

__all__ = [
    "Telemetry",
    "Span",
    "SpanRecord",
    "PHASE_NAMES",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_FRACTION_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "quantile_from_snapshot",
    "RunReport",
    "RUN_REPORT_SCHEMA",
    "ACCEPTED_RUN_REPORT_SCHEMAS",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_to_csv",
    "render_profile",
    "render_timeline",
    "validate_run_report",
    "collapsed_stacks",
    "flamegraph_svg",
    "write_flamegraph",
]
