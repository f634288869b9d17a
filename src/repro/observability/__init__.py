"""Observability: per-DPU load-imbalance analysis and structured run logs.

The telemetry layer (:mod:`repro.telemetry`) records *what a run did*; this
package turns those recordings into the paper's central diagnosis — which
PIM cores are **stragglers**, why (which color triplet, which hub node), and
whether the Misra-Gries remap (Sec. 3.5) actually flattened the skew:

* :mod:`repro.observability.imbalance` — the per-DPU work ledger
  (:class:`ImbalanceLedger`) harvested from a finished run, plus
  :func:`skew_stats` (max/mean, p99/p50, CV) over any work column;
* :mod:`repro.observability.report` — the ``repro-count --imbalance`` text
  straggler report and the per-DPU SVG heatmap;
* :mod:`repro.observability.logjson` — NDJSON structured event logs
  (``repro-count --log-json``) carrying a ``run_id`` that joins log lines
  to the matching :class:`~repro.telemetry.export.RunReport`; streams are
  join-complete (terminal ``run_end`` with exit status, even on crash) and
  carry live ``heartbeat`` batch-progress events;
* :mod:`repro.observability.watch` — the ``repro-watch`` live monitor that
  tails and renders one NDJSON stream;
* :mod:`repro.observability.history` — the append-only sqlite run-history
  store (``repro-history``) and the rolling-window trend regression
  detector that extends the bench gate from point diffs to trajectories;
* :mod:`repro.observability.validate` — the ``repro-validate`` schema
  checker over RunReport JSON and NDJSON artifacts;
* :mod:`repro.observability.promtext` — Prometheus text / JSON rendering of
  the service's ``repro-service-metrics/1`` snapshot (the ``metrics``
  protocol op, ``repro-serve --metrics-out``);
* :mod:`repro.observability.top` — the ``repro-top`` live dashboard over a
  running server (metrics op + NDJSON stream tails).

Collection is **observation only**: it reads uncharged simulator state and
never touches the :class:`~repro.pimsim.kernel.SimClock`, a span, or any
non-volatile metric, so every simulated number stays bit-identical with or
without it (pinned by the differential parity grid).
"""

from .imbalance import (
    SKEW_METRICS,
    ImbalanceLedger,
    SkewStats,
    collect_ledger,
    skew_stats,
)
from .history import RunHistory, detect_trends, flatten_numeric
from .logjson import (
    NDJSON_EVENT_FIELDS,
    NdjsonLogger,
    NdjsonTailer,
    load_ndjson,
    new_run_id,
    stream_status,
    validate_ndjson_events,
)
from .promtext import (
    SERVICE_METRICS_SCHEMA,
    parse_prometheus,
    render_prometheus,
    write_snapshot,
)
from .report import imbalance_heatmap_svg, render_imbalance_report
from .top import render_top
from .watch import heartbeat_cell, render_stream, summarize_stream

__all__ = [
    "ImbalanceLedger",
    "SkewStats",
    "SKEW_METRICS",
    "collect_ledger",
    "skew_stats",
    "render_imbalance_report",
    "imbalance_heatmap_svg",
    "NdjsonLogger",
    "NdjsonTailer",
    "NDJSON_EVENT_FIELDS",
    "new_run_id",
    "load_ndjson",
    "stream_status",
    "validate_ndjson_events",
    "render_stream",
    "summarize_stream",
    "RunHistory",
    "detect_trends",
    "flatten_numeric",
    "SERVICE_METRICS_SCHEMA",
    "parse_prometheus",
    "render_prometheus",
    "write_snapshot",
    "render_top",
    "heartbeat_cell",
]
