"""Exporters: run reports (JSON), metrics CSV, Chrome-trace, text views.

Four consumers, four formats:

* **RunReport** — the machine-readable record of one run: the
  :meth:`TcResult.to_dict` summary, the span tree, and both metric
  snapshots, under one ``schema`` tag.  ``benchmarks/bench_report.py``
  bundles these into the ``BENCH_telemetry.json`` trajectory, and
  :func:`validate_run_report` is the (dependency-free) schema check CI runs
  on the CLI's ``--metrics-out`` output.
* **Chrome trace** — a ``chrome://tracing`` / Perfetto ``traceEvents`` file
  with two process tracks: the span tree on the wall-clock axis (track "host
  wall clock") and the same tree on the simulated axis (track "simulated PIM
  timeline"), so the two clocks of `docs/architecture.md` §3 can be eyeballed
  side by side.
* **Profile table** — ``repro-count --profile``'s sorted self-time view of
  the span tree, one line per distinct span path.
* **Timeline** — the span tree as a simulated-time log, one line per span.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..common.units import fmt_time
from .spans import Span, Telemetry

__all__ = [
    "RUN_REPORT_SCHEMA",
    "ACCEPTED_RUN_REPORT_SCHEMAS",
    "RunReport",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_to_csv",
    "render_profile",
    "render_timeline",
    "validate_run_report",
]

#: Schema tag embedded in every *newly written* run report.  Version 2 adds
#: the optional ``imbalance`` section (the per-DPU work ledger of
#: :mod:`repro.observability.imbalance`) and the optional ``run_id`` field
#: that joins a report to its ``--log-json`` NDJSON stream.
RUN_REPORT_SCHEMA = "repro-run-report/2"

#: Tags :func:`validate_run_report` accepts: v1 documents (no imbalance /
#: run_id) remain valid forever — consumers must not reject old baselines.
ACCEPTED_RUN_REPORT_SCHEMAS = ("repro-run-report/1", "repro-run-report/2")


# --------------------------------------------------------------------- report
@dataclass
class RunReport:
    """One run, fully described: result + spans + metrics in a stable schema."""

    result: dict
    spans: dict
    metrics: dict
    volatile_metrics: dict = field(default_factory=dict)
    graph: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    #: Full per-DPU work ledger (schema v2; ``None`` when not harvested).
    imbalance: dict | None = None
    #: Opaque identifier joining this report to its NDJSON log stream.
    run_id: str | None = None

    @classmethod
    def from_result(
        cls,
        result: Any,
        graph: Any = None,
        config: dict | None = None,
        run_id: str | None = None,
    ) -> "RunReport":
        """Bundle a :class:`~repro.core.result.TcResult` and its telemetry.

        ``result.telemetry`` supplies the span tree and metric snapshots;
        a result produced with telemetry disabled yields empty sections.
        ``result.imbalance``, when the pipeline harvested a ledger, becomes
        the v2 ``imbalance`` section (skew stats + straggler table + per-DPU
        columns).
        """
        tel: Telemetry | None = getattr(result, "telemetry", None)
        graph_info = {}
        if graph is not None:
            graph_info = {
                "name": graph.name,
                "num_nodes": int(graph.num_nodes),
                "num_edges": int(graph.num_edges),
            }
        ledger = getattr(result, "imbalance", None)
        return cls(
            result=result.to_dict(),
            spans=tel.to_dict() if tel is not None else {"enabled": False, "spans": []},
            metrics=tel.metrics.snapshot() if tel is not None else {},
            volatile_metrics=tel.metrics.snapshot(volatile=True) if tel is not None else {},
            graph=graph_info,
            config=dict(config or {}),
            imbalance=ledger.to_dict() if ledger is not None else None,
            run_id=run_id,
        )

    def to_dict(self) -> dict:
        return {
            "schema": RUN_REPORT_SCHEMA,
            "run_id": self.run_id,
            "graph": self.graph,
            "config": self.config,
            "result": self.result,
            "spans": self.spans,
            "metrics": self.metrics,
            "volatile_metrics": self.volatile_metrics,
            "imbalance": self.imbalance,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _validate_span(node: dict, where: str, errors: list[str]) -> None:
    for key, kind in (
        ("name", str),
        ("path", str),
        ("wall_seconds", (int, float)),
        ("sim_seconds", (int, float)),
        ("children", list),
    ):
        if key not in node:
            errors.append(f"{where}: span missing {key!r}")
        elif not isinstance(node[key], kind):
            errors.append(f"{where}: span {key!r} has type {type(node[key]).__name__}")
    for i, child in enumerate(node.get("children", []) or []):
        if isinstance(child, dict):
            _validate_span(child, f"{where}.children[{i}]", errors)
        else:
            errors.append(f"{where}.children[{i}]: not an object")


def validate_run_report(data: dict) -> list[str]:
    """Structural schema check; returns one error string per violation.

    Deliberately dependency-free (no ``jsonschema`` in the image): checks
    the schema tag, the required sections, span-tree shape, metric entry
    shape, and that the result carries the paper's phase ledger.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        return ["report: not a JSON object"]
    schema = data.get("schema")
    if schema not in ACCEPTED_RUN_REPORT_SCHEMAS:
        errors.append(
            f"report: schema is {schema!r}, expected one of "
            f"{ACCEPTED_RUN_REPORT_SCHEMAS!r}"
        )
    for section in ("graph", "config", "result", "spans", "metrics", "volatile_metrics"):
        if not isinstance(data.get(section), dict):
            errors.append(f"report: missing or non-object section {section!r}")
    # v2-only sections; optional (absent in v1 documents, nullable in v2).
    run_id = data.get("run_id")
    if run_id is not None and not isinstance(run_id, str):
        errors.append(f"report: run_id has type {type(run_id).__name__}")
    imbalance = data.get("imbalance")
    if imbalance is not None:
        if not isinstance(imbalance, dict):
            errors.append(f"report: imbalance has type {type(imbalance).__name__}")
        else:
            for key, kind in (
                ("num_dpus", int),
                ("num_colors", int),
                ("skew", dict),
                ("stragglers", list),
                ("per_dpu", dict),
            ):
                if key not in imbalance:
                    errors.append(f"imbalance: missing {key!r}")
                elif not isinstance(imbalance[key], kind):
                    errors.append(
                        f"imbalance: {key!r} has type {type(imbalance[key]).__name__}"
                    )
            for name, entry in (imbalance.get("skew") or {}).items():
                if not isinstance(entry, dict) or "max_over_mean" not in entry:
                    errors.append(f"imbalance.skew[{name}]: missing 'max_over_mean'")
            for i, row in enumerate(imbalance.get("stragglers") or []):
                if not isinstance(row, dict) or "dpu" not in row or "triplet" not in row:
                    errors.append(f"imbalance.stragglers[{i}]: missing dpu/triplet")
    result = data.get("result")
    if isinstance(result, dict):
        if not isinstance(result.get("phases"), dict):
            errors.append("result: missing 'phases' object")
        for key in ("estimate", "num_colors", "num_dpus"):
            if key not in result:
                errors.append(f"result: missing {key!r}")
    spans = data.get("spans")
    if isinstance(spans, dict):
        for i, node in enumerate(spans.get("spans", []) or []):
            if isinstance(node, dict):
                _validate_span(node, f"spans[{i}]", errors)
            else:
                errors.append(f"spans[{i}]: not an object")
    for section in ("metrics", "volatile_metrics"):
        metrics = data.get(section)
        if not isinstance(metrics, dict):
            continue
        for name, entry in metrics.items():
            if not isinstance(entry, dict) or "kind" not in entry:
                errors.append(f"{section}[{name}]: missing 'kind'")
            elif entry["kind"] not in ("counter", "gauge", "histogram"):
                errors.append(f"{section}[{name}]: unknown kind {entry['kind']!r}")
            elif entry["kind"] in ("counter", "gauge") and "value" not in entry:
                errors.append(f"{section}[{name}]: missing 'value'")
            elif entry["kind"] == "histogram" and (
                "buckets" not in entry or "counts" not in entry
            ):
                errors.append(f"{section}[{name}]: histogram missing buckets/counts")
    return errors


# ----------------------------------------------------------------------- csv
def metrics_to_csv(snapshot: dict) -> str:
    """Flatten a metrics snapshot to ``name,kind,field,value`` CSV rows."""
    out = io.StringIO()
    out.write("name,kind,field,value\n")
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("kind", "")
        if kind == "histogram":
            for bound, count in zip(
                list(entry["buckets"]) + ["inf"], entry["counts"]
            ):
                out.write(f"{name},{kind},le_{bound},{count}\n")
            out.write(f"{name},{kind},sum,{entry['sum']}\n")
            out.write(f"{name},{kind},count,{entry['count']}\n")
        else:
            out.write(f"{name},{kind},value,{entry.get('value', '')}\n")
    return out.getvalue()


# --------------------------------------------------------------- chrome trace
_DPU_LANE_RE = re.compile(r"^dpu(\d+)$")


def _sim_walk(telemetry: Telemetry) -> Iterator[tuple[Span, float]]:
    """Every span in recording order, paired with its simulated start.

    Ordinary children run one after another from their parent's start;
    ``dpuN`` detail children all start together at their parent's cursor
    (real DPUs run concurrently; the parent only charged the slowest).
    """

    def walk(span: Span, start: float) -> Iterator[tuple[Span, float]]:
        cursor = start
        for child in span.children:
            yield child, cursor
            if _DPU_LANE_RE.match(child.name) is None:
                yield from walk(child, cursor)
                cursor += child.sim_seconds

    return walk(telemetry.root, 0.0)


def _span_events(span: Span, depth: int, events: list[dict]) -> None:
    events.append(
        {
            "name": span.name or "run",
            "cat": "span",
            "ph": "X",
            "ts": span.wall_start * 1e6,
            "dur": span.wall_seconds * 1e6,
            "pid": 1,
            "tid": depth,
            "args": {
                "path": span.path,
                "sim_seconds": span.sim_seconds,
                **span.attrs,
            },
        }
    )
    for child in span.children:
        _span_events(child, depth + 1, events)


def chrome_trace(telemetry: Telemetry) -> dict:
    """Build a Chrome/Perfetto ``traceEvents`` document.

    Track ``pid=1`` holds the wall-clock span tree, one ``tid`` per nesting
    depth.  Track ``pid=2`` lays the same tree out on the *simulated* axis,
    the timeline the paper's numbers live on: ``tid=0`` holds every span
    but the per-DPU detail spans, which get one thread lane per DPU id
    (``tid = dpu_id + 1``) so a straggler reads as the one long bar in a
    wall of short ones instead of being hidden in the max.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "host wall clock"}},
    ]
    for child in telemetry.root.children:
        _span_events(child, 0, events)
    sim_events: list[dict] = []
    seen_dpus: set[int] = set()
    for span, start in _sim_walk(telemetry):
        name, cat, tid = span.name, "sim", 0
        match = _DPU_LANE_RE.match(span.name)
        if match is not None:
            dpu_id = int(match.group(1))
            seen_dpus.add(dpu_id)
            name, cat, tid = "/".join(span.path.split("/")[-2:]), "sim-dpu", dpu_id + 1
        sim_events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": start * 1e6,
                "dur": span.sim_seconds * 1e6,
                "pid": 2,
                "tid": tid,
                "args": {"path": span.path, "sim_seconds": span.sim_seconds, **span.attrs},
            }
        )
    if sim_events:
        events.append(
            {"name": "process_name", "ph": "M", "pid": 2,
             "args": {"name": "simulated PIM timeline"}}
        )
    events.extend(sim_events)
    for dpu_id in sorted(seen_dpus):
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 2, "tid": dpu_id + 1,
             "args": {"name": f"dpu {dpu_id}"}}
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, telemetry: Telemetry) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(telemetry), fh)
        fh.write("\n")


def render_timeline(telemetry: Telemetry) -> str:
    """The span tree as a simulated-time log, one line per span.

    Lines follow recording order and give each span's simulated start,
    simulated duration and path.  Per-DPU detail spans (``dpuN``) are left
    out; :func:`chrome_trace` lays them out as lanes.
    """
    lines = [f"{'t (start)':>12}  {'dt':>12}  span"]
    for span, start in _sim_walk(telemetry):
        if _DPU_LANE_RE.match(span.name) is None:
            lines.append(
                f"{fmt_time(start):>12}  {fmt_time(span.sim_seconds):>12}  {span.path}"
            )
    return "\n".join(lines)


# -------------------------------------------------------------------- profile
def render_profile(telemetry: Telemetry, imbalance: Any = None, top_k: int = 5) -> str:
    """Sorted self-time table over the span tree (``--profile`` output).

    Aggregates by span path (a path opened N times contributes one row with
    ``calls=N``), sorts by simulated self-time descending with wall-clock
    self-time as the tiebreaker, and prints both clocks in milliseconds.

    With an ``imbalance`` ledger (an
    :class:`~repro.observability.imbalance.ImbalanceLedger`), appends a
    per-DPU straggler section: the ``top_k`` cores by simulated self time
    (kernel compute + sample insert), each attributed to its color triplet
    and heaviest sampled node — the span table tells you *which phase* is
    slow, this section tells you *which core* and *why*.
    """
    rows: dict[str, list[float]] = {}
    order: list[str] = []
    for top in telemetry.root.children:
        for span in top.walk():
            agg = rows.get(span.path)
            if agg is None:
                rows[span.path] = [
                    1, span.sim_seconds, span.sim_self_seconds,
                    span.wall_seconds, span.wall_self_seconds,
                ]
                order.append(span.path)
            else:
                agg[0] += 1
                agg[1] += span.sim_seconds
                agg[2] += span.sim_self_seconds
                agg[3] += span.wall_seconds
                agg[4] += span.wall_self_seconds
    ranked = sorted(order, key=lambda p: (-rows[p][2], -rows[p][4], p))
    lines = [
        f"{'span':<40} {'calls':>6} {'sim total':>12} {'sim self':>12} "
        f"{'wall total':>12} {'wall self':>12}"
    ]
    for path in ranked:
        calls, sim, sim_self, wall, wall_self = rows[path]
        lines.append(
            f"{path:<40} {int(calls):>6} {sim * 1e3:>10.3f}ms {sim_self * 1e3:>10.3f}ms "
            f"{wall * 1e3:>10.3f}ms {wall_self * 1e3:>10.3f}ms"
        )
    if imbalance is not None:
        totals = imbalance.count_seconds + imbalance.insert_seconds
        order = sorted(
            range(int(totals.size)), key=lambda d: (-float(totals[d]), d)
        )[: max(0, int(top_k))]
        grand = float(totals.sum())
        lines += [
            "",
            f"per-DPU stragglers (top {len(order)} by simulated self time):",
            f"{'dpu':>5} {'triplet':<12} {'count':>12} {'insert':>12} "
            f"{'share':>7} {'heavy node':>11}  remapped",
        ]
        for d in order:
            triplet = "(" + ",".join(str(c) for c in imbalance.triplet_of(d)) + ")"
            share = float(totals[d] / grand) if grand > 0 else 0.0
            remapped = "yes" if bool(imbalance.heavy_node_remapped[d]) else "no"
            lines.append(
                f"{d:>5} {triplet:<12} "
                f"{float(imbalance.count_seconds[d]) * 1e3:>10.3f}ms "
                f"{float(imbalance.insert_seconds[d]) * 1e3:>10.3f}ms "
                f"{share * 100:>6.1f}% {int(imbalance.heavy_nodes[d]):>11}  {remapped}"
            )
    return "\n".join(lines)

