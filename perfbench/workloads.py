"""The four workloads: inputs from a seed, timed loops, correctness checks.

Each ``run_*`` function measures one workload through the public API and
returns a :class:`Result`.  End-to-end metrics use the same names on every
workload (the result line must carry all of them); what each one means on a
given workload is listed in ``perfbench/NOTES.md``.  The untraced loop always
runs first; with ``trace`` set, half of the measuring time goes to a second,
traced loop whose counts and simulated seconds must match the first.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import PimTriangleCounter
from repro.core.dynamic import DynamicPimCounter
from repro.graph.coo import COOGraph
from repro.graph.generators import rmat
from repro.graph.triangles import count_triangles
from repro.service import ServiceClient, ServiceError, wait_ready
from repro.telemetry.spans import Telemetry

import layers
from summary import summarize
from tracing import Tracer, load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

#: Fresh interpreters (or servers) started to measure ``setup_s``.
SETUP_REPEATS = 7
#: Untraced samples of the primary operation a run collects at least.
MIN_OPS = 11
#: Upper bound on any one measuring loop, whatever the sample floor says.
LOOP_CAP_SECONDS = 60.0

STATIC = {
    "static-exact": {"scale": 13, "edge_factor": 16, "options": {"num_colors": 8}},
    "static-sampled": {
        "scale": 13,
        "edge_factor": 16,
        "options": {
            "num_colors": 8,
            "uniform_p": 0.5,
            "reservoir_capacity": 2000,
            "misra_gries_k": 256,
            "misra_gries_t": 16,
            "batch_edges": 8192,
        },
    },
}
#: Relative error the sampled estimate may show against the exact count.
SAMPLED_TOLERANCE = 0.20

DYNAMIC = {
    "scale": 12, "edge_factor": 16, "num_colors": 8,
    "insert_batch": 2000, "delete_rounds": 5, "delete_batch": 200,
}
SERVICE = {
    "scale": 11, "edge_factor": 8, "num_colors": 4, "batch": 128,
    "clients": 2, "delete_fraction": 0.25,
}


@dataclass
class Result:
    """What one run measured: result-line metrics, report lines, checks."""

    metrics: dict[str, float] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """One attempted operation; ``ok`` is False when it raised or miscounted."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def make_graph(seed: int | list[int], scale: int, edge_factor: int) -> COOGraph:
    rng = np.random.default_rng(seed)
    return rmat(scale, edge_factor, rng).canonicalize().shuffle(rng)


def child_env() -> dict:
    src = os.path.join(os.getcwd(), "src")
    return {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def library_setup_s(kind: str, options: dict) -> float:
    """Median over fresh interpreters of ``import repro`` + building a counter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe_setup.py"), kind,
             json.dumps(options)],
            env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _loop(seconds: float, min_rounds: int, body) -> int:
    """Call ``body()`` until ``seconds`` passed and ``min_rounds`` ran."""
    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_SECONDS or (elapsed >= seconds and rounds >= min_rounds):
            return rounds
        body()
        rounds += 1


def _sim_seconds(result) -> float:
    return result.clock.total() - result.clock.get("setup")


# ------------------------------------------------------------------- static
def run_static(name: str, seed: int, seconds: float, trace: bool) -> Result:
    spec = STATIC[name]
    options = spec["options"]
    res = Result()
    setup = library_setup_s("static", options)
    graph = make_graph(seed, spec["scale"], spec["edge_factor"])
    default = PimTriangleCounter(**options)
    lean = PimTriangleCounter(**options, telemetry=Telemetry(enabled=False))
    op: list[float] = []
    aux: list[float] = []
    seen: list[tuple[str, tuple | None]] = []  # (label, (estimate, sim) or None)

    def timed(counter, sink, label):
        start = time.perf_counter()
        try:
            out = counter.count(graph)
        except Exception as exc:  # a raise is a failed operation
            seen.append((f"{label} raised {type(exc).__name__}: {exc}", None))
            return
        sink.append(time.perf_counter() - start)
        seen.append((label, (float(out.estimate), _sim_seconds(out))))

    def both():
        timed(default, op, "count")
        timed(lean, aux, "count[telemetry off]")

    untraced = seconds / 2 if trace else seconds
    _loop(untraced, MIN_OPS, both)

    layer = None
    if trace:
        variants = [("merge", default)]
        if name == "static-exact":
            variants.append(("fastvec", PimTriangleCounter(**options, kernel_variant="fastvec")))
        traced_by_variant = {}
        for variant, counter in variants:
            tracer = Tracer(f"{name}-{seed}-{variant}")
            layers.install(tracer, layers.LIBRARY_TARGETS)
            sink: list[float] = []
            try:
                passes = _loop(
                    seconds / 2 / len(variants), 3,
                    lambda: timed(counter, sink, f"count[traced {variant}]"),
                )
            finally:
                tracer.restore()
            tracer.write(os.path.join(OUT, f"spans-{name}-{seed}-{variant}.json"))
            traced_by_variant[variant] = (layers.layer_metrics(tracer.spans, passes), sink)
        layer, traced = traced_by_variant["merge"]
        layer["tracing.overhead_s"] = statistics.median(traced) - statistics.median(op)
        layer["telemetry.overhead_s"] = statistics.median(op) - statistics.median(aux)
        if "fastvec" in traced_by_variant:
            layer["kernel.count_fastvec_s"] = traced_by_variant["fastvec"][0][
                "kernel.count_fastvec_s"
            ]

    rss = peak_rss_mb()
    truth = count_triangles(graph)
    first = next((out for _, out in seen if out is not None), None)
    for label, out in seen:
        if out is None:
            res.check(False, label)
            continue
        estimate, sim = out
        if name == "static-exact":
            ok = estimate == truth
        else:
            ok = abs(estimate - truth) <= SAMPLED_TOLERANCE * truth
        # Same seed, same options: every call repeats the first bit for bit,
        # whether telemetry is off, the run is traced or the kernel is fastvec.
        res.check(ok and out == first,
                  f"{label}: (estimate, sim) {out} vs first {first}, truth {truth}")

    s_op = summarize(op)
    s_aux = summarize(aux)
    sim_s = first[1] if first else float("nan")
    res.metrics = {
        "setup_s": setup,
        "op_p50_ms": 1e3 * s_op.median,
        "op_tail_ms": 1e3 * s_op.tail,
        "aux_p50_ms": 1e3 * s_aux.median,
        "edges_per_s": graph.num_edges / s_op.median,
        "sim_s": sim_s,
        "peak_rss_mb": rss,
    }
    res.report = {
        "count_s": (s_op.median, "s"),
        f"count_p{s_op.tail_pct:.1f}_s": (s_op.tail, "s"),
        "count_samples": (s_op.n, "count"),
        "count_telemetry_off_s": (s_aux.median, "s"),
        "edges": (graph.num_edges, "count"),
        "triangles": (truth, "count"),
    }
    if layer is not None:
        res.metrics.update(layer)
    return res


# ------------------------------------------------------------------ dynamic
def dynamic_inputs(seed: int):
    spec = DYNAMIC
    graph = make_graph(seed, spec["scale"], spec["edge_factor"])
    step = spec["insert_batch"]
    inserts = [graph.slice(s, min(s + step, graph.num_edges))
               for s in range(0, graph.num_edges, step)]
    rng = np.random.default_rng([seed, 1])
    picks = rng.choice(graph.num_edges, spec["delete_rounds"] * spec["delete_batch"],
                       replace=False)
    rounds = picks.reshape(spec["delete_rounds"], spec["delete_batch"])
    deletes = [COOGraph(graph.src[r], graph.dst[r], graph.num_nodes, name="delete")
               for r in rounds]
    return graph, inserts, deletes, rounds


def run_dynamic(seed: int, seconds: float, trace: bool) -> Result:
    spec = DYNAMIC
    res = Result()
    graph, inserts, deletes, rounds = dynamic_inputs(seed)
    build = {"num_nodes": graph.num_nodes, "num_colors": spec["num_colors"]}
    setup = library_setup_s("dynamic", build)
    ins: list[float] = []
    dels: list[float] = []
    rates: list[float] = []
    #: Per pass: the count after each operation (None once one raised) and
    #: the simulated seconds at the end.
    passes: list[tuple[list[int | None], float]] = []

    def one_pass(ins_sink, del_sink, rate_sink):
        counter = DynamicPimCounter(**build)
        after: list[int | None] = []
        passes.append((after, float("nan")))
        try:
            phase = 0.0
            for batch in inserts:
                start = time.perf_counter()
                counter.apply_update(batch)
                took = time.perf_counter() - start
                ins_sink.append(took)
                phase += took
                after.append(counter.triangles)
            rate_sink.append(graph.num_edges / phase)
            for batch in deletes:
                start = time.perf_counter()
                counter.apply_deletion(batch)
                del_sink.append(time.perf_counter() - start)
                after.append(counter.triangles)
            passes[-1] = (after, counter.cumulative_seconds)
        except Exception as exc:  # a raise fails this op; the pass stops
            after.append(None)
            res.errors.append(f"dynamic pass: {type(exc).__name__}: {exc}")
        finally:
            counter.close()

    untraced = seconds / 2 if trace else seconds
    _loop(untraced, 2, lambda: one_pass(ins, dels, rates))
    untraced_passes = len(passes)

    layer = None
    if trace:
        tracer = Tracer(f"dynamic-stream-{seed}")
        layers.install(tracer, layers.LIBRARY_TARGETS)
        traced_ins: list[float] = []
        try:
            n = _loop(seconds / 2, 1, lambda: one_pass(traced_ins, [], []))
        finally:
            tracer.restore()
        tracer.write(os.path.join(OUT, f"spans-dynamic-stream-{seed}.json"))
        layer = layers.layer_metrics(tracer.spans, n)
        layer["tracing.overhead_s"] = statistics.median(traced_ins) - statistics.median(ins)

    rss = peak_rss_mb()
    truth_insert = count_triangles(graph)
    alive = np.ones(graph.num_edges, dtype=bool)
    truth_rounds = []
    for r in rounds:
        alive[r] = False
        truth_rounds.append(count_triangles(
            COOGraph(graph.src[alive], graph.dst[alive], graph.num_nodes)))
    # The count is checked after the insert stream and after every deletion
    # round; intermediate inserts only have to succeed.
    want: list[int | None] = [None] * (len(inserts) - 1) + [truth_insert] + truth_rounds
    sim_s = passes[0][1]
    for i, (after, sim) in enumerate(passes):
        label = "traced pass" if i >= untraced_passes else "pass"
        for k, (got, expect) in enumerate(zip(after, want)):
            ok = got is not None and expect in (None, got)
            if k == len(want) - 1:  # the pass's last op also closes its clock
                ok = ok and sim == sim_s
            res.check(ok, f"{label} op {k}: count {got}, truth {expect}, "
                          f"sim {sim} vs first {sim_s}")

    s_ins = summarize(ins)
    s_del = summarize(dels)
    res.metrics = {
        "setup_s": setup,
        "op_p50_ms": 1e3 * s_ins.median,
        "op_tail_ms": 1e3 * s_ins.tail,
        "aux_p50_ms": 1e3 * s_del.median,
        "edges_per_s": statistics.median(rates),
        "sim_s": sim_s,
        "peak_rss_mb": rss,
    }
    res.report = {
        "insert_edges_per_s": (statistics.median(rates), "edges/s"),
        "insert_batch_s": (s_ins.median, "s"),
        f"insert_batch_p{s_ins.tail_pct:.1f}_s": (s_ins.tail, "s"),
        "delete_round_s": (s_del.median, "s"),
        "delete_rounds": (s_del.n, "count"),
        "passes": (untraced_passes, "count"),
        "edges": (graph.num_edges, "count"),
        "triangles": (truth_insert, "count"),
    }
    if layer is not None:
        res.metrics.update(layer)
    return res


# ------------------------------------------------------------------ service
class Server:
    """A ``repro-serve`` subprocess on an ephemeral port.

    With ``spans`` set the server starts through ``serve.py``, which installs
    the traced run's wrappers and writes its spans there on shutdown.
    """

    def __init__(self, tag: str, spans: str | None = None) -> None:
        ready = os.path.join(OUT, f"ready-{tag}.txt")
        if os.path.exists(ready):
            os.remove(ready)
        args = ["--port", "0", "--ready-file", ready]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.service.server", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve.py"), spans, tag, *args]
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            self.url = self._wait_url(ready)
            wait_ready(self.url, timeout=30)
        except BaseException:
            self.stop()
            raise
        finally:
            if os.path.exists(ready):
                os.remove(ready)

    def _wait_url(self, ready: str) -> str:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if os.path.exists(ready):
                with open(ready) as fh:
                    text = fh.read()
                if text.endswith("\n"):
                    return text.strip()
            time.sleep(0.01)
        raise TimeoutError("server never wrote its ready file")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def service_setup_s(seed: int) -> float:
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = Server(f"setup-{seed}-{i}")
        times.append(time.perf_counter() - start)
        server.stop()
    return statistics.median(times)


@dataclass
class ClientLog:
    """Everything one client saw in one pass."""

    insert_rt: list[float] = field(default_factory=list)
    count_rt: list[float] = field(default_factory=list)
    delete_rt: list[float] = field(default_factory=list)
    #: (queue wait, execute) seconds from each response's ``timing`` field.
    server: list[tuple[float, float]] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    sim: float = float("nan")
    insert_end: float = 0.0
    errors: list[str] = field(default_factory=list)
    requests: int = 0


def _client_pass(url: str, session: str, graph: COOGraph, seed: int, log: ClientLog):
    spec = SERVICE
    step = spec["batch"]
    cut = int(graph.num_edges * spec["delete_fraction"])

    def call(sink, fn, *args):
        log.requests += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except ServiceError as exc:
            log.errors.append(f"{session}: {exc}")
            return None
        sink.append(time.perf_counter() - start)
        timing = out.get("timing")
        if timing is not None:
            log.server.append(
                (timing["queue_wait_seconds"], timing["execute_wall_seconds"])
            )
        return out

    with ServiceClient(url) as client:
        client.open_session(session, num_nodes=graph.num_nodes,
                            num_colors=spec["num_colors"], seed=seed)
        for s in range(0, graph.num_edges, step):
            e = min(s + step, graph.num_edges)
            call(log.insert_rt, client.insert, session, graph.src[s:e], graph.dst[s:e])
            view = call(log.count_rt, client.count, session)
            log.counts.append(view["triangles"] if view else -1)
        log.insert_end = time.perf_counter()
        for s in range(0, cut, step):
            e = min(s + step, cut)
            call(log.delete_rt, client.delete, session, graph.src[s:e], graph.dst[s:e])
            view = call(log.count_rt, client.count, session)
            log.counts.append(view["triangles"] if view else -1)
            if view:
                log.sim = float(view["sim_seconds"])
        client.close_session(session)


def _replay(graph: COOGraph, seed: int) -> tuple[list[int], float]:
    """Counts and simulated seconds of a standalone counter fed the same batches."""
    spec = SERVICE
    step = spec["batch"]
    cut = int(graph.num_edges * spec["delete_fraction"])
    counter = DynamicPimCounter(graph.num_nodes, num_colors=spec["num_colors"], seed=seed)
    counts = []
    for s in range(0, graph.num_edges, step):
        counter.apply_update(graph.slice(s, min(s + step, graph.num_edges)))
        counts.append(counter.triangles)
    for s in range(0, cut, step):
        counter.apply_deletion(graph.slice(s, min(s + step, cut)))
        counts.append(counter.triangles)
    sim = counter.cumulative_seconds
    counter.close()
    return counts, sim


def run_service(seed: int, seconds: float, trace: bool) -> Result:
    spec = SERVICE
    res = Result()
    setup = service_setup_s(seed)
    # Each client streams its own graph into its own session; two graphs per
    # seed also halve the seed-to-seed variance of the R-MAT structure.
    graphs = [make_graph([seed, i], spec["scale"], spec["edge_factor"])
              for i in range(spec["clients"])]
    client_seeds = [seed * 16 + i + 1 for i in range(spec["clients"])]
    total_edges = sum(g.num_edges for g in graphs)
    passes: list[list[ClientLog]] = []
    rates: list[float] = []

    def one_pass(url: str, tag: str) -> None:
        logs = [ClientLog() for _ in client_seeds]
        start = time.perf_counter()

        def drive(i: int) -> None:
            try:
                _client_pass(url, f"{tag}-p{len(passes)}-c{i}", graphs[i],
                             client_seeds[i], logs[i])
            except Exception as exc:  # connection loss etc. fails the pass
                logs[i].errors.append(f"client {i}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(logs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(LOOP_CAP_SECONDS)
            if t.is_alive():
                raise RuntimeError("service client did not finish")
        phase = max(log.insert_end for log in logs) - start
        rates.append(total_edges / phase)
        passes.append(logs)

    server = Server(f"measure-{seed}")
    try:
        untraced = seconds / 2 if trace else seconds
        _loop(untraced, 2, lambda: one_pass(server.url, "u"))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    untraced_passes = len(passes)

    layer = None
    if trace:
        spans_path = os.path.join(OUT, f"spans-service-replay-{seed}-server.json")
        tracer = Tracer(f"service-replay-{seed}-client")
        layers.install(tracer, layers.CLIENT_TARGETS)
        try:
            server = Server(f"traced-{seed}", spans=spans_path)
            try:
                n = _loop(seconds / 2, 1, lambda: one_pass(server.url, "t"))
            finally:
                server.stop()
        finally:
            tracer.restore()
        tracer.write(os.path.join(OUT, f"spans-service-replay-{seed}-client.json"))
        layer = layers.layer_metrics(load_spans(spans_path), n)
        layer.update(_service_layers(tracer, passes[untraced_passes:], n))
        traced_rt = [x for logs in passes[untraced_passes:] for lg in logs for x in lg.insert_rt]
        untraced_rt = [x for logs in passes[:untraced_passes] for lg in logs
                       for x in lg.insert_rt]
        layer["tracing.overhead_s"] = (
            statistics.median(traced_rt) - statistics.median(untraced_rt)
        )

    truths = []
    replays = [_replay(g, s) for g, s in zip(graphs, client_seeds)]
    for i, (g, (want, _)) in enumerate(zip(graphs, replays)):
        cut = int(g.num_edges * spec["delete_fraction"])
        truth = (count_triangles(g), count_triangles(g.slice(cut, g.num_edges)))
        truths.append(truth[0])
        insert_batches = -(-g.num_edges // spec["batch"])
        got = (want[insert_batches - 1], want[-1])
        res.check(got == truth, f"replay {i}: {got} vs oracle {truth}")
    for k, logs in enumerate(passes):
        label = "traced pass" if k >= untraced_passes else "pass"
        for i, log in enumerate(logs):
            want, sim = replays[i]
            res.attempted += log.requests
            for err in log.errors:
                res.fail(err)
            # Every count response, not only the final ones, must match the
            # replay; a count that raised is already counted above.
            for j, (got, expect) in enumerate(zip(log.counts, want)):
                if got not in (-1, expect):
                    res.fail(f"{label} client {i} count {j}: {got}, replay {expect}")
            if log.sim != sim:
                res.fail(f"{label} client {i}: sim {log.sim} vs replay {sim}")

    logs = [lg for p in passes[:untraced_passes] for lg in p]
    s_ins = summarize([x for lg in logs for x in lg.insert_rt])
    s_cnt = summarize([x for lg in logs for x in lg.count_rt])
    s_del = summarize([x for lg in logs for x in lg.delete_rt])
    rate = statistics.median(rates[:untraced_passes])
    res.metrics = {
        "setup_s": setup,
        "op_p50_ms": 1e3 * s_ins.median,
        "op_tail_ms": 1e3 * s_ins.tail,
        # A count round trip is a fraction of a millisecond and moves with how
        # often the other session's insert holds the interpreter lock; its
        # run-to-run spread is too wide to gate, so the delete is gated.
        "aux_p50_ms": 1e3 * s_del.median,
        "edges_per_s": rate,
        "sim_s": sum(lg.sim for lg in passes[0]),
        "peak_rss_mb": rss,
    }
    res.report = {
        "insert_edges_per_s": (rate, "edges/s"),
        "insert_p50_ms": (1e3 * s_ins.median, "ms"),
        f"insert_p{s_ins.tail_pct:.1f}_ms": (1e3 * s_ins.tail, "ms"),
        "insert_samples": (s_ins.n, "count"),
        "count_p50_ms": (1e3 * s_cnt.median, "ms"),
        f"count_p{s_cnt.tail_pct:.1f}_ms": (1e3 * s_cnt.tail, "ms"),
        "count_samples": (s_cnt.n, "count"),
        "delete_p50_ms": (1e3 * s_del.median, "ms"),
        "delete_samples": (s_del.n, "count"),
        "passes": (untraced_passes, "count"),
        "edges": (total_edges, "count"),
        "triangles": (sum(truths), "count"),
    }
    if layer is not None:
        res.metrics.update(layer)
    return res


def _service_layers(tracer: Tracer, passes: list[list[ClientLog]], n: int) -> dict:
    """Client-side service layers, per pass, from traced frames and responses."""
    frames = [s for s in tracer.spans if s.name == "service.client_encode"]
    edge_frames = [s for s in frames if s.attrs["op"] in ("insert", "delete")]
    edges = sum(s.attrs["edges"] for s in edge_frames)
    logs = [lg for p in passes for lg in p]
    rt = sum(sum(lg.insert_rt) + sum(lg.count_rt) + sum(lg.delete_rt) for lg in logs)
    queue = sum(q for lg in logs for q, _ in lg.server)
    execute = sum(x for lg in logs for _, x in lg.server)
    return {
        "service.client_encode_s": sum(s.duration for s in frames) / n,
        "service.wire_bytes_per_edge": sum(s.attrs["bytes"] for s in edge_frames) / edges,
        "service.queue_wait_s": queue / n,
        "service.execute_s": execute / n,
        "service.transport_s": (rt - queue - execute) / n,
    }
