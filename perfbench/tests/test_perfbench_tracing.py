"""Span self times, wrapper install/restore, and the layer arithmetic."""

import importlib
import threading
import types

import pytest

import layers
from tracing import Span, Tracer, self_times


def _span(i, name, start, end, parent=None, **attrs):
    return Span(id=i, name=name, start=start, end=end, parent=parent, run="r", attrs=attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "parent", 0.0, 10.0),
        _span(2, "a", 1.0, 3.0, parent=1),
        _span(3, "b", 2.0, 5.0, parent=1),  # overlaps a: [1, 5] is covered once
        _span(4, "late", 9.0, 12.0, parent=1),  # clipped at the parent's end
        _span(5, "grandchild", 1.5, 2.5, parent=2),
    ]
    own = self_times(spans)
    assert own[("r", 1)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[("r", 2)] == pytest.approx(1.0)
    assert own[("r", 5)] == pytest.approx(1.0)


def test_same_ids_in_different_runs_do_not_mix():
    spans = [
        Span(1, "op", 0.0, 4.0, None, "client"),
        Span(1, "op", 0.0, 4.0, None, "server"),
        Span(2, "child", 1.0, 2.0, 1, "server"),
    ]
    own = self_times(spans)
    assert own[("client", 1)] == pytest.approx(4.0)
    assert own[("server", 1)] == pytest.approx(3.0)


class _Base:
    def work(self, x):
        return x + 1


class _Sub(_Base):
    pass


def test_wrap_records_nested_spans_and_restores():
    mod = types.ModuleType("fake")
    mod.helper = lambda x: x * 2
    original = mod.helper
    tracer = Tracer("t")
    tracer.wrap(mod, "helper", "layer.helper", note=lambda a, k, r: {"out": r})
    tracer.wrap(_Sub, "work", "op.work")  # inherited: patched on the subclass
    assert mod.helper(3) == 6
    assert _Sub().work(1) == 2
    assert _Base.work is not _Sub.work
    tracer.restore()
    assert mod.helper is original
    assert "work" not in vars(_Sub)
    assert [s.name for s in tracer.spans] == ["layer.helper", "op.work"]
    assert tracer.spans[0].attrs == {"out": 6}
    assert all(s.run == "t" and s.parent is None for s in tracer.spans)


def test_parents_follow_each_thread():
    tracer = Tracer("t")
    seen = {}

    def worker():
        with tracer.span("op.thread") as outer:
            with tracer.span("inner") as inner:
                seen["pair"] = (outer.id, inner.parent)

    with tracer.span("op.main") as main:
        t = threading.Thread(target=worker)
        t.start()
        t.join(10)
    assert not t.is_alive()
    outer_id, inner_parent = seen["pair"]
    assert inner_parent == outer_id
    thread_top = next(s for s in tracer.spans if s.name == "op.thread")
    assert thread_top.parent is None and main.parent is None


def test_every_library_target_is_wrapped_and_restored():
    targets = layers.LIBRARY_TARGETS + layers.CLIENT_TARGETS

    def owner(module, cls):
        obj = importlib.import_module(module)
        return getattr(obj, cls) if cls else obj

    before = [vars(owner(m, c)).get(a) for m, c, a, _, _ in targets]
    tracer = Tracer("t")
    layers.install(tracer, targets)
    try:
        for m, c, a, _, _ in targets:
            assert hasattr(getattr(owner(m, c), a), "__wrapped__"), (m, c, a)
    finally:
        tracer.restore()
    after = [vars(owner(m, c)).get(a) for m, c, a, _, _ in targets]
    assert after == before


def test_layers_and_unattributed_add_up_to_the_op():
    spans = [
        _span(1, "op.insert", 0.0, 10.0),
        _span(2, "coloring.assign", 0.5, 1.0, parent=1, routed=16, cores=3),
        _span(3, "kernel.charge", 1.0, 6.0, parent=1, instructions=100.0),
        _span(4, "kernel.orient_sort", 2.0, 3.0, parent=3, edges=24),
        _span(5, "kernel.count", 6.0, 9.0, parent=1, edges=24),
        _span(6, "kernel.count", 20.0, 21.0),  # outside any op: ignored
    ]
    out = layers.layer_metrics(spans, passes=2)
    times = {k: v for k, v in out.items() if k.endswith("_s")}
    assert sum(times.values()) == pytest.approx(10.0 / 2)
    assert out["unattributed_s"] == pytest.approx((10.0 - 0.5 - 5.0 - 3.0) / 2)
    assert out["kernel.charge_s"] == pytest.approx(4.0 / 2)
    assert out["kernel.count_s"] == pytest.approx(3.0 / 2)
    assert out["kernel.edges_counted"] == 12
    assert out["dynamic.edges_resorted"] == 12
    assert out["dynamic.resort_ratio"] == pytest.approx(24 / 16)
    assert out["streaming.reservoir_kept_ratio"] == 1.0
