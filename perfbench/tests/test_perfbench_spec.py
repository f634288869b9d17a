"""BENCHMARK.json agrees with the code that produces its metrics."""

import json
import os

import layers
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match_the_runner():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


def test_every_per_layer_metric_is_produced():
    produced = set(layers.layer_metrics([], passes=1)) | {"tracing.overhead_s"}
    wanted = {m["name"] for m in _spec()["per_layer"]}
    assert wanted <= produced


def test_bounds_and_setup_metric():
    metrics = {m["name"]: m for m in _spec()["end_to_end"]}
    assert metrics["setup_s"]["unit"] == "s"
    assert metrics["setup_s"]["better"] == "lower"
    bounds = [m["bound"] for m in metrics.values()]
    assert all(0 < b <= 0.25 for b in bounds)
    assert metrics["setup_s"]["bound"] == max(bounds)
