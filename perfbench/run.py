"""Wall-clock benchmark of the PIM triangle-counting library and service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload static-exact --seed 1 --seconds 10 --trace 0

Workloads (parameters and reasons in BENCHMARK.json and perfbench/NOTES.md):
``static-exact``, ``static-sampled``, ``dynamic-stream``, ``service-replay``;
``--workload all`` runs the four one after another.
The inputs are generated from ``--seed``; every count is checked against the
exact oracle.  Report lines name each metric with its unit; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1`` (a traced run also prints every other layer it
measured).  The exit code is non-zero when any operation failed or any count
was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("static-exact", "static-sampled", "dynamic-stream", "service-replay")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One fresh process per workload, so each reports its own peak RSS.
        failed = 0
        for name in WORKLOADS:
            failed |= subprocess.run([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
        return 1 if failed else 0

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no repro sources under {src}: run from a checkout root", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)

    import workloads

    os.makedirs(workloads.OUT, exist_ok=True)
    trace = bool(args.trace)
    if args.workload.startswith("static-"):
        res = workloads.run_static(args.workload, args.seed, args.seconds, trace)
    elif args.workload == "dynamic-stream":
        res = workloads.run_dynamic(args.seed, args.seconds, trace)
    else:
        res = workloads.run_service(args.seed, args.seconds, trace)
    res.metrics["ok_ratio"] = 1.0 - res.failed / res.attempted

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in res.report.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {res.failed / res.attempted:.6g} ratio "
          f"({res.failed} of {res.attempted})")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if trace:
        for name in sorted(set(res.metrics) - set(units)):
            if "." in name and res.metrics[name]:  # layers run outside the result line
                print(f"  {name} = {res.metrics[name]:.6g} s")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": res.metrics[name], "unit": unit}
        print(f"  {name} = {res.metrics[name]:.6g} {unit}")
    for err in res.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
