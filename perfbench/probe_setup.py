"""Print the seconds a fresh interpreter takes to import repro and build a counter.

Usage: ``python perfbench/probe_setup.py static|dynamic OPTIONS_JSON``.
``static`` builds a ``PimTriangleCounter(**options)``, ``dynamic`` a
``DynamicPimCounter(**options)``.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import repro  # noqa: E402

kind, options = sys.argv[1], json.loads(sys.argv[2])
if kind == "static":
    repro.PimTriangleCounter(**options)
else:
    repro.DynamicPimCounter(**options)
print(time.perf_counter() - start)
