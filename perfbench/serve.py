"""Start ``repro-serve`` with the traced run's library wrappers installed.

Usage: ``python perfbench/serve.py SPANS_OUT RUN_ID [repro-serve args...]``.
The server runs unchanged; on shutdown (SIGTERM) the wrappers are removed
and the spans recorded inside the server process are written to SPANS_OUT.
"""

from __future__ import annotations

import sys

import layers
from tracing import Tracer


def main() -> int:
    spans_out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from repro.service.server import main as serve

    tracer = Tracer(f"{run_id}-server")
    layers.install(tracer, layers.LIBRARY_TARGETS)
    try:
        return serve(argv)
    finally:
        tracer.restore()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
