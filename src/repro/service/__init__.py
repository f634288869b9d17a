"""Long-lived multi-session triangle-counting service (docs/service.md).

The host-side pipeline counts one run at a time; this package wraps the
dynamic counter in a service so many tenants can count concurrently:

* :mod:`repro.service.protocol` — length-prefixed JSON wire protocol;
* :mod:`repro.service.session` — :class:`GraphSession`: one tenant's
  counter, bounded batch queue, memory budget, NDJSON event stream;
* :mod:`repro.service.server` — :class:`TriangleService` and the
  ``repro-serve`` console entry (admission control, idle expiry);
* :mod:`repro.service.client` — the blocking :class:`ServiceClient` used by
  tests, ``repro-count --serve-url``, and the CI smoke driver.

Session counts are bit-identical to a standalone
:class:`~repro.core.dynamic.DynamicPimCounter` replaying the same batches —
the service adds scheduling and accounting around the counter, never
arithmetic.
"""

from .client import ServiceClient, ServiceError, parse_url, wait_ready
from .protocol import (
    CLIENT_ERROR_CODES,
    ERROR_CODES,
    MAX_FRAME_BYTES,
    ProtocolError,
    new_trace_id,
)
from .session import GraphSession, SessionError

#: Names resolved from :mod:`repro.service.server` on first use, so that
#: ``python -m repro.service.server`` does not import the server module
#: once as a package member and again as ``__main__``.
_SERVER_NAMES = ("ServiceConfig", "TriangleService")


def __getattr__(name: str):
    if name in _SERVER_NAMES:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CLIENT_ERROR_CODES",
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "GraphSession",
    "ProtocolError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SessionError",
    "TriangleService",
    "new_trace_id",
    "parse_url",
    "wait_ready",
]
