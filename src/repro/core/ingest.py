"""Chunked streaming ingestion: batch iteration and the phase-overlap model.

The paper's host streams the COO file and routes edges to the PIM cores as it
reads them (Sec. 3.1-3.3); nothing in DOULION-style uniform sampling, the
Misra-Gries summary, or TRIEST-style reservoir insertion needs the whole
edge list in memory — all three are one-pass streaming schemes.  The ingest
pipeline therefore processes the stream in fixed-size chunks of
``batch_edges`` edges (``None``: one chunk spanning the stream), bounding
the host's routed-buffer memory at ``O(batch_edges * C)`` instead of
``O(|E| * C)``.

Chunking also exposes pipeline parallelism a single chunk cannot: while
the DPUs insert batch ``k`` (scatter + reservoir merge), the host routes
batch ``k + 1``.  :class:`DoubleBufferSchedule` models that overlap on the
simulated clock.  With host-route seconds ``h_k`` and device (transfer +
insert) seconds ``d_k`` per batch, the classic two-buffer recurrence is::

    start_h(k) = max(H(k-1), D(k-2))      # buffer k-2 must be drained
    H(k)       = start_h(k) + h_k         # host finishes routing batch k
    D(k)       = max(H(k), D(k-1)) + d_k  # device finishes inserting batch k

so the elapsed time is ``D(K-1)`` — per steady-state step, ``max(h, d)``
rather than ``h + d``.  The schedule hands back per-batch *deltas*
``D(k) - D(k-1)`` (always non-negative), which the pipeline advances on the
``sample_creation`` phase inside one telemetry span per batch.

The model is engine-invariant: ``h_k`` and ``d_k`` are computed from the
same deterministic quantities under the serial, thread, and process
executors, so batched runs keep the bit-identical-counts-and-clocks
contract of :mod:`repro.pimsim.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..common.errors import ConfigurationError

__all__ = ["DoubleBufferSchedule", "iter_edge_batches", "num_batches"]


def num_batches(num_edges: int, batch_edges: int) -> int:
    """How many chunks a stream of ``num_edges`` splits into."""
    if batch_edges < 1:
        raise ConfigurationError(f"batch_edges must be >= 1, got {batch_edges}")
    return -(-int(num_edges) // int(batch_edges))


def iter_edge_batches(
    src: np.ndarray, dst: np.ndarray, batch_edges: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(batch_index, src_chunk, dst_chunk)`` views over an edge stream.

    Views, not copies: the chunks alias the input arrays, so iterating adds
    no memory beyond the caller's stream.  An empty stream yields nothing.
    """
    if batch_edges < 1:
        raise ConfigurationError(f"batch_edges must be >= 1, got {batch_edges}")
    m = int(src.size)
    for k, start in enumerate(range(0, m, int(batch_edges))):
        stop = min(start + int(batch_edges), m)
        yield k, src[start:stop], dst[start:stop]


@dataclass
class DoubleBufferSchedule:
    """Simulated-time ledger of the two-stage (host route / device insert)
    pipeline with double buffering.

    Call :meth:`step` once per batch in stream order with that batch's host
    and device seconds; it returns the batch's contribution to the critical
    path (the growth of the device-finish front).  The sum of the deltas is
    :attr:`elapsed`; :attr:`serial_seconds` accumulates the unoverlapped
    ``sum(h) + sum(d)`` so callers can report how much the overlap saved.
    """

    _host_finish: float = field(default=0.0, init=False)
    _device_finish: float = field(default=0.0, init=False)
    _device_finish_prev: float = field(default=0.0, init=False)
    batches: int = field(default=0, init=False)
    serial_seconds: float = field(default=0.0, init=False)

    def step(self, host_seconds: float, device_seconds: float) -> float:
        """Advance by one batch; returns ``D(k) - D(k-1)`` (>= 0)."""
        if host_seconds < 0 or device_seconds < 0:
            raise ConfigurationError("batch phase seconds must be non-negative")
        start_h = max(self._host_finish, self._device_finish_prev)
        host_done = start_h + host_seconds
        device_done = max(host_done, self._device_finish) + device_seconds
        delta = device_done - self._device_finish
        self._device_finish_prev = self._device_finish
        self._device_finish = device_done
        self._host_finish = host_done
        self.batches += 1
        self.serial_seconds += host_seconds + device_seconds
        return delta

    @property
    def elapsed(self) -> float:
        """Pipelined end-to-end seconds so far (``D`` of the last batch)."""
        return self._device_finish

    @property
    def saved_seconds(self) -> float:
        """Seconds the overlap hid relative to fully serial execution."""
        return max(0.0, self.serial_seconds - self._device_finish)
