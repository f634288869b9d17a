"""In-memory span recorder that wraps library functions from the outside.

A :class:`Tracer` replaces a function or method at the place where the
program looks it up (a module global or a class attribute) with a wrapper
that opens a span around each call, and puts every original back on
:meth:`Tracer.restore`.  Spans carry name, start, end, parent and run id and
stay in memory until :meth:`Tracer.write` stores them once, at the end of the
run.  Each thread keeps its own span stack, so calls made on a service's
worker threads nest under the right parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

#: ``note(args, kwargs, result) -> attrs`` records counts at the call site.
Note = Callable[[tuple, dict, Any], dict]

_MISSING = object()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one run and owns the wrappers it installed."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        record = Span(
            id=span_id,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else None,
            run=self.run_id,
        )
        stack.append(span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    # -------------------------------------------------------------- wrappers
    def wrap(self, owner: Any, attr: str, name: str, note: Note | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a ``name`` span."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if note is not None:
                    record.attrs.update(note(args, kwargs, result))
                return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, saved)

    # ---------------------------------------------------------------- output
    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**raw) for raw in json.load(fh)]


def self_times(spans: list[Span]) -> dict[tuple[str, int], float]:
    """Self time of every span, keyed by ``(run, id)``.

    Self time is the span's duration minus the part of its interval that its
    child spans cover; overlapping children are counted once.
    """
    children: dict[tuple[str, int], list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault((s.run, s.parent), []).append(s)
    out: dict[tuple[str, int], float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for child in sorted(children.get((s.run, s.id), ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[(s.run, s.id)] = s.duration - covered
    return out
