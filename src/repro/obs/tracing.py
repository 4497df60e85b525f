"""Lightweight span tracing for the serving paths.

``with tracer.span("observe", tenant=...)`` records one timed span;
spans opened while another is active on the same thread nest under it,
so an observe that triggers a write-back, or a refresh whose rebuild
and commit phases are timed separately, yields one tree with the
breakdown attached.  The cost stays low enough to leave on in
production (two clock reads and a few attribute writes per span).

Cross-process propagation is opt-in and minimal: a caller that wants a
span to be joinable from another process asks :meth:`Tracer.inject` for
its ``{"trace_id", "span_id"}`` context and ships that dict however it
likes (the cluster router puts it in the request frame header); the
remote side opens its root with ``tracer.span(name, context=ctx)``,
which stamps ``trace_id``/``parent_id`` onto the span so the two sides
can be stitched back into one tree after the fact.  Ids are assigned
lazily — spans that never cross a process boundary pay nothing.

Completed *root* spans update a per-name aggregate (count + seconds);
roots slower than ``slow_threshold`` seconds additionally enter a
bounded ring of recent slow traces, serialised as plain dicts — the
first thing to read when a p99 regression appears in the histograms,
because it answers *which phase* was slow, not just that something was.

Thread model: the active-span stack is thread-local (concurrent
observers never see each other's spans); the ring and aggregates are
shared under one lock taken only at root completion, never per-span.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Mapping

__all__ = ["SLOW_TRACE_RING", "SLOW_TRACE_THRESHOLD", "Span", "Tracer",
           "maybe_span"]

# Shared no-op context for un-instrumented call sites: nullcontext is
# stateless, so one instance serves every thread and nesting depth.
_NULL_SPAN = nullcontext(None)

# Bound on retained slow traces (oldest evicted first).
SLOW_TRACE_RING = 64

# Seconds from which a root span counts as slow.  The serving runtime
# and the cluster router read it when they build their tracers.
SLOW_TRACE_THRESHOLD = 0.1


def maybe_span(tracer: "Tracer | None", name: str,
               context: Mapping | None = None, **attrs):
    """``tracer.span(...)`` when tracing is on, a shared no-op otherwise."""
    return _NULL_SPAN if tracer is None else tracer.span(name, context=context, **attrs)


class Span:
    """One timed operation; children are spans opened while it ran."""

    __slots__ = ("name", "attrs", "started_at", "duration", "children",
                 "trace_id", "span_id", "parent_id")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.started_at = time.perf_counter()
        self.duration: float | None = None
        self.children: list["Span"] = []
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "seconds": self.duration}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = {key: str(value) for key, value in sorted(self.attrs.items())}
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class Tracer:
    """Span recorder with per-name aggregates and a slow-trace ring.

    Parameters
    ----------
    slow_threshold:
        Root spans at least this many seconds long enter the ring of
        the :data:`SLOW_TRACE_RING` most recent slow traces.
    trace_prefix:
        Prepended to generated span ids so ids minted by different
        processes (router vs worker N) never collide after stitching.
    """

    def __init__(self, slow_threshold: float = SLOW_TRACE_THRESHOLD,
                 trace_prefix: str = ""):
        if slow_threshold < 0:
            raise ValueError(f"slow_threshold must be >= 0, got {slow_threshold}")
        self.slow_threshold = slow_threshold
        self.trace_prefix = trace_prefix
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ring: "deque[dict]" = deque(maxlen=SLOW_TRACE_RING)
        self._aggregate: dict[str, list[float]] = {}   # name -> [count, seconds]
        # itertools.count.__next__ is atomic under the GIL, so id
        # generation needs no lock even with concurrent injectors.
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, context: Mapping | None = None, **attrs):
        stack = self._stack()
        span = Span(name, attrs)
        if context is not None:
            trace_id = context.get("trace_id")
            parent_id = context.get("span_id")
            if trace_id is not None:
                span.trace_id = str(trace_id)
            if parent_id is not None:
                span.parent_id = str(parent_id)
        stack.append(span)
        try:
            yield span
        except BaseException as error:
            span.attrs = dict(span.attrs, error=type(error).__name__)
            raise
        finally:
            span.duration = time.perf_counter() - span.started_at
            stack.pop()
            if stack:
                stack[-1].children.append(span)
            else:
                self._finish_root(span)

    def _finish_root(self, span: Span) -> None:
        with self._lock:
            entry = self._aggregate.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += span.duration
            if span.duration >= self.slow_threshold:
                trace = span.to_dict()
                trace["recorded_at"] = time.time()
                self._ring.append(trace)

    def inject(self, span: Span) -> dict[str, str]:
        """Mint ids for ``span`` and return its propagation context.

        The returned ``{"trace_id", "span_id"}`` dict is what a remote
        process should pass as ``context=`` when opening the span that
        logically continues this one.  A span without a trace id starts
        a new trace rooted at itself; repeated injection of the same
        span is idempotent.
        """
        if span.span_id is None:
            suffix = str(next(self._ids))
            span.span_id = (f"{self.trace_prefix}-{suffix}"
                            if self.trace_prefix else suffix)
        if span.trace_id is None:
            span.trace_id = span.span_id
        return {"trace_id": span.trace_id, "span_id": span.span_id}

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def slow_traces(self) -> list[dict]:
        """Recent slow root traces, oldest first."""
        with self._lock:
            return list(self._ring)

    def snapshot(self) -> dict:
        """Aggregates + slow ring, JSON-ready and deterministic."""
        with self._lock:
            spans = {name: {"count": entry[0], "seconds": entry[1]}
                     for name, entry in sorted(self._aggregate.items())}
            ring = list(self._ring)
        return {"slow_threshold": self.slow_threshold,
                "spans": spans, "slow_traces": ring}
