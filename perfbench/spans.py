"""Span recording around the serving stack's public functions.

The benchmark measures each layer from outside: :func:`install` replaces
a fixed list of public functions and methods with wrappers that record a
span (name, start, end, parent, batch id, attributes) per call, and
returns a callable that puts the originals back.  Spans live in memory
until the run ends; :func:`self_times` turns them into per-layer self
time, which is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    batch: int
    attrs: dict = field(default_factory=dict)
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "batch": self.batch,
                "attrs": self.attrs, "error": self.error}


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.batch = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, annotate=None):
        """``fn`` recording one span per call; ``annotate(args, kwargs,
        result)`` returns attributes to keep on the span."""
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None,
                        recorder.batch)
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                span.error = True
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _patch(owner, attr: str, replacement, undo: list) -> None:
    original = owner.__dict__[attr]
    setattr(owner, attr, replacement)
    undo.append((owner, attr, original))


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1])}


def _save_attrs(args, kwargs, result) -> dict:
    from repro.serve.checkpoint import last_write
    stats = last_write()
    return {"kind": stats.kind if stats is not None else "full",
            "bytes": stats.bytes_written if stats is not None else 0}


def install(recorder: Recorder, side: str = "server"):
    """Wrap the layer boundaries this process runs; returns an undo callable.

    ``side="server"`` covers everything that serves a batch in this
    process (runtime, fleet, checkpoint, GEM, histogram, telemetry,
    quarantine, controller, BiSAGE fits).  ``side="router"`` covers the
    cluster router's codec and framing, which the router module imported
    by name.
    """
    undo: list = []
    if side == "router":
        from repro.serve.cluster import router
        from repro.serve.cluster.router import Router
        _patch(Router, "observe_many",
               recorder.wrap(Router.observe_many, "cluster.observe_many"), undo)
        _patch(router, "encode_record",
               recorder.wrap(router.encode_record, "cluster.encode"), undo)
        _patch(router, "decode_decision",
               recorder.wrap(router.decode_decision, "cluster.decode"), undo)

        original_write = router.write_frame
        last = {"bytes": 0}

        def counted_write(stream, header, blobs=()):
            # write_frame encodes before it writes; count what it sends.
            counter = _CountingStream(stream)
            original_write(counter, header, blobs)
            last["bytes"] = counter.written

        _patch(router, "write_frame",
               recorder.wrap(counted_write, "cluster.write_frame",
                             lambda a, k, r: {"bytes": last["bytes"]}),
               undo)
    else:
        from repro.core.embedders import _GraphEmbedderBase
        from repro.core.gem import EmbeddingGeofencer
        from repro.detection.histogram import HistogramDetector
        from repro.embedding.bisage import BiSAGE
        from repro.nn.batch import SageInferenceKernel
        from repro.serve.batchplane import BatchPlane
        from repro.serve.fleet import GeofenceFleet
        from repro.serve.quarantine import QuarantineBuffer
        from repro.serve.registry import ModelRegistry
        from repro.serve.runtime import ServingRuntime
        from repro.serve.telemetry import FleetTelemetry

        plain = [
            (ServingRuntime, "observe_many", "runtime.observe_many", None),
            (ServingRuntime, "maintain", "controller.maintain", None),
            (GeofenceFleet, "observe_many", "fleet.observe_many", None),
            (GeofenceFleet, "refresh", "controller.refresh", None),
            (GeofenceFleet, "reprovision_from_quarantine",
             "controller.recover", None),
            (ModelRegistry, "load_with_baseline", "fleet.load", None),
            (ModelRegistry, "load_with_manifest", "fleet.load", None),
            (ModelRegistry, "save", "checkpoint.save", _save_attrs),
            (ModelRegistry, "save_incremental", "checkpoint.save", _save_attrs),
            (BatchPlane, "observe_batch", "batchplane.observe_batch",
             lambda a, k, r: {"outcome": r[1]}),
            (EmbeddingGeofencer, "observe_many", "gem.observe_many", None),
            (_GraphEmbedderBase, "attach_prepared", "gem.attach", None),
            (SageInferenceKernel, "embed", "gem.embed", None),
            (HistogramDetector, "score_batch", "histogram.score", _rows),
            (HistogramDetector, "update", "histogram.update", _rows),
            (FleetTelemetry, "record_observations", "telemetry.record", None),
            (QuarantineBuffer, "consider", "quarantine.consider",
             lambda a, k, r: {"outcome": r}),
            (BiSAGE, "fit", "bisage.fit", None),
        ]
        for owner, attr, name, annotate in plain:
            _patch(owner, attr,
                   recorder.wrap(owner.__dict__[attr], name, annotate), undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


class _CountingStream:
    """Write-through stream wrapper that counts bytes."""

    def __init__(self, stream):
        self.stream = stream
        self.written = 0

    def write(self, data) -> int:
        self.written += len(data)
        return self.stream.write(data)

    def flush(self) -> None:
        self.stream.flush()


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval first, and
    overlapping children (threads, or a child that outlived a sibling)
    are counted once, so a span's self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [span.duration - covered(children.get(index, ()))
            for index, span in enumerate(spans)]
