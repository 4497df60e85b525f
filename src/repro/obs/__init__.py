"""Observability for the serving runtime: metrics, tracing, health.

The serving runtime existed (PR 5) before it got observable: the only
window into a running fleet was :class:`~repro.serve.telemetry.FleetTelemetry`'s
plain counters.  This package adds the missing layer, designed to be
near-free on the observe path and zero-dependency:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket latency histograms (streaming p50/p90/p99,
  no samples stored) with labeled families (``tenant_class``, ``op``,
  ...; the cluster merge adds ``worker``);
* :mod:`repro.obs.tracing` — :class:`Tracer` span API recording nested
  timings on the observe / write-back / refresh / compaction paths,
  with a bounded ring of recent slow traces;
* :mod:`repro.obs.export` — Prometheus text exposition + canonical
  JSON snapshots + the opt-in :class:`MetricsDumper` JSONL recorder;
* :mod:`repro.obs.health` — :class:`HealthMonitor` probes turning
  measured failure modes (stuck refresh streaks, reservoir starvation,
  decision-bus depth) into thresholded gauges;
* :mod:`repro.obs.cluster` — the cluster fold: merge per-worker
  snapshots (counters sum, gauges sum/max, histograms fold), stitch
  router→worker span trees, and roll worker health + liveness +
  replication lag into one graded :class:`ClusterHealthMonitor` report.

:class:`~repro.serve.runtime.ServingRuntime` wires the per-process
layers together (``observability=True`` by default) and the cluster
:class:`~repro.serve.cluster.Router` aggregates them;
``runtime.metrics()`` / ``runtime.export_prometheus()`` and their
router counterparts are the read surfaces.
"""

from repro.obs.cluster import (
    ClusterHealthMonitor,
    cluster_families,
    gauge_merge_mode,
    stitch_traces,
)
from repro.obs.export import (
    MetricsDumper,
    diff_snapshots,
    histogram_percentiles,
    render_prometheus,
    snapshot_to_json,
)
from repro.obs.health import STATUS_LEVELS, HealthMonitor, ProbeResult
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    bucket_quantile,
    merged_family,
    merged_histogram,
)
from repro.obs.tracing import Span, Tracer, maybe_span

__all__ = [
    "ClusterHealthMonitor",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "MetricFamily",
    "MetricsDumper",
    "MetricsRegistry",
    "ProbeResult",
    "STATUS_LEVELS",
    "Span",
    "Tracer",
    "bucket_quantile",
    "cluster_families",
    "diff_snapshots",
    "gauge_merge_mode",
    "histogram_percentiles",
    "maybe_span",
    "merged_family",
    "merged_histogram",
    "render_prometheus",
    "snapshot_to_json",
]
