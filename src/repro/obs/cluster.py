"""Cluster-wide observability: merge worker snapshots at the router.

PR 6 gave every process its own registry, tracer, and health probes;
PR 7 put N worker processes behind a router.  This module is the fold
that makes the router the single observability endpoint for the whole
cluster, working entirely on the *snapshot* forms that ship over the
cluster protocol (no live objects cross a process boundary):

* :func:`merge_worker_snapshots` — pure aggregation of per-worker
  families dicts: counters sum, gauges sum or take the max per family
  semantics (:func:`gauge_merge_mode`), histograms fold through
  :func:`~repro.obs.metrics.merged_histogram`.  Merging one worker's
  snapshot returns it byte-for-byte, so a one-worker cluster exports
  exactly what that worker would have.
* :func:`cluster_families` — the export form `Router.metrics()` serves:
  router-local families pass through, every worker family appears both
  aggregated (no ``worker`` label) and per-worker (``worker="0"`` ...),
  because worker-local label values collide across workers (every
  worker reports ``op="observe"``, ``tenant_class="all"``, ...) and the
  ``worker`` label — the only partition label — keeps them apart.  Worker ``repro_health_*`` gauges are dropped here — the
  rollup re-expresses health with ``(probe, worker)`` labels.
* :func:`stitch_traces` — grafts worker slow traces under the router
  spans that caused them, matching the worker root's ``parent_id``
  against router span ids (:meth:`~repro.obs.tracing.Tracer.inject`),
  so ``repro obs render`` shows one router→worker tree per slow request.
* :class:`ClusterHealthMonitor` — folds per-worker probe grades
  (worst-of per probe), worker liveness (any dead or unresponsive
  worker ⇒ critical ``worker_up``), and the standby's replication lag
  into one graded report, mirrored into ``repro_health_*`` gauges with
  ``(probe, worker)`` labels.
"""

from __future__ import annotations

import copy
from typing import Mapping, Sequence

from repro.obs.health import PROBE_THRESHOLDS, ProbeResult, STATUS_LEVELS, grade
from repro.obs.metrics import merged_family

__all__ = [
    "ClusterHealthMonitor",
    "cluster_families",
    "gauge_merge_mode",
    "merge_worker_snapshots",
    "stitch_traces",
]


def gauge_merge_mode(name: str) -> str:
    """Cross-process fold for a gauge family: ``"sum"`` or ``"max"``.

    Additive gauges (queue depths, quarantine depths, resident counts)
    sum — the cluster total is the operational number.  Level-style
    gauges (ages, lags, chain lengths, probe grades) take the max:
    adding one worker's staleness to another's is meaningless, the
    worst worker is the signal.
    """
    if name.startswith("repro_health_"):
        return "max"
    if name.endswith(("_age_seconds", "_lag", "_lag_seconds", "_chain_length")):
        return "max"
    return "sum"


def merge_worker_snapshots(snapshots: Sequence[Mapping]) -> dict:
    """Fold per-worker families dicts into one aggregate families dict.

    ``snapshots`` is a sequence of ``{family name: family snapshot}``
    mappings (one per worker, the registry ``snapshot()`` form shipped
    by the ``obs_snapshot`` protocol op).  Families missing from some
    workers merge over the workers that have them.  Raises on an empty
    worker set — an aggregate of nothing is a bug upstream, not zero.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise ValueError("no worker snapshots to merge (empty worker set)")
    names = sorted({name for families in snapshots for name in families})
    return {name: merged_family([families[name] for families in snapshots
                                 if name in families],
                                gauge_mode=gauge_merge_mode(name))
            for name in names}


def cluster_families(router_families: Mapping,
                     worker_families: Mapping[int, Mapping]) -> dict:
    """Build the merged export form served by ``Router.metrics()``.

    ``router_families`` (the router's own registry snapshot) passes
    through untouched; its names (``repro_router_*``,
    ``repro_replication_*``, ``repro_health_*``) are disjoint from
    worker families by construction and win on collision.  Each worker
    family contributes an aggregated series per label set (no
    ``worker`` key, values folded per :func:`gauge_merge_mode`) plus
    one series per worker tagged ``worker=str(index)``.
    """
    out = {name: family for name, family in router_families.items()}
    names = sorted({name for families in worker_families.values()
                    for name in families})
    for name in names:
        if name.startswith("repro_health_") or name in out:
            continue
        present = {index: worker_families[index][name]
                   for index in sorted(worker_families)
                   if name in worker_families[index]}
        merged = merged_family(list(present.values()),
                               gauge_mode=gauge_merge_mode(name))
        series = [dict(entry) for entry in merged["series"]]
        for index, family in present.items():
            for entry in family["series"]:
                row = dict(entry)
                row["labels"] = {**entry["labels"], "worker": str(index)}
                series.append(row)
        folded: dict = {"type": merged["type"], "help": merged["help"],
                        "labels": merged["labels"] + ["worker"],
                        "series": series}
        if "bounds" in merged:
            folded["bounds"] = merged["bounds"]
        out[name] = folded
    return out


def _index_spans(trace: dict, index: dict[str, dict]) -> None:
    span_id = trace.get("span_id")
    if span_id is not None:
        index[span_id] = trace
    for child in trace.get("children", ()):
        _index_spans(child, index)


def stitch_traces(router_traces: Mapping | None,
                  worker_traces: Mapping[int, Mapping | None]) -> dict:
    """Join router and worker tracer snapshots into one span forest.

    Worker slow traces whose root carries a ``parent_id`` minted by the
    router are grafted under that router span (deep-copied — tracer
    snapshots share their ring's dicts); the rest are kept standalone.
    Either way the worker's spans gain a ``worker`` attribute.  Span
    aggregates merge by name across all processes.
    """
    merged_spans: dict[str, dict] = {}
    slow: list[dict] = []
    threshold = 0.0
    if router_traces:
        threshold = router_traces.get("slow_threshold", 0.0)
        for name, entry in router_traces.get("spans", {}).items():
            merged_spans[name] = dict(entry)
        slow = copy.deepcopy(list(router_traces.get("slow_traces", ())))
    by_span_id: dict[str, dict] = {}
    for trace in slow:
        _index_spans(trace, by_span_id)
    orphans: list[dict] = []
    for index in sorted(worker_traces):
        traces = worker_traces[index]
        if not traces:
            continue
        for name, entry in traces.get("spans", {}).items():
            slot = merged_spans.setdefault(name, {"count": 0, "seconds": 0.0})
            slot["count"] += entry["count"]
            slot["seconds"] += entry["seconds"]
        for trace in traces.get("slow_traces", ()):
            graft = copy.deepcopy(trace)
            attrs = dict(graft.get("attrs", {}))
            attrs["worker"] = str(index)
            graft["attrs"] = attrs
            parent = by_span_id.get(graft.get("parent_id"))
            if parent is not None:
                parent.setdefault("children", []).append(graft)
            else:
                orphans.append(graft)
    slow.extend(orphans)
    return {"slow_threshold": threshold,
            "spans": {name: merged_spans[name] for name in sorted(merged_spans)},
            "slow_traces": slow}


class ClusterHealthMonitor:
    """Grade the whole cluster from worker reports plus router-side facts.

    Stateless between checks: every :meth:`check` folds the probe
    dicts the workers shipped (``ProbeResult.as_dict()`` form), the
    per-worker liveness the router observed, and the standby's
    replication lag (graded by ``PROBE_THRESHOLDS["replication_lag"]``
    from :mod:`repro.obs.health`).  Results mirror into
    ``repro_health_value`` / ``repro_health_status`` gauges labeled
    ``(probe, worker)`` — ``worker="cluster"`` for folded grades,
    ``worker="router"`` for the replication probe, ``worker="<i>"`` for
    raw per-worker readings.
    """

    def __init__(self, metrics=None):
        self._metrics = metrics
        if metrics is not None:
            self._value_gauge = metrics.gauge(
                "repro_health_value",
                help="Raw value of each health probe, per worker and folded",
                labels=("probe", "worker"))
            self._status_gauge = metrics.gauge(
                "repro_health_status",
                help="Probe status: 0=ok 1=warn 2=critical",
                labels=("probe", "worker"))

    # ------------------------------------------------------------------
    def check(self, worker_up: Mapping[int, bool],
              worker_probes: Mapping[int, Mapping | None] | None = None,
              replication_lag: float = 0.0) -> dict[str, ProbeResult]:
        """Folded cluster report: ``{probe name: ProbeResult}``."""
        folded, _ = self._evaluate(worker_up, worker_probes or {},
                                   replication_lag)
        return folded

    def report(self, worker_up: Mapping[int, bool],
               worker_probes: Mapping[int, Mapping | None] | None = None,
               replication_lag: float = 0.0) -> dict:
        """Folded + per-worker report, JSON-ready for CLI tables."""
        folded, per_worker = self._evaluate(worker_up, worker_probes or {},
                                            replication_lag)
        worst = max(folded.values(), key=lambda result: result.level)
        return {
            "status": worst.status,
            "probes": {name: result.as_dict()
                       for name, result in folded.items()},
            "workers": {str(index): {name: result.as_dict()
                                     for name, result in probes.items()}
                        for index, probes in per_worker.items()},
        }

    # ------------------------------------------------------------------
    def _evaluate(self, worker_up, worker_probes, replication_lag):
        per_worker: dict[int, dict[str, ProbeResult]] = {}
        for index in sorted(worker_probes):
            probes = worker_probes[index]
            if not probes:
                continue
            per_worker[index] = {
                name: ProbeResult.from_dict(entry)
                for name, entry in sorted(probes.items())}

        folded: dict[str, ProbeResult] = {}
        down = sorted(index for index in worker_up if not worker_up[index])
        folded["worker_up"] = ProbeResult(
            probe="worker_up", value=float(len(down)),
            status="critical" if down else "ok",
            warn_at=1.0, critical_at=1.0,
            detail=(f"workers {down} dead or unresponsive — their hash "
                    "slices are not being served" if down else ""))
        names = sorted({name for probes in per_worker.values()
                        for name in probes})
        for name in names:
            worst_index, worst = max(
                ((index, probes[name]) for index, probes in per_worker.items()
                 if name in probes),
                key=lambda item: (item[1].level, item[1].value, -item[0]))
            detail = (f"worker {worst_index}: {worst.detail}"
                      if worst.detail else f"worst of worker {worst_index}")
            folded[name] = ProbeResult(
                probe=name, value=worst.value, status=worst.status,
                warn_at=worst.warn_at, critical_at=worst.critical_at,
                detail=detail)
        lag = float(replication_lag)
        warn_at, critical_at = PROBE_THRESHOLDS["replication_lag"]
        folded["replication_lag"] = ProbeResult(
            probe="replication_lag", value=lag,
            status=grade(lag, warn_at, critical_at),
            warn_at=warn_at, critical_at=critical_at,
            detail=(f"newest standby apply ran {lag:.2f}s after its commit"
                    if lag else ""))

        if self._metrics is not None:
            for name, result in folded.items():
                worker = "router" if name == "replication_lag" else "cluster"
                self._value_gauge.labels(probe=name, worker=worker).set(result.value)
                self._status_gauge.labels(probe=name, worker=worker).set(result.level)
            for index, up in sorted(worker_up.items()):
                level = STATUS_LEVELS["ok" if up else "critical"]
                self._value_gauge.labels(probe="worker_up",
                                         worker=str(index)).set(0.0 if up else 1.0)
                self._status_gauge.labels(probe="worker_up",
                                          worker=str(index)).set(level)
            for index, probes in per_worker.items():
                for name, result in probes.items():
                    self._value_gauge.labels(
                        probe=name, worker=str(index)).set(result.value)
                    self._status_gauge.labels(
                        probe=name, worker=str(index)).set(result.level)
        return folded, per_worker
