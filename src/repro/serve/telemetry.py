"""Serving telemetry: per-tenant and fleet-wide counters.

The fleet records every observation outcome and every model lifecycle
event (load, save, eviction) against the tenant it belongs to.
Counters are plain integers plus a few seconds-accumulators, guarded by
one lock so concurrent observers aggregate safely; :meth:`snapshot`
returns deep copies that are safe to serialise or diff, with tenants,
retired aggregate and totals all read under a single lock acquisition
so the three sections describe the same instant (conservation: totals
== sum(tenants) + retired, always).

Optionally a telemetry instance is **backed by a**
:class:`~repro.obs.metrics.MetricsRegistry`: every ``record_*`` call
additionally feeds labeled counter/histogram families (``tenant_class``,
``op``, ...), which is how the serving runtime gets
latency percentiles and a Prometheus export without touching the
fleet's hot path twice.  The mirror is write-through with pre-resolved
children — a handful of cheap per-child lock acquisitions per record —
and the classic :meth:`snapshot` shape is unchanged either way.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from typing import Callable

__all__ = ["TenantStats", "FleetTelemetry"]


@dataclass
class TenantStats:
    """Cumulative counters for one tenant."""

    observations: int = 0
    inside: int = 0
    outside: int = 0
    unembeddable: int = 0      # footnote-3 records (score = +inf)
    buffered: int = 0          # confident inliers entering the update buffer
    updates_applied: int = 0   # batch updates actually flushed into the detector
    loads: int = 0             # checkpoint loads (cache misses)
    saves: int = 0             # full checkpoint write-backs
    delta_saves: int = 0       # incremental (delta) write-backs
    evictions: int = 0         # LRU evictions
    refreshes: int = 0         # coordinated refreshes (detector refits)
    reprovisions: int = 0      # full refits from the recent-inlier reservoir
    observe_seconds: float = 0.0
    load_seconds: float = 0.0
    save_seconds: float = 0.0
    refresh_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "TenantStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class FleetTelemetry:
    """Thread-safe registry of :class:`TenantStats`, one per tenant.

    Per-tenant entries are bounded: when the fleet evicts a tenant it
    calls :meth:`retire`, folding the counters into one ``retired``
    aggregate so fleet-wide totals stay exact while memory stays
    proportional to the *resident* set, not every tenant ever served.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to mirror
        every recording into.
    tenant_class_of:
        Optional ``tenant_id -> class label`` mapping for the
        ``tenant_class`` label on decision counters (cardinality
        control: label *classes* of tenants, never tenant ids).
        Defaults to the single class ``"all"``.
    """

    def __init__(self, metrics=None,
                 tenant_class_of: Callable[[str], str] | None = None):
        self._stats: dict[str, TenantStats] = {}
        self._retired = TenantStats()
        self._lock = threading.Lock()
        self._metrics = metrics
        self._tenant_class_of = tenant_class_of
        if metrics is not None:
            self._decisions = metrics.counter(
                "repro_decisions_total",
                help="Geofence decisions by outcome",
                labels=("tenant_class", "result"))
            self._unembeddable = metrics.counter(
                "repro_unembeddable_total",
                help="Records with no embeddable MAC overlap (score=+inf)",
                labels=("tenant_class",))
            self._buffered = metrics.counter(
                "repro_update_buffered_total",
                help="Confident inliers entering the self-update buffer").labels()
            self._applied = metrics.counter(
                "repro_updates_applied_total",
                help="Batch self-updates flushed into detectors").labels()
            self._op_seconds = metrics.histogram(
                "repro_op_seconds",
                help="Latency of serving and maintenance operations",
                labels=("op",))
            self._lifecycle = metrics.counter(
                "repro_lifecycle_total",
                help="Model lifecycle events by operation",
                labels=("op",))
            self._bytes = metrics.counter(
                "repro_checkpoint_bytes_total",
                help="Checkpoint bytes written, by save kind",
                labels=("kind",))
            self._chain = metrics.gauge(
                "repro_delta_chain_length",
                help="Delta-chain length after the most recent write-back").labels()
            self._quarantine_admissions = metrics.counter(
                "repro_quarantine_admissions_total",
                help="Quarantine admission decisions by outcome "
                     "(admitted / no-anchor / inconsistent / sampled-out)",
                labels=("outcome",))
            self._quarantine_depth = metrics.gauge(
                "repro_quarantine_depth",
                help="Rejected-but-home-anchored records held across the "
                     "fleet's resident quarantine buffers").labels()
            # Outcome children resolved lazily (the set is closed but a
            # quarantine-off fleet should create no series at all).
            self._quarantine_children: dict[str, object] = {}
            # Pre-resolved histogram/lifecycle children (op label is a
            # closed set, so resolve once and index by op string).
            ops = ("observe", "load", "save", "delta_save", "evict",
                   "refresh", "reprovision")
            self._op_children = {op: self._op_seconds.labels(op=op)
                                 for op in ops}
            self._lifecycle_children = {op: self._lifecycle.labels(op=op)
                                        for op in ops}
            # (inside, outside, unembeddable) counter triples per class.
            self._class_children: dict[str, tuple] = {}

    @property
    def metrics(self):
        """The backing MetricsRegistry (None when unmirrored)."""
        return self._metrics

    def _tenant(self, tenant_id: str) -> TenantStats:
        stats = self._stats.get(tenant_id)
        if stats is None:
            stats = self._stats.setdefault(tenant_id, TenantStats())
        return stats

    def _decision_children(self, tenant_id: str) -> tuple:
        label = self._tenant_class_of(tenant_id) if self._tenant_class_of else "all"
        children = self._class_children.get(label)
        if children is None:
            children = (
                self._decisions.labels(tenant_class=label,
                                       result="inside"),
                self._decisions.labels(tenant_class=label,
                                       result="outside"),
                self._unembeddable.labels(tenant_class=label),
            )
            self._class_children[label] = children
        return children

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_observation(self, tenant_id: str, decision, seconds: float = 0.0) -> None:
        """Fold one GeofenceDecision into the tenant's counters."""
        with self._lock:
            stats = self._tenant(tenant_id)
            stats.observations += 1
            if decision.inside:
                stats.inside += 1
            else:
                stats.outside += 1
            if math.isinf(decision.score):
                stats.unembeddable += 1
            if decision.buffered:
                stats.buffered += 1
            if decision.updated:
                stats.updates_applied += 1
            stats.observe_seconds += seconds
        if self._metrics is not None:
            inside, outside, unembeddable = self._decision_children(tenant_id)
            (inside if decision.inside else outside).inc()
            if math.isinf(decision.score):
                unembeddable.inc()
            if decision.buffered:
                self._buffered.inc()
            if decision.updated:
                self._applied.inc()
            self._op_children["observe"].observe(seconds)

    def record_observations(self, tenant_id: str, decisions,
                            seconds: float = 0.0) -> None:
        """Fold a whole batch of decisions for one tenant.

        Equivalent to ``record_observation`` per decision with the
        per-record share of ``seconds`` (total batch seconds), but one
        lock acquisition covers the tenant counters — on the batch data
        plane the per-record locking would otherwise rival the scoring
        work it measures.
        """
        if not decisions:
            return
        each = seconds / len(decisions)
        # Tally outside any lock, then apply each total in one locked
        # update — per-decision child.inc() calls would acquire ~3N
        # metric locks per batch and rival the scoring work itself.
        inside = unembeddable = buffered = updated = 0
        for decision in decisions:
            if decision.inside:
                inside += 1
            if math.isinf(decision.score):
                unembeddable += 1
            if decision.buffered:
                buffered += 1
            if decision.updated:
                updated += 1
        outside = len(decisions) - inside
        with self._lock:
            stats = self._tenant(tenant_id)
            stats.observations += len(decisions)
            stats.inside += inside
            stats.outside += outside
            stats.unembeddable += unembeddable
            stats.buffered += buffered
            stats.updates_applied += updated
            stats.observe_seconds += seconds
        if self._metrics is not None:
            inside_child, outside_child, unembeddable_child = \
                self._decision_children(tenant_id)
            if inside:
                inside_child.inc(inside)
            if outside:
                outside_child.inc(outside)
            if unembeddable:
                unembeddable_child.inc(unembeddable)
            if buffered:
                self._buffered.inc(buffered)
            if updated:
                self._applied.inc(updated)
            self._op_children["observe"].observe_repeated(each, len(decisions))

    def _record_op(self, op: str, seconds: float | None = None) -> None:
        """Mirror one lifecycle event (and optionally its latency)."""
        if self._metrics is None:
            return
        self._lifecycle_children[op].inc()
        if seconds is not None:
            self._op_children[op].observe(seconds)

    def record_load(self, tenant_id: str, seconds: float = 0.0) -> None:
        with self._lock:
            stats = self._tenant(tenant_id)
            stats.loads += 1
            stats.load_seconds += seconds
        self._record_op("load", seconds)

    def record_save(self, tenant_id: str, seconds: float = 0.0) -> None:
        with self._lock:
            stats = self._tenant(tenant_id)
            stats.saves += 1
            stats.save_seconds += seconds
        self._record_op("save", seconds)

    def record_delta_save(self, tenant_id: str, seconds: float = 0.0) -> None:
        with self._lock:
            stats = self._tenant(tenant_id)
            stats.delta_saves += 1
            stats.save_seconds += seconds
        self._record_op("delta_save", seconds)

    def record_eviction(self, tenant_id: str) -> None:
        with self._lock:
            self._tenant(tenant_id).evictions += 1
        self._record_op("evict")

    def record_refresh(self, tenant_id: str, seconds: float = 0.0) -> None:
        with self._lock:
            stats = self._tenant(tenant_id)
            stats.refreshes += 1
            stats.refresh_seconds += seconds
        self._record_op("refresh", seconds)

    def record_reprovision(self, tenant_id: str, seconds: float = 0.0) -> None:
        with self._lock:
            stats = self._tenant(tenant_id)
            stats.reprovisions += 1
            stats.refresh_seconds += seconds
        self._record_op("reprovision", seconds)

    def record_quarantine(self, outcome: str) -> None:
        """Mirror one quarantine admission decision (metrics-only: the
        buffer itself is the source of truth for depth, and
        :class:`TenantStats` keeps its shape)."""
        if self._metrics is None:
            return
        child = self._quarantine_children.get(outcome)
        if child is None:
            child = self._quarantine_admissions.labels(outcome=outcome)
            self._quarantine_children[outcome] = child
        child.inc()

    def record_quarantine_depth(self, depth: int) -> None:
        """Mirror the fleet-wide resident quarantine depth."""
        if self._metrics is None:
            return
        self._quarantine_depth.set(depth)

    def record_write_stats(self, kind: str, nbytes: int, chain_length: int) -> None:
        """Mirror checkpoint write accounting (metrics-only; no
        :class:`TenantStats` field changes shape for this)."""
        if self._metrics is None:
            return
        self._bytes.labels(kind=kind).inc(nbytes)
        self._chain.set(chain_length)

    def retire(self, tenant_id: str) -> None:
        """Fold a no-longer-resident tenant's counters into the aggregate."""
        with self._lock:
            stats = self._stats.pop(tenant_id, None)
            if stats is not None:
                self._retired.merge(stats)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def tenant(self, tenant_id: str) -> TenantStats:
        """Copy of one tenant's counters (zeros if never seen)."""
        with self._lock:
            stats = self._stats.get(tenant_id, TenantStats())
            return TenantStats(**stats.as_dict())

    def totals(self) -> TenantStats:
        """Fleet-wide counters: every tracked tenant plus the retired sum."""
        with self._lock:
            total = TenantStats(**self._retired.as_dict())
            for stats in self._stats.values():
                total.merge(stats)
            return total

    def snapshot(self) -> dict:
        """``{"tenants", "retired", "totals"}`` counters, deep-copied.

        ``tenants`` holds per-tenant counters for tenants not yet
        retired; ``retired`` is the folded aggregate of evicted ones;
        ``totals`` is their exact fleet-wide sum.  All three come from
        one lock acquisition, so a snapshot taken mid-stream is
        internally consistent: a concurrent ``record_observation`` or
        ``retire`` lands entirely in this snapshot or entirely in the
        next, never half in each.
        """
        with self._lock:
            tenants = {tid: stats.as_dict() for tid, stats in sorted(self._stats.items())}
            retired = self._retired.as_dict()
            total = TenantStats(**self._retired.as_dict())
            for stats in self._stats.values():
                total.merge(stats)
            return {"tenants": tenants, "retired": retired, "totals": total.as_dict()}
