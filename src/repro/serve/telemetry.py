"""Serving telemetry: fleet-wide counters, kept in one metrics registry.

The fleet records every observation outcome and every model lifecycle
event (load, save, eviction, refresh) here.  Observations are booked
per tenant batch through :meth:`FleetTelemetry.record_observations`
(a single observe is a batch of one).  The counts live only in the
labeled counter and histogram families of a
:class:`~repro.obs.metrics.MetricsRegistry` — the serving runtime's own
when observability is on, else a private one — so the Prometheus
export, the health probes and :meth:`FleetTelemetry.totals` read one
source.  Families are labeled by tenant *class* (``tenant_class``,
``op``, ...), never by tenant id, so their cardinality stays bounded
however many tenants the fleet ever serves.

:class:`TenantStats` is the fleet-wide totals view over those families.
Per-tenant counts that must outlive an eviction (the control plane's
refresh cadence) are kept by the controller itself; see
:mod:`repro.serve.controller`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

from repro.obs.metrics import MetricsRegistry

__all__ = ["TenantStats", "FleetTelemetry"]

# The lifecycle ops (the ``op`` label of ``repro_lifecycle_total`` and
# ``repro_op_seconds``), a closed set resolved once.
_OPS = ("observe", "load", "save", "delta_save", "evict", "refresh", "reprovision")


@dataclass
class TenantStats:
    """Cumulative serving counters (the fleet-wide totals view)."""

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
    """The fleet's counter sink: write-through to metric families.

    Each ``record_*`` call increments pre-resolved family children (a
    per-child lock each, no telemetry-wide lock), so concurrent
    observers aggregate safely.

    Parameters
    ----------
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` to count into;
        a private one when None.
    tenant_class_of:
        Optional ``tenant_id -> class label`` mapping for the
        ``tenant_class`` label on decision counters (cardinality
        control: label *classes* of tenants, never tenant ids).
        Defaults to the single class ``"all"``.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tenant_class_of: Callable[[str], str] | None = None):
        if metrics is None:
            metrics = MetricsRegistry()
        self._metrics = metrics
        self._tenant_class_of = tenant_class_of
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
        op_seconds = metrics.histogram(
            "repro_op_seconds",
            help="Latency of serving and maintenance operations",
            labels=("op",))
        lifecycle = metrics.counter(
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
        self._op_children = {op: op_seconds.labels(op=op) for op in _OPS}
        self._lifecycle_children = {op: lifecycle.labels(op=op) for op in _OPS}
        # (inside, outside, unembeddable) counter triples per class.
        self._class_children: dict[str, tuple] = {}

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry every count lives in (given or private)."""
        return self._metrics

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
    def record_observations(self, tenant_id: str, decisions,
                            seconds: float = 0.0) -> None:
        """Count a batch of decisions for one tenant.

        Each decision adds the per-record share of ``seconds`` (total
        batch seconds) to the ``observe`` latency histogram, and each
        child is incremented once by the batch's tally: per-decision
        ``inc()`` calls would acquire ~3N child locks per batch and
        rival the scoring work they measure.
        """
        if not decisions:
            return
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
        self._op_children["observe"].observe_repeated(seconds / len(decisions),
                                                      len(decisions))

    def _record_op(self, op: str, seconds: float | None = None) -> None:
        """Count one lifecycle event (and optionally its latency)."""
        self._lifecycle_children[op].inc()
        if seconds is not None:
            self._op_children[op].observe(seconds)

    def record_load(self, tenant_id: str, seconds: float = 0.0) -> None:
        self._record_op("load", seconds)

    def record_save(self, tenant_id: str, seconds: float = 0.0) -> None:
        self._record_op("save", seconds)

    def record_delta_save(self, tenant_id: str, seconds: float = 0.0) -> None:
        self._record_op("delta_save", seconds)

    def record_eviction(self, tenant_id: str) -> None:
        self._record_op("evict")

    def record_refresh(self, tenant_id: str, seconds: float = 0.0) -> None:
        self._record_op("refresh", seconds)

    def record_reprovision(self, tenant_id: str, seconds: float = 0.0) -> None:
        self._record_op("reprovision", seconds)

    def record_quarantine(self, outcome: str) -> None:
        """Count one quarantine admission decision (the buffer itself is
        the source of truth for depth)."""
        child = self._quarantine_children.get(outcome)
        if child is None:
            child = self._quarantine_admissions.labels(outcome=outcome)
            self._quarantine_children[outcome] = child
        child.inc()

    def record_quarantine_depth(self, depth: int) -> None:
        """Set the fleet-wide resident quarantine depth."""
        self._quarantine_depth.set(depth)

    def record_write_stats(self, kind: str, nbytes: int, chain_length: int) -> None:
        """Count checkpoint bytes written and the delta-chain length."""
        self._bytes.labels(kind=kind).inc(nbytes)
        self._chain.set(chain_length)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self) -> TenantStats:
        """Fleet-wide counters, read from the families.

        Decision counts sum over every tenant class; save seconds cover
        full and delta saves, refresh seconds refreshes and reprovisions.
        """
        decisions = {"inside": 0.0, "outside": 0.0}
        for labels, child in self._decisions.series():
            decisions[labels["result"]] += child.value
        unembeddable = sum(child.value for _, child in self._unembeddable.series())
        count = {op: int(child.value) for op, child in self._lifecycle_children.items()}
        seconds = {op: child.sum for op, child in self._op_children.items()}
        inside, outside = int(decisions["inside"]), int(decisions["outside"])
        return TenantStats(
            observations=inside + outside, inside=inside, outside=outside,
            unembeddable=int(unembeddable),
            buffered=int(self._buffered.value),
            updates_applied=int(self._applied.value),
            loads=count["load"], saves=count["save"],
            delta_saves=count["delta_save"], evictions=count["evict"],
            refreshes=count["refresh"], reprovisions=count["reprovision"],
            observe_seconds=seconds["observe"], load_seconds=seconds["load"],
            save_seconds=seconds["save"] + seconds["delta_save"],
            refresh_seconds=seconds["refresh"] + seconds["reprovision"])
