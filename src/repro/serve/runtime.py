"""`repro.serve.runtime` — the serving daemon.

PR 4 left `repro.serve` a passive library: one fleet, one lock, and a
controller that only acts when the caller remembers to call it.  The
:class:`ServingRuntime` is the serving *process* around that library:
one :class:`~repro.serve.fleet.GeofenceFleet`, one
:class:`~repro.serve.controller.FleetController` and one decision bus.
Tenants are partitioned across processes by the cluster
:class:`~repro.serve.cluster.router.Router`, never inside one:
in-process thread shards measured slower as shards were added, so the
process is the only partition unit.

* **Decision bus** — the data plane appends each (tenant, decision)
  pair to a lock-free queue instead of stepping the controller inline,
  and :meth:`ServingRuntime.maintain` drains the queue into the
  controller.  A decision joins the bus only when its tenant's policy
  can act.  The controller's bookkeeping — and any refresh it decides
  to run — stays off the observe path, while the controller itself
  stays single-threaded (only the ``maintain()`` caller ever touches
  it).
* **Serial maintenance** — maintenance (coordinated refresh,
  escalation to re-provision, recovery) runs when the caller calls
  :meth:`ServingRuntime.maintain` (a cluster worker does on the
  router's ``maintain`` op) and at no other time, so a tenant's model
  changes only at points of its record stream.
* **Incremental checkpoints** — the runtime defaults to the delta
  write-back format (:func:`repro.serve.checkpoint.save_incremental`),
  cutting the LRU's write-back amplification: an eviction whose state
  only grew appends a tail instead of rewriting the model.

Determinism contract: ``ServingRuntime(root, incremental=False)`` is
bit-identical to a bare :class:`~repro.serve.fleet.GeofenceFleet` —
same decisions, same
checkpoint state — and with ``incremental=True`` the *reconstructed*
state is still identical; only the on-disk layout differs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from repro.core.protocols import GeofenceDecision, GeofenceModel
from repro.core.records import SignalRecord
from repro.obs import tracing
from repro.obs.export import render_prometheus
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.pipeline import PipelineSpec
from repro.serve.controller import FleetController
from repro.serve.fleet import DEFAULT_RESERVOIR_SIZE, GeofenceFleet
from repro.serve.policy import MaintenancePolicy
from repro.serve.registry import ModelRegistry
from repro.serve.telemetry import FleetTelemetry, TenantStats

__all__ = ["ServingRuntime"]


class ServingRuntime:
    """Serially maintained, multi-tenant geofence server.

    Parameters
    ----------
    registry:
        Checkpoint store (or a path to root one at).
    capacity:
        LRU budget: at most this many resident models.
    policy:
        Default maintenance policy, executed by the controller as
        :meth:`maintain` drains decisions off the bus.  A tenant whose
        spec carries a ``maintenance`` block runs that block instead,
        resident or not.
    scheduler_interval:
        Must be ``None``: the background maintenance thread is removed,
        and any other value raises ValueError.
    incremental:
        Use the incremental checkpoint format for write-backs
        (default on — this is the runtime's amplification fix; pass
        False for byte-layout compatibility with plain fleets).
    model_factory / reservoir_size:
        Forwarded to the :class:`GeofenceFleet`.
    quarantine_size:
        Forwarded to the fleet: capacity (0 disables — the default,
        keeping existing runtimes bit-identical) of the per-tenant
        :class:`~repro.serve.quarantine.QuarantineBuffer` that collects
        admission-gated rejected evidence for starvation recovery.
    observability:
        Wire a :class:`~repro.obs.metrics.MetricsRegistry`, a
        :class:`~repro.obs.tracing.Tracer` and a
        :class:`~repro.obs.health.HealthMonitor` through the fleet
        and controller (default on; the mirror is a few cached-child
        counter bumps per operation and never changes a decision).  Read back via :meth:`metrics` /
        :meth:`export_prometheus`.  Pass False for a runtime without
        tracing, health probes or a readable registry — the overhead
        benchmark's control arm.  Its fleet and :meth:`maintain` still
        count into private registries: :meth:`telemetry_totals` reads
        them.
    tenant_class_of:
        Optional ``tenant_id -> class label`` mapping for the
        ``tenant_class`` metric label (cardinality control; defaults to
        one ``"all"`` class).

    Root spans of at least :data:`repro.obs.tracing.SLOW_TRACE_THRESHOLD`
    seconds, read when the runtime is built, enter the tracer's ring of
    recent slow traces.
    """

    def __init__(self, registry: ModelRegistry | str,
                 capacity: int = 8,
                 model_factory: Callable[[], GeofenceModel] | None = None,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                 incremental: bool = True,
                 policy: MaintenancePolicy | None = None,
                 scheduler_interval: None = None,
                 quarantine_size: int = 0,
                 observability: bool = True,
                 tenant_class_of: Callable[[str], str] | None = None):
        if scheduler_interval is not None:
            raise ValueError("scheduler_interval must be None: background "
                             "maintenance was removed; call maintain() instead")
        self.registry = registry if isinstance(registry, ModelRegistry) \
            else ModelRegistry(registry)
        if observability:
            self.metrics_registry = MetricsRegistry()
            self.tracer = Tracer(slow_threshold=tracing.SLOW_TRACE_THRESHOLD)
            self.health = HealthMonitor(metrics=self.metrics_registry)
            # A pull-style gauge the runtime refreshes at snapshot time.
            self._queue_gauge = self.metrics_registry.gauge(
                "repro_decision_bus_depth",
                help="Pending decisions on the runtime's decision bus")
        else:
            self.metrics_registry = None
            self.tracer = None
            self.health = None
        telemetry = FleetTelemetry(metrics=self.metrics_registry,
                                   tenant_class_of=tenant_class_of)
        self.fleet = GeofenceFleet(self.registry, capacity=capacity,
                                   model_factory=model_factory,
                                   telemetry=telemetry,
                                   reservoir_size=reservoir_size,
                                   incremental=incremental,
                                   quarantine_size=quarantine_size,
                                   tracer=self.tracer)
        self.controller = FleetController(self.fleet, policy,
                                          metrics=self.metrics_registry,
                                          tracer=self.tracer)
        # The decision bus.  collections.deque appends/poplefts are
        # atomic under the GIL, so the observe path pays one append and
        # no lock; only the maintain() caller removes.
        self._pending: "deque[tuple[str, GeofenceDecision]]" = deque()
        # maintain() counts what it pops into this family.
        counters = self.metrics_registry if observability else MetricsRegistry()
        self._drained = counters.counter(
            "repro_scheduler_decisions_drained_total",
            help="Decisions drained from the decision bus into the controller")
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and drop the fleet; decisions left on the bus are not pumped."""
        if self._closed:
            return
        self.fleet.close()
        self._closed = True

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Data plane (fleet + decision bus)
    # ------------------------------------------------------------------
    def observe(self, tenant_id: str, record: SignalRecord) -> GeofenceDecision:
        """Algorithm-2 observation: a batch of one."""
        return self.observe_many([(tenant_id, record)])[0]

    def observe_many(self, items: Iterable[tuple[str, SignalRecord]]) -> list[GeofenceDecision]:
        """Batched dispatch: exactly ``GeofenceFleet.observe_many``.

        A decision also joins the bus when its tenant's policy is not a
        no-op.
        """
        items = list(items)
        decisions = self.fleet.observe_many(items)
        for (tenant_id, _), decision in zip(items, decisions):
            if not self.controller.policy_for(tenant_id).is_noop():
                self._pending.append((tenant_id, decision))
        return decisions

    # ------------------------------------------------------------------
    # Tenant lifecycle (maintenance mechanics live on ``self.fleet``,
    # recovery proposals on ``self.controller``)
    # ------------------------------------------------------------------
    def provision(self, tenant_id: str, records: Sequence[SignalRecord],
                  metadata: dict | None = None,
                  spec: PipelineSpec | None = None) -> GeofenceModel:
        return self.fleet.provision(tenant_id, records, metadata=metadata, spec=spec)

    def flush(self, tenant_id: str | None = None) -> int:
        return self.fleet.flush(tenant_id)

    # ------------------------------------------------------------------
    # Control plane (the maintain() caller only)
    # ------------------------------------------------------------------
    def maintain(self) -> int:
        """Drain queued decisions into the controller; returns the count.

        The only place maintenance runs.  Single-consumer: one caller
        at a time.  The controller evaluates its policies as the
        decisions fold in, so scheduled/triggered refreshes execute
        here, never on the observe path; a refresh holds the fleet lock
        (see :meth:`GeofenceFleet.refresh`), so a concurrent observe
        waits for it.  What the call popped is added to
        ``repro_scheduler_decisions_drained_total`` once, on the way
        out, so a step that raises still counts every decision popped.
        """
        drained = 0
        try:
            while True:
                try:
                    tenant_id, decision = self._pending.popleft()
                except IndexError:
                    return drained
                drained += 1
                self.controller.step(tenant_id, decision)
        finally:
            if drained:
                self._drained.inc(drained)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_decisions(self) -> int:
        return len(self._pending)

    def telemetry_totals(self) -> TenantStats:
        """Fleet-wide counters, a view over the metric families."""
        return self.fleet.telemetry.totals()

    def maintenance_actions(self) -> list[tuple[str, str]]:
        """Controller action log, ``(tenant_id, action)`` in order."""
        return list(self.controller.actions)

    def stats(self) -> dict:
        """Operational summary: residency, bus depth, telemetry."""
        return {
            "resident": len(self.fleet.resident_tenants),
            "pending_decisions": self.pending_decisions,
            "totals": self.telemetry_totals().as_dict(),
        }

    # ------------------------------------------------------------------
    # Observability read surfaces
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Full observability snapshot (requires ``observability=True``).

        Refreshes the pull-style decision-bus-depth gauge, evaluates
        every health probe, and returns
        ``{"families", "health", "traces"}`` — plain data,
        deterministic key order, safe to serialise with
        :func:`repro.obs.export.snapshot_to_json` or render with
        :func:`~repro.obs.export.render_prometheus`.
        """
        if self.metrics_registry is None:
            raise RuntimeError("runtime was built with observability=False; "
                               "no metrics to snapshot")
        self._queue_gauge.set(self.pending_decisions)
        health = self.health.check(self)
        return {
            "families": self.metrics_registry.snapshot(),
            "health": {name: result.as_dict()
                       for name, result in health.items()},
            "traces": self.tracer.snapshot(),
        }

    def health_report(self) -> dict[str, dict]:
        """Probe results alone, ``ProbeResult.as_dict()`` form.

        The JSON-safe shape the cluster ``health`` op ships: cheaper
        than :meth:`metrics` when the caller wants grades, not series.
        """
        if self.health is None:
            raise RuntimeError("runtime was built with observability=False; "
                               "no health probes to evaluate")
        return {name: result.as_dict()
                for name, result in self.health.check(self).items()}

    def export_prometheus(self) -> str:
        """Prometheus text exposition of the current metrics snapshot."""
        return render_prometheus(self.metrics())
