"""`repro.serve.runtime` — the serving daemon.

PR 4 left `repro.serve` a passive library: one fleet, one lock, and a
controller that only acts when the caller remembers to call it.  The
:class:`ServingRuntime` is the serving *process* around that library:
one :class:`~repro.serve.fleet.GeofenceFleet`, one
:class:`~repro.serve.controller.FleetController`, one decision bus and
an optional maintenance worker.  Tenants are partitioned across
processes by the cluster :class:`~repro.serve.cluster.router.Router`,
never inside one: in-process thread shards measured slower as shards
were added, so the process is the only partition unit.

* **Decision bus** — the data plane appends each (tenant, decision)
  pair to a lock-free queue instead of stepping the controller inline,
  and :meth:`ServingRuntime.pump` drains the queue into the controller.
  A decision joins the bus only when something will pump it (serial
  mode, or a started scheduler) and its tenant's policy can act.
  The controller's bookkeeping — and any refresh it decides to run —
  stays off the observe path, while the controller itself stays
  single-threaded (only the pump caller ever touches it).
* **Background maintenance** — a
  :class:`~repro.serve.scheduler.MaintenanceScheduler` worker pumps the
  bus into the controller (coordinated refresh, escalation to
  re-provision, recovery) off the observe path.  Refreshes
  run swap-on-commit: the fleet lock is held for the model copy and the
  pointer swap, not for the rebuild in between.
* **Incremental checkpoints** — the runtime defaults to the delta
  write-back format (:func:`repro.serve.checkpoint.save_incremental`),
  cutting the LRU's write-back amplification: an eviction whose state
  only grew appends a tail instead of rewriting the model.

Determinism contract: ``ServingRuntime(root, scheduler_interval=None,
incremental=False)`` is bit-identical to a bare
:class:`~repro.serve.fleet.GeofenceFleet` — same decisions, same
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
from repro.serve.scheduler import MaintenanceScheduler, drained_counter
from repro.serve.telemetry import FleetTelemetry, TenantStats

__all__ = ["ServingRuntime"]


class ServingRuntime:
    """Background-maintained, multi-tenant geofence server.

    Parameters
    ----------
    registry:
        Checkpoint store (or a path to root one at).
    capacity:
        LRU budget: at most this many resident models.
    policy:
        Default maintenance policy, executed by the controller as
        decisions are pumped off the bus.  A tenant whose spec carries a
        ``maintenance`` block runs that block instead, resident or not.
    scheduler_interval:
        Seconds between background maintenance ticks; ``None`` disables
        the worker entirely (serial mode — call :meth:`maintain` to pump
        by hand).
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
        :class:`~repro.obs.health.HealthMonitor` through the fleet,
        controller and scheduler (default on; the mirror is a few
        cached-child counter bumps per operation and never changes a
        decision).  Read back via :meth:`metrics` /
        :meth:`export_prometheus`.  Pass False for a runtime without
        tracing, health probes or a readable registry — the overhead
        benchmark's control arm.  Its fleet, pump and scheduler still
        count into private registries: :meth:`telemetry_totals` and the
        scheduler's ``stats()`` read them.
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
                 scheduler_interval: float | None = 0.05,
                 quarantine_size: int = 0,
                 observability: bool = True,
                 tenant_class_of: Callable[[str], str] | None = None):
        self.registry = registry if isinstance(registry, ModelRegistry) \
            else ModelRegistry(registry)
        if observability:
            self.metrics_registry = MetricsRegistry()
            self.tracer = Tracer(slow_threshold=tracing.SLOW_TRACE_THRESHOLD)
            self.health = HealthMonitor(metrics=self.metrics_registry)
            # Pull-style gauges the runtime refreshes at snapshot time.
            self._queue_gauge = self.metrics_registry.gauge(
                "repro_decision_bus_depth",
                help="Pending decisions on the runtime's decision bus")
            self._pump_age_gauge = self.metrics_registry.gauge(
                "repro_scheduler_last_pump_age_seconds",
                help="Seconds since the scheduler's last completed pump")
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
        background = scheduler_interval is not None
        # The decision bus.  collections.deque appends/poplefts are
        # atomic under the GIL, so the observe path pays one append and
        # no lock; only the pump caller removes.
        self._pending: "deque[tuple[str, GeofenceDecision]]" = deque()
        # pump() counts what it pops into this family; the scheduler
        # reads it from the same registry.
        counters = self.metrics_registry if observability else MetricsRegistry()
        self._drained = drained_counter(counters)
        self.scheduler = MaintenanceScheduler(
            self, interval=scheduler_interval,
            metrics=counters) if background else None
        self._closed = False

    # ------------------------------------------------------------------
    # Commit events
    # ------------------------------------------------------------------
    def on_commit(self, listener) -> Callable[[], None]:
        """Call ``listener(tenant_id, CommitInfo)`` after every committed
        checkpoint write the fleet performs (provision, flush, eviction
        write-back, delta append, compaction).

        This is the replication hook: a
        :class:`~repro.serve.cluster.replicate.DeltaShipper` subscribes
        here to stream committed format-3 delta entries (and full saves)
        to a standby registry; returns an unsubscribe callable.
        """
        return self.registry.subscribe(listener)

    # ------------------------------------------------------------------
    # Daemon lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingRuntime":
        """Launch background maintenance (no-op in serial mode).

        A background runtime's decisions join the bus from here on:
        observations served before ``start()`` are not tracked, so a
        constructed-but-never-started daemon cannot accumulate decisions
        nothing will ever pump.
        """
        if self.scheduler is not None:
            self.scheduler.start()
        return self

    def close(self) -> None:
        """Stop maintenance (final drain included), flush and drop the fleet."""
        if self._closed:
            return
        if self.scheduler is not None and (self.scheduler.running
                                           or self._pending):
            self.scheduler.stop()
        self.fleet.close()
        self._closed = True

    def __enter__(self) -> "ServingRuntime":
        return self.start()

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

        A decision also joins the bus when a pump exists (serial mode,
        or a started scheduler) and its tenant's policy is not a no-op.
        """
        items = list(items)
        decisions = self.fleet.observe_many(items)
        if self.scheduler is None or self.scheduler.started_at is not None:
            for (tenant_id, _), decision in zip(items, decisions):
                if not self.controller.policy_for(tenant_id).is_noop():
                    self._pending.append((tenant_id, decision))
        return decisions

    def score(self, tenant_id: str, record: SignalRecord) -> float:
        return self.fleet.score(tenant_id, record)

    # ------------------------------------------------------------------
    # Tenant lifecycle / maintenance mechanics
    # ------------------------------------------------------------------
    def provision(self, tenant_id: str, records: Sequence[SignalRecord],
                  metadata: dict | None = None,
                  spec: PipelineSpec | None = None) -> GeofenceModel:
        return self.fleet.provision(tenant_id, records, metadata=metadata, spec=spec)

    def refresh(self, tenant_id: str) -> int:
        return self.fleet.refresh(tenant_id)

    def reprovision(self, tenant_id: str) -> GeofenceModel:
        return self.fleet.reprovision(tenant_id)

    def reprovision_from_quarantine(self, tenant_id: str,
                                    max_fpr: float | None = 0.5) -> GeofenceModel:
        return self.fleet.reprovision_from_quarantine(tenant_id, max_fpr=max_fpr)

    def evict(self, tenant_id: str) -> bool:
        return self.fleet.evict(tenant_id)

    def flush(self, tenant_id: str | None = None) -> int:
        return self.fleet.flush(tenant_id)

    def is_dirty(self, tenant_id: str) -> bool:
        return self.fleet.is_dirty(tenant_id)

    def reservoir(self, tenant_id: str) -> list[SignalRecord]:
        return self.fleet.reservoir(tenant_id)

    def quarantine(self, tenant_id: str) -> list[SignalRecord]:
        return self.fleet.quarantine(tenant_id)

    # ------------------------------------------------------------------
    # Recovery proposals (operator surface)
    # ------------------------------------------------------------------
    def pending_recoveries(self) -> dict[str, dict]:
        """Pending quarantine-recovery proposals awaiting an operator."""
        return self.controller.pending_recoveries()

    def approve_recovery(self, tenant_id: str) -> None:
        self.controller.approve_recovery(tenant_id)

    def deny_recovery(self, tenant_id: str) -> bool:
        return self.controller.deny_recovery(tenant_id)

    # ------------------------------------------------------------------
    # Control plane (the pump caller only)
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Drain queued decisions into the controller; returns the count.

        Single-consumer: only the maintenance worker (or a serial
        caller) may pump.  The controller evaluates its policies as the
        decisions fold in, so scheduled/triggered refreshes execute
        here — on the pump thread, never on the observe path.  A
        refresh's heavy rebuild additionally drops the fleet lock (see
        :meth:`GeofenceFleet.refresh`), so observes keep flowing even
        *during* maintenance.  What the call popped is added to
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

    def maintain(self) -> int:
        """One synchronous pump (serial mode).

        With a live background scheduler this is unnecessary (and must
        not race it); it exists so a serial runtime — or a test — can
        run the exact same maintenance the daemon would, on the caller's
        thread.  Returns the number of decisions drained.
        """
        if self.scheduler is not None and self.scheduler.running:
            raise RuntimeError("maintain() would race the running background "
                               "scheduler; call it only in serial mode or "
                               "after stop()")
        return self.pump()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_decisions(self) -> int:
        return len(self._pending)

    @property
    def resident_tenants(self) -> list[str]:
        """Resident tenants, LRU order."""
        return self.fleet.resident_tenants

    def telemetry_totals(self) -> TenantStats:
        """Fleet-wide counters, a view over the metric families."""
        return self.fleet.telemetry.totals()

    def maintenance_actions(self) -> list[tuple[str, str]]:
        """Controller action log, ``(tenant_id, action)`` in order."""
        return list(self.controller.actions)

    def stats(self) -> dict:
        """Operational summary: residency, bus depth, scheduler, telemetry."""
        return {
            "resident": len(self.fleet.resident_tenants),
            "pending_decisions": self.pending_decisions,
            "scheduler": self.scheduler.stats() if self.scheduler is not None else None,
            "totals": self.telemetry_totals().as_dict(),
        }

    # ------------------------------------------------------------------
    # Observability read surfaces
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Full observability snapshot (requires ``observability=True``).

        Refreshes the pull-style gauges (decision bus depth, scheduler
        pump recency), evaluates every health probe, and returns
        ``{"families", "health", "traces", "scheduler"}`` — plain data,
        deterministic key order, safe to serialise with
        :func:`repro.obs.export.snapshot_to_json` or render with
        :func:`~repro.obs.export.render_prometheus`.
        """
        if self.metrics_registry is None:
            raise RuntimeError("runtime was built with observability=False; "
                               "no metrics to snapshot")
        self._queue_gauge.set(self.pending_decisions)
        if self.scheduler is not None:
            age = self.scheduler.last_pump_age()
            if age is not None:
                self._pump_age_gauge.set(age)
        health = self.health.check(self)
        return {
            "families": self.metrics_registry.snapshot(),
            "health": {name: result.as_dict()
                       for name, result in health.items()},
            "traces": self.tracer.snapshot(),
            "scheduler": (self.scheduler.snapshot()
                          if self.scheduler is not None else None),
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
