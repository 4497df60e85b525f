"""Health probes: measured failure modes as first-class signals.

Each probe turns a failure mode this repo has already *measured* into a
number with warn/critical thresholds, so an operator watches gauges
instead of rediscovering the postmortems:

* ``stuck_refresh`` — consecutive stuck maintenance rounds (max across
  tenants): refresh/reprovision attempts that failed outright, or
  telemetry-triggered refreshes that ran yet failed to clear their
  trigger.  Either way the policy keeps asking and the reservoir keeps
  failing to produce a refit that helps — the arming signal the
  quarantine recovery path consumes (``FleetController.stuck_streaks``).
* ``reservoir_starvation`` — observations since the last *inside*
  decision, fleet-wide.  ``BENCH_fleet_drift.json``'s worst-case arm
  showed that above ~45 % ambient-AP replacement every decision goes
  outside, the inlier reservoir stops filling, and nothing
  reservoir-fed can recover; this probe fires while AUC still looks
  merely bad, not yet flat.
* ``scheduler_staleness`` — seconds since the maintenance worker last
  pumped the decision bus.  A wedged or fallen-behind
  scheduler means refresh storms queue invisibly; in serial mode the
  probe reports ok (the caller *is* the scheduler).
* ``decision_bus_depth`` — pending decisions on the runtime's decision
  bus.  Nothing bounds the bus if maintenance falls behind; depth is
  the backpressure signal a router should shed on.
* ``quarantine_saturation`` — fill fraction of the fullest resident
  quarantine buffer (fleets with ``quarantine_size > 0`` only).  A
  buffer pinned at 1.0 keeps rotating evidence it never gets to use:
  the recovery proposal is waiting on an operator, or the arming
  thresholds never fired — either way, look before the evidence ages.
* ``replication_lag`` — seconds between a primary's committed
  checkpoint write and its apply on the warm standby.  A growing lag
  means a failover would lose recent write-backs.  The router grades it
  in :class:`~repro.obs.cluster.ClusterHealthMonitor`; it is the alert
  the README's failover runbook wires up.

Every probe is graded against one fixed table, :data:`PROBE_THRESHOLDS`,
which both monitors read.  :class:`HealthMonitor` evaluates the runtime
probes against a :class:`~repro.serve.runtime.ServingRuntime` and
mirrors each result into two gauges (``repro_health_value`` /
``repro_health_status``; status 0=ok, 1=warn, 2=critical) so the same
thresholds drive the Prometheus alert and the JSON snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_STARVATION_WINDOW", "HealthMonitor", "PROBE_THRESHOLDS",
           "ProbeResult", "STATUS_LEVELS", "grade"]

STATUS_LEVELS = {"ok": 0, "warn": 1, "critical": 2}

# Warn threshold (in observations since the last inside decision) for
# the reservoir-starvation probe; critical is twice it.  Shared with
# RecoveryPolicy.starvation_window so the controller arms recovery with
# the same arithmetic that turns the probe yellow.
DEFAULT_STARVATION_WINDOW = 200

# (warn, critical) per probe.
PROBE_THRESHOLDS = {
    "stuck_refresh": (2.0, 4.0),
    "reservoir_starvation": (float(DEFAULT_STARVATION_WINDOW),
                             float(2 * DEFAULT_STARVATION_WINDOW)),
    "scheduler_staleness": (5.0, 30.0),
    "decision_bus_depth": (1_000.0, 10_000.0),
    "quarantine_saturation": (0.8, 1.0),
    "replication_lag": (5.0, 30.0),
}


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one probe evaluation."""

    probe: str
    value: float
    status: str              # "ok" | "warn" | "critical"
    warn_at: float
    critical_at: float
    detail: str = ""

    @property
    def level(self) -> int:
        return STATUS_LEVELS[self.status]

    def as_dict(self) -> dict:
        return {"probe": self.probe, "value": self.value, "status": self.status,
                "warn_at": self.warn_at, "critical_at": self.critical_at,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeResult":
        """Inverse of :meth:`as_dict` — how probe results shipped across
        the cluster protocol come back to life on the router."""
        return cls(probe=data["probe"], value=float(data["value"]),
                   status=data["status"], warn_at=float(data["warn_at"]),
                   critical_at=float(data["critical_at"]),
                   detail=data.get("detail", ""))


def grade(value: float, warn_at: float, critical_at: float) -> str:
    """Threshold grading shared by every probe — and by the controller's
    recovery arming, so probe status and control-plane action can never
    disagree about what counts as starving or stuck."""
    if value >= critical_at:
        return "critical"
    if value >= warn_at:
        return "warn"
    return "ok"


class HealthMonitor:
    """Evaluates the runtime probes against :data:`PROBE_THRESHOLDS`.

    ``metrics`` is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    to mirror results into.
    """

    def __init__(self, metrics=None):
        self._metrics = metrics
        if metrics is not None:
            self._value_gauge = metrics.gauge(
                "repro_health_value",
                help="Raw value of each health probe", labels=("probe",))
            self._status_gauge = metrics.gauge(
                "repro_health_status",
                help="Probe status: 0=ok 1=warn 2=critical", labels=("probe",))
        # Starvation bookkeeping across checks: cumulative inside
        # decisions seen, and the observation count when they last grew.
        self._inside_seen = 0
        self._obs_at_last_inside = 0

    # ------------------------------------------------------------------
    # Probe evaluation
    # ------------------------------------------------------------------
    def check(self, runtime) -> dict[str, ProbeResult]:
        """Evaluate every runtime probe; returns ``{probe name: result}``.

        ``runtime`` is duck-typed: it needs ``controller``, ``fleet``,
        ``pending_decisions``, an optional ``scheduler`` and
        ``telemetry_totals()`` (a :class:`ServingRuntime`).
        """
        results = {
            "stuck_refresh": self._check_stuck_refresh(runtime),
            "reservoir_starvation": self._check_starvation(runtime),
            "scheduler_staleness": self._check_staleness(runtime),
            "decision_bus_depth": self._check_bus_depth(runtime),
        }
        # Capability-gated: only fleets that run a quarantine report its
        # saturation.
        if runtime.fleet.quarantine_size:
            results["quarantine_saturation"] = self._check_quarantine(runtime)
        if self._metrics is not None:
            for name, result in results.items():
                self._value_gauge.labels(probe=name).set(result.value)
                self._status_gauge.labels(probe=name).set(result.level)
        return results

    def _result(self, probe: str, value: float, detail: str = "") -> ProbeResult:
        warn_at, critical_at = PROBE_THRESHOLDS[probe]
        return ProbeResult(probe=probe, value=float(value),
                           status=grade(value, warn_at, critical_at),
                           warn_at=warn_at, critical_at=critical_at,
                           detail=detail)

    def _check_stuck_refresh(self, runtime) -> ProbeResult:
        worst, who = 0, ""
        # stuck_streaks() folds in telemetry-triggered refreshes that ran
        # but failed to clear their trigger — the starvation pattern
        # where refreshes succeed mechanically on the stale anchor yet
        # fix nothing.
        for tenant_id, streak in runtime.controller.stuck_streaks().items():
            if streak > worst:
                worst, who = streak, tenant_id
        detail = (f"tenant {who!r} has {worst} consecutive stuck maintenance "
                  "rounds (failed, or triggered without clearing the trigger)"
                  if worst else "")
        return self._result("stuck_refresh", worst, detail)

    def _check_starvation(self, runtime) -> ProbeResult:
        totals = runtime.telemetry_totals()
        if totals.inside > self._inside_seen:
            self._inside_seen = totals.inside
            self._obs_at_last_inside = totals.observations
        value = totals.observations - self._obs_at_last_inside
        detail = (f"{value} observations since the last inside decision"
                  if value else "")
        return self._result("reservoir_starvation", value, detail)

    def _check_staleness(self, runtime) -> ProbeResult:
        scheduler = getattr(runtime, "scheduler", None)
        if scheduler is None:
            return self._result("scheduler_staleness", 0.0,
                                "serial mode: caller pumps synchronously")
        age = scheduler.last_pump_age()
        if age is None:
            if scheduler.running:
                # Started but yet to complete a first pump: age since start.
                value = scheduler.stats()["uptime_seconds"]
                return self._result("scheduler_staleness", value,
                                    "no pump completed yet")
            return self._result("scheduler_staleness", 0.0, "scheduler not started")
        return self._result("scheduler_staleness", age,
                            f"last pumped {age:.2f}s ago")

    def _check_bus_depth(self, runtime) -> ProbeResult:
        depth = runtime.pending_decisions
        return self._result("decision_bus_depth", depth,
                            f"{depth} pending decisions")

    def _check_quarantine(self, runtime) -> ProbeResult:
        worst, who = 0.0, ""
        fleet = runtime.fleet
        for tenant_id, depth in fleet.quarantine_depths().items():
            saturation = depth / fleet.quarantine_size
            if saturation > worst:
                worst, who = saturation, tenant_id
        detail = (f"tenant {who!r} quarantine {worst:.0%} full; a full buffer "
                  "only rotates evidence — approve or deny its recovery"
                  if worst else "")
        return self._result("quarantine_saturation", worst, detail)
