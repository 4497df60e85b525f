"""The fleet control plane: policy-driven maintenance over a GeofenceFleet.

The split: the **data plane** is ``GeofenceFleet.observe``/``observe_many`` —
the hot path, untouched by this module.  The **control plane** is a
:class:`FleetController` that taps the decision stream, folds it into
per-tenant telemetry windows (observation counts, self-update-buffer
rate), and executes the clauses of a declarative
:class:`~repro.serve.policy.MaintenancePolicy`: scheduled or
telemetry-triggered **coordinated refresh** (detector refit on the
tenant's re-embedded recent-inlier reservoir, one atomic operation),
escalation to a full **re-provision**, and — when the policy carries a
:class:`~repro.serve.policy.RecoveryPolicy` — quarantine-fed
**recovery** from reservoir starvation, executed autonomously or
surfaced as a pending proposal for operator approval.  Decisions pumped
into :meth:`FleetController.step` are the only path on which it acts;
write-back stays with the fleet (explicit flush, eviction, close).

The controller counts each tenant's decisions itself
(:class:`TenantControlState`) rather than reading ``fleet.telemetry``:
the fleet's counters are fleet-wide families labeled by tenant class,
while the cadence arithmetic needs per-tenant counts that survive an
eviction and reload.  Control decisions are therefore a pure function
of the decision stream — deterministic replay produces deterministic
maintenance, which is what makes refresh policies *measurable* in the
drift harness.

Per-tenant policy resolution: the ``maintenance`` block of the
tenant's :class:`~repro.pipeline.spec.PipelineSpec` (which the fleet
keeps whether or not the tenant is resident), else the controller's
default policy (a no-op unless configured otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.protocols import GeofenceDecision
from repro.obs.health import grade
from repro.obs.tracing import maybe_span
from repro.serve.fleet import GeofenceFleet
from repro.serve.policy import MaintenancePolicy, RecoveryPolicy

__all__ = ["FleetController", "TenantControlState"]


@dataclass
class TenantControlState:
    """Controller-side bookkeeping for one tenant.

    The tenant's own decision counts, and the positions below, are all
    in observations of this tenant since the controller started.
    """

    observations: int = 0        # decisions folded in
    buffered: int = 0            # of which entered the self-update buffer
    window_observations: int = 0  # the two counts at the rate window's start
    window_buffered: int = 0
    checked_at: int = 0          # observations at the last policy evaluation
    refreshed_at: int = 0        # observations at the last refresh/reprovision
    trigger_streak: int = 0      # consecutive telemetry-triggered refreshes
    failed_refresh_streak: int = 0  # consecutive failed refresh/reprovision attempts
    last_inside_at: int = 0      # observations at the last inside decision


class FleetController:
    """Executes maintenance policies against a fleet.

    Parameters
    ----------
    fleet:
        The :class:`~repro.serve.fleet.GeofenceFleet` to maintain.
    policy:
        Default policy for tenants whose spec carries no ``maintenance``
        block (a per-tenant policy travels in that block); the default
        default is the no-op :class:`MaintenancePolicy()`.
    metrics / tracer:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to count
        maintenance actions into
        (``repro_maintenance_actions_total{action}``), and an optional
        :class:`~repro.obs.tracing.Tracer` wrapping each executed
        refresh/reprovision in a ``maintenance`` span.
    """

    def __init__(self, fleet: GeofenceFleet, policy: MaintenancePolicy | None = None,
                 metrics=None, tracer=None):
        self.fleet = fleet
        self.policy = policy if policy is not None else MaintenancePolicy()
        self.tracer = tracer
        self._actions_family = metrics.counter(
            "repro_maintenance_actions_total",
            help="Maintenance actions executed by the control plane",
            labels=("action",)) if metrics is not None else None
        self._action_children: dict[str, object] = {}
        self._states: dict[str, TenantControlState] = {}
        # Pending recovery proposals (tenant_id -> arming evidence) for
        # policies with recovery.auto=False: surfaced to the operator
        # (pending_recoveries / `repro maintain`), consumed by
        # approve_recovery/deny_recovery.
        self._proposals: dict[str, dict] = {}
        # Action log: (tenant_id, action) in execution order, for tests,
        # benchmarks and the CLI report.  Bounded by callers that care.
        self.actions: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Policy resolution
    # ------------------------------------------------------------------
    def policy_for(self, tenant_id: str) -> MaintenancePolicy:
        """The tenant spec's ``maintenance`` block, else the default."""
        block = self.fleet.maintenance_policy(tenant_id)
        return block if block is not None else self.policy

    def state(self, tenant_id: str) -> TenantControlState:
        return self._states.setdefault(tenant_id, TenantControlState())

    # ------------------------------------------------------------------
    # The control-plane tap
    # ------------------------------------------------------------------
    def step(self, tenant_id: str, decision: GeofenceDecision) -> list[str]:
        """Fold one data-plane decision in; maybe act.  Returns actions.

        Call once per decision of every ``fleet.observe_many`` batch
        whose maintenance this controller owns, in stream order (as
        :class:`~repro.serve.runtime.ServingRuntime` does).  With the no-op
        policy this only increments counters — it never touches the
        model, so a controlled replay is bit-identical to an
        uncontrolled one.
        """
        state = self.state(tenant_id)
        state.observations += 1
        if decision.buffered:
            state.buffered += 1
        policy = self.policy_for(tenant_id)
        if policy.check_every <= 0:
            return []
        if decision.inside:
            # Per-tenant mirror of the fleet-wide reservoir_starvation
            # probe: observations since the last inside decision is what
            # recovery arming grades against the policy's window.
            state.last_inside_at = state.observations
        if state.observations - state.checked_at < policy.check_every:
            return []
        actions = self._evaluate(tenant_id, policy, state)
        state.checked_at = state.observations
        return actions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evaluate(self, tenant_id: str, policy: MaintenancePolicy,
                  state: TenantControlState) -> list[str]:
        actions: list[str] = []
        window_obs = state.observations - state.window_observations
        update_rate = ((state.buffered - state.window_buffered) / window_obs
                       if window_obs else 0.0)
        # The window accumulates across evaluations until it is large
        # enough to trust its rate, then resets — otherwise a
        # check_every below min_window would make the rate trigger
        # silently unreachable (the window could never grow past one
        # check interval).
        if policy.min_update_rate is None or window_obs >= policy.min_window:
            state.window_observations = state.observations
            state.window_buffered = state.buffered
        scheduled = bool(policy.refresh_every) and \
            state.observations - state.refreshed_at >= policy.refresh_every
        triggered = (window_obs >= policy.min_window
                     and policy.min_update_rate is not None
                     and update_rate < policy.min_update_rate)
        recovered = self._maybe_recover(tenant_id, policy, state, actions)
        if recovered:
            # A recovery (or its failed attempt) *is* this round's
            # maintenance; stacking a reservoir-fed refresh on top would
            # refit the world the recovery just replaced (or, on
            # failure, spin on the same starved reservoir).
            state.refreshed_at = state.observations
        elif scheduled or triggered:
            escalate = (triggered and policy.reprovision_after
                        and state.trigger_streak >= policy.reprovision_after)
            verb = "reprovision" if escalate else "refresh"
            try:
                with maybe_span(self.tracer, "maintenance", tenant=tenant_id,
                                action=verb):
                    if escalate:
                        self.fleet.reprovision(tenant_id)
                        actions.append("reprovision")
                        state.trigger_streak = 0
                    else:
                        self.fleet.refresh(tenant_id)
                        actions.append("refresh")
                        state.trigger_streak = state.trigger_streak + 1 if triggered else 0
                state.failed_refresh_streak = 0
            except (TypeError, ValueError) as error:
                # Operational conditions, not crashes: an empty or
                # unembeddable reservoir (ValueError), or a controller-
                # level refresh policy meeting a tenant whose arm has no
                # refresh capability (TypeError — e.g. an INOA tenant in
                # a mixed fleet under a blanket policy).  Record it and
                # back off one refresh interval so the loop doesn't spin.
                # A *failed* triggered refresh still advances the
                # escalation streak — reprovision (a full refit, which
                # needs no refresh capability) is exactly the escape
                # hatch for a tenant whose refreshes cannot succeed.
                actions.append(f"{verb}-failed: {error}")
                state.failed_refresh_streak += 1
                if triggered and not escalate:
                    state.trigger_streak += 1
            state.refreshed_at = state.observations
        elif window_obs >= policy.min_window:
            # A clean window clears the escalation streak.
            state.trigger_streak = 0
        if actions:
            self._log(tenant_id, actions)
        return actions

    def _maybe_recover(self, tenant_id: str, policy: MaintenancePolicy,
                       state: TenantControlState, actions: list[str]) -> bool:
        """Arm (and maybe execute) quarantine recovery for one tenant.

        Arms when the two health-probe signals fire together — the
        stuck-maintenance streak (``stuck_refresh``) has reached
        ``after_stuck`` and the starvation counter grades warn or worse
        against ``starvation_window`` (the very
        :func:`~repro.obs.health.grade` the ``reservoir_starvation``
        probe uses) — and the quarantine holds enough evidence.  With
        ``auto`` the recovery executes here and returns True (consuming
        this round's maintenance slot); otherwise a pending proposal is
        registered for the operator and False lets the normal refresh
        arithmetic continue unchanged.
        """
        recovery = policy.recovery
        if recovery is None:
            return False
        stuck = max(state.failed_refresh_streak, state.trigger_streak)
        starvation = state.observations - state.last_inside_at
        starving = grade(starvation, recovery.starvation_window,
                         2 * recovery.starvation_window) != "ok"
        if stuck < recovery.after_stuck or not starving:
            return False
        depth = getattr(self.fleet, "quarantine_depth", lambda _t: 0)(tenant_id)
        if depth < recovery.min_quarantine:
            return False
        if not recovery.auto:
            if tenant_id not in self._proposals:
                self._proposals[tenant_id] = {
                    "armed_at": state.observations, "stuck_streak": stuck,
                    "starvation": starvation, "quarantine_depth": depth,
                }
                actions.append("recover-proposed")
            return False
        try:
            with maybe_span(self.tracer, "maintenance", tenant=tenant_id,
                            action="recover"):
                self.fleet.reprovision_from_quarantine(
                    tenant_id, max_fpr=recovery.max_fpr)
            actions.append("recover")
            state.trigger_streak = 0
            state.failed_refresh_streak = 0
            state.last_inside_at = state.observations
        except (TypeError, ValueError) as error:
            # Operational, like a failed refresh: a rolled-back refit
            # (post-recovery FPR above the guard) or a fleet stand-in
            # without the capability.  The streak keeps climbing so the
            # next armed evaluation tries again with fresher evidence.
            actions.append(f"recover-failed: {error}")
            state.failed_refresh_streak += 1
        self._proposals.pop(tenant_id, None)
        return True

    # ------------------------------------------------------------------
    # Recovery proposals (operator approval path)
    # ------------------------------------------------------------------
    def pending_recoveries(self) -> dict[str, dict]:
        """Copy of the pending recovery proposals, by tenant."""
        return {tenant_id: dict(proposal)
                for tenant_id, proposal in self._proposals.items()}

    def approve_recovery(self, tenant_id: str) -> None:
        """Execute a pending recovery proposal (operator approval).

        Raises ValueError when no proposal is pending, and re-raises the
        fleet's error when the refit rolls back — either way the
        proposal is consumed; a still-starving tenant re-proposes at its
        next armed evaluation.
        """
        if tenant_id not in self._proposals:
            raise ValueError(f"tenant {tenant_id!r} has no pending recovery "
                             "proposal")
        self._proposals.pop(tenant_id)
        policy = self.policy_for(tenant_id)
        recovery = policy.recovery if policy.recovery is not None \
            else RecoveryPolicy()
        with maybe_span(self.tracer, "maintenance", tenant=tenant_id,
                        action="recover"):
            self.fleet.reprovision_from_quarantine(tenant_id,
                                                   max_fpr=recovery.max_fpr)
        state = self.state(tenant_id)
        state.trigger_streak = 0
        state.failed_refresh_streak = 0
        state.last_inside_at = state.observations
        state.refreshed_at = state.observations
        self._log(tenant_id, ["recover"])

    def deny_recovery(self, tenant_id: str) -> bool:
        """Drop a pending proposal; True if one existed.  The tenant may
        re-propose at its next armed evaluation — denial is a deferral,
        not a permanent veto (policies are the place for vetoes)."""
        return self._proposals.pop(tenant_id, None) is not None

    def stuck_streaks(self) -> dict[str, int]:
        """``{tenant_id: consecutive stuck maintenance rounds}``.

        The per-tenant maximum of the failed-refresh streak and the
        trigger streak (telemetry-triggered refreshes that ran without
        clearing their trigger).  The second half matters for the
        starvation wall: refreshes *succeed mechanically* there — the
        pinned anchor still embeds under the old world — while fixing
        nothing, so the failure shows up as an uncleared trigger, not an
        exception.  This is the signal behind the ``stuck_refresh``
        health probe and recovery arming; only live streaks appear.
        """
        out: dict[str, int] = {}
        for tenant_id, state in self._states.items():
            streak = max(state.failed_refresh_streak, state.trigger_streak)
            if streak:
                out[tenant_id] = streak
        return out

    def _log(self, tenant_id: str, actions: list[str]) -> None:
        self.actions.extend((tenant_id, action) for action in actions)
        if self._actions_family is not None:
            for action in actions:
                # "refresh-failed: <reason>" counts as "refresh-failed";
                # the free-text reason stays in the action log, off the
                # label (cardinality control).
                name = action.split(":", 1)[0]
                child = self._action_children.get(name)
                if child is None:
                    child = self._actions_family.labels(action=name)
                    self._action_children[name] = child
                child.inc()
