"""Declarative fleet-maintenance policies (the control plane's contract).

A :class:`MaintenancePolicy` says *when* the control plane should act on
a tenant — scheduled or telemetry-triggered coordinated refresh,
escalation to a full re-provision, quarantine-fed recovery — without
saying anything about *how* (that is
:class:`~repro.serve.controller.FleetController`'s job) or touching the
data plane (``GeofenceFleet.observe``/``observe_many`` never consult a policy).

Policies are frozen, JSON-round-tripping and validating, like every
other declarative object in the repo, and may travel as the optional
``maintenance`` block of a :class:`~repro.pipeline.spec.PipelineSpec` —
so the arm, its drift workload and its maintenance contract live in one
portable description.

All cadences are counted in *observations of that tenant*, not wall
time: a fleet has no global clock its tenants agree on, but every
maintenance decision in the paper's setting (drift absorbed per record,
reservoirs of recent inliers) is naturally per-observation.

The default-constructed policy is a no-op (``check_every=0``): a
controller running it never touches any model, which is what makes
"fleet + controller with no-op policy == plain fleet, bit for bit" a
testable invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Mapping

from repro.obs.health import DEFAULT_STARVATION_WINDOW

__all__ = ["MaintenancePolicy", "RecoveryPolicy"]


def _check_count(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _check_rate(value, name: str) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number in [0, 1] or null, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class RecoveryPolicy:
    """When (and how autonomously) to recover from reservoir starvation.

    Travels as the optional ``recovery`` block of a
    :class:`MaintenancePolicy`.  The controller **arms** recovery for a
    tenant when all three hold at a policy evaluation:

    * its stuck-maintenance streak (``FleetController.stuck_streaks``,
      the signal behind the ``stuck_refresh`` health probe) has reached
      ``after_stuck``;
    * its observations since the last inside decision grade at least
      *warn* against ``starvation_window`` (the same
      :func:`~repro.obs.health.grade` arithmetic as the
      ``reservoir_starvation`` probe — probe status and control-plane
      action cannot disagree);
    * its quarantine buffer holds at least ``min_quarantine`` records
      of admission-gated evidence.

    Armed recovery either executes immediately (``auto=True``) or is
    surfaced as a pending proposal for an operator to approve or deny
    (``repro maintain --action recover``, or
    ``FleetController.approve_recovery``).  Execution is
    :meth:`~repro.serve.fleet.GeofenceFleet.reprovision_from_quarantine`
    with ``max_fpr`` as the rollback guard: a recovered model that
    rejects more than that fraction of its own evidence set never
    replaces the serving one.

    Parameters
    ----------
    after_stuck:
        Arm after this many consecutive stuck maintenance rounds
        (failed refreshes, or triggered refreshes that did not clear
        their trigger).
    starvation_window:
        Observations since the last inside decision before the tenant
        counts as starving (warn threshold; matches the
        ``reservoir_starvation`` probe's default).
    min_quarantine:
        Minimum quarantined records before a refit is worth proposing —
        recovering from a handful of scans re-anchors the MAC universe
        on noise.
    auto:
        ``True`` executes armed recoveries on the spot (policy
        auto-approval); ``False`` (default) only registers a pending
        proposal.
    max_fpr:
        Rollback guard: abort (keep the old model serving) when the
        recovered model rejects more than this fraction of the
        quarantine records it was just fitted on; ``None`` disables the
        guard.

    Recovery rides the normal evaluation cadence, so the enclosing
    policy needs ``check_every > 0`` for it to ever fire.
    """

    after_stuck: int = 2
    starvation_window: int = DEFAULT_STARVATION_WINDOW
    min_quarantine: int = 16
    auto: bool = False
    max_fpr: float | None = 0.5

    def __post_init__(self):
        _check_count(self.after_stuck, "after_stuck")
        if self.after_stuck < 1:
            raise ValueError(f"after_stuck must be >= 1, got {self.after_stuck}")
        _check_count(self.min_quarantine, "min_quarantine")
        if self.min_quarantine < 1:
            raise ValueError(f"min_quarantine must be >= 1, got {self.min_quarantine}")
        if isinstance(self.starvation_window, bool) \
                or not isinstance(self.starvation_window, int) \
                or self.starvation_window < 1:
            raise ValueError(f"starvation_window must be an integer >= 1, "
                             f"got {self.starvation_window!r}")
        if not isinstance(self.auto, bool):
            raise ValueError(f"auto must be a boolean, got {self.auto!r}")
        _check_rate(self.max_fpr, "max_fpr")

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "RecoveryPolicy":
        if not isinstance(data, Mapping):
            raise ValueError(f"recovery policy must be a mapping, got "
                             f"{type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"recovery policy has unknown keys {sorted(unknown)}; "
                             f"known keys: {', '.join(sorted(known))}")
        return cls(**dict(data))



@dataclass(frozen=True)
class MaintenancePolicy:
    """When the control plane acts on one tenant.

    Parameters
    ----------
    check_every:
        Evaluate the policy every N observations; ``0`` disables the
        policy entirely (the no-op default).
    refresh_every:
        Scheduled coordinated refresh every N observations since the
        last refresh (or provision); ``0`` disables the schedule.
    min_update_rate:
        Telemetry trigger: refresh when the fraction of observations
        entering the self-update buffer (confident inliers) in the
        window falls below this — a drifting world makes the detector
        stop trusting its inliers long before AUC collapses.
    min_window:
        Observations the evaluation window must hold before the rate
        trigger may fire (rates over a handful of records are noise).
    reprovision_after:
        Escalation: after this many *consecutive* telemetry-triggered
        refreshes that failed to clear the trigger, re-provision (full
        refit from the recent-inlier reservoir) instead of refreshing
        again; ``0`` never escalates.
    recovery:
        Optional :class:`RecoveryPolicy` (or its mapping form): arm a
        quarantine-fed recovery when stuck maintenance meets reservoir
        starvation.  ``None`` (the default) never recovers — fleets
        without a quarantine stay bit-identical to earlier releases.
    """

    check_every: int = 0
    refresh_every: int = 0
    min_update_rate: float | None = None
    min_window: int = 16
    reprovision_after: int = 0
    recovery: RecoveryPolicy | None = None

    def __post_init__(self):
        for name in ("check_every", "refresh_every", "reprovision_after"):
            _check_count(getattr(self, name), name)
        _check_rate(self.min_update_rate, "min_update_rate")
        if isinstance(self.min_window, bool) or not isinstance(self.min_window, int) \
                or self.min_window < 1:
            raise ValueError(f"min_window must be an integer >= 1, got {self.min_window!r}")
        if isinstance(self.recovery, Mapping):
            # JSON form arrives as a mapping; coerce so from_dict (and
            # direct construction from parsed spec blocks) both work.
            object.__setattr__(self, "recovery",
                               RecoveryPolicy.from_dict(self.recovery))
        elif self.recovery is not None and not isinstance(self.recovery, RecoveryPolicy):
            raise ValueError(f"recovery must be a RecoveryPolicy, a mapping or "
                             f"null, got {self.recovery!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_noop(self) -> bool:
        """True when a controller running this policy can never act."""
        return self.check_every == 0

    def wants_refresh(self) -> bool:
        """True when any clause can demand a coordinated refresh (and the
        pipeline therefore must be refresh-capable)."""
        return bool(self.check_every) and (
            bool(self.refresh_every) or self.min_update_rate is not None)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value.to_dict() \
                    if isinstance(value, RecoveryPolicy) else value
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "MaintenancePolicy":
        if not isinstance(data, Mapping):
            raise ValueError(f"maintenance policy must be a mapping, got "
                             f"{type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"maintenance policy has unknown keys {sorted(unknown)}; "
                             f"known keys: {', '.join(sorted(known))}")
        return cls(**dict(data))

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MaintenancePolicy":
        return cls.from_dict(json.loads(text))

