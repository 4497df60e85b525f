"""Streaming drift evaluation over a :class:`~repro.rf.dynamics.DynamicsTimeline`.

The static harness (:mod:`repro.eval.harness`) scores one frozen
snapshot; this one replays *multi-epoch* observation streams through a
model while the world mutates underneath it — AP churn, transmit-power
drift, MAC randomization, transient hotspots, device-gain drift — and
reports the per-epoch trajectory: AUC, false-alarm and missed-breach
rates, and how many online self-updates the model absorbed.  That is
the paper's temporal-robustness story (Fig. 9/10/12/15) run as one
continuous deployment instead of one-shot ablations.

Streams are generated once per epoch and cached, so every arm replayed
through the same :class:`DriftHarness` sees the *identical* byte-level
observation sequence — comparisons measure the models, not the worlds.

Two replay targets:

* any fitted pipeline (``run``), online (``observe``, self-updates on)
  or as a static snapshot (``predict``/``score``, no self-update);
* a :class:`~repro.serve.fleet.GeofenceFleet` tenant (``run_fleet``),
  which is force-evicted mid-epoch so the checkpoint save/load path is
  exercised under drift — a reloaded tenant must continue exactly where
  the resident one left off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.protocols import GeofenceDecision
from repro.core.records import LabeledRecord, SignalRecord
from repro.eval.roc import finite_scores, roc_curve
from repro.rf.device import Device
from repro.rf.dynamics import DynamicsTimeline, EpochWorld
from repro.rf.scanner import Scanner
from repro.rf.trajectory import perimeter_walk, random_waypoint_walk

__all__ = ["DriftHarness", "DriftResult", "EpochMetrics"]

_DAY_S = 86400.0


@dataclass(frozen=True)
class EpochMetrics:
    """One epoch of a drift trajectory.

    ``fpr`` is the user-facing false-alarm rate — truly-inside records
    predicted outside; ``fnr`` is the missed-breach rate — truly-outside
    records predicted inside.  ``auc`` ranks outlier scores with
    "outside" as the positive class and is ``None`` for a degenerate
    (single-class or empty) epoch.
    """

    epoch: int
    num_records: int
    auc: float | None
    fpr: float
    fnr: float
    updates_buffered: int
    updates_applied: int
    unembeddable: int
    events: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "num_records": self.num_records,
                "auc": self.auc, "fpr": self.fpr, "fnr": self.fnr,
                "updates_buffered": self.updates_buffered,
                "updates_applied": self.updates_applied,
                "unembeddable": self.unembeddable,
                "events": list(self.events)}


@dataclass
class DriftResult:
    """A full per-epoch trajectory for one replay target."""

    label: str
    epochs: list[EpochMetrics]
    train_seconds: float = 0.0
    stream_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    def aucs(self) -> list[float | None]:
        return [m.auc for m in self.epochs]

    def recovery_after(self, shock_epoch: int, tolerance: float = 0.05) -> int | None:
        """Time-to-recovery (in epochs) from a churn shock.

        The pre-shock mean AUC is the baseline.  Damage onset is the
        first epoch at or after the shock whose AUC falls more than
        ``tolerance`` below it; recovery is the first later epoch back
        within tolerance.  Returns ``0`` when the shock never knocked
        the model below tolerance, ``None`` when it never recovers (or
        no pre-shock baseline exists).
        """
        pre = [m.auc for m in self.epochs if m.epoch < shock_epoch and m.auc is not None]
        if not pre:
            return None
        floor = float(np.mean(pre)) - tolerance
        post = [m for m in self.epochs if m.epoch >= shock_epoch and m.auc is not None]
        onset = next((m.epoch for m in post if m.auc < floor), None)
        if onset is None:
            return 0
        for m in post:
            if m.epoch > onset and m.auc >= floor:
                return m.epoch - shock_epoch
        return None

    def time_to_auc(self, threshold: float, after_epoch: int = 0) -> int | None:
        """Epochs from ``after_epoch`` until AUC first reaches ``threshold``.

        The recovery-latency counterpart of :meth:`recovery_after` for
        runs with no meaningful pre-shock baseline (e.g. the worst-case
        replacement arms, where AUC pins to 0.5 and the question is
        *whether and how fast* quarantine recovery lifts it back).
        Returns ``None`` when the trajectory never reaches the
        threshold at or after ``after_epoch``.
        """
        for m in self.epochs:
            if m.epoch >= after_epoch and m.auc is not None and m.auc >= threshold:
                return m.epoch - after_epoch
        return None

    def to_dict(self) -> dict:
        return {"label": self.label,
                "epochs": [m.to_dict() for m in self.epochs],
                "meta": dict(self.meta)}


def _epoch_metrics(world: EpochWorld, labels: list[bool],
                   decisions: list[GeofenceDecision]) -> EpochMetrics:
    inside_total = sum(labels)
    outside_total = len(labels) - inside_total
    false_alarms = sum(1 for label, d in zip(labels, decisions) if label and not d.inside)
    missed = sum(1 for label, d in zip(labels, decisions) if not label and d.inside)
    auc: float | None = None
    if 0 < inside_total < len(labels):
        scores = finite_scores([d.score for d in decisions])
        auc = float(roc_curve(scores, [not label for label in labels]).auc)
    return EpochMetrics(
        epoch=world.epoch, num_records=len(labels), auc=auc,
        fpr=false_alarms / inside_total if inside_total else 0.0,
        fnr=missed / outside_total if outside_total else 0.0,
        updates_buffered=sum(1 for d in decisions if d.buffered),
        updates_applied=sum(1 for d in decisions if d.updated),
        unembeddable=sum(1 for d in decisions if not np.isfinite(d.score)),
        events=world.events)


class DriftHarness:
    """Deterministic multi-epoch streams over one timeline.

    The harness owns stream generation: a training perimeter walk on the
    pristine epoch-0 world, then per epoch a set of alternating
    inside/outside random-waypoint sessions scanned through that epoch's
    mutated environment (with the epoch's device-gain drift applied).
    All streams are pure functions of ``(timeline, seed)`` and cached.
    """

    def __init__(self, timeline: DynamicsTimeline, seed: int = 0,
                 train_duration_s: float = 300.0, train_speed: float = 0.8,
                 sessions_per_epoch: int = 4, session_duration_s: float = 60.0,
                 device: Device = Device(), start_outside: bool = False):
        if sessions_per_epoch < 1:
            raise ValueError("sessions_per_epoch must be >= 1")
        if train_duration_s <= 0 or session_duration_s <= 0:
            raise ValueError("durations must be positive")
        self.timeline = timeline
        self.seed = int(seed)
        self.train_duration_s = float(train_duration_s)
        self.train_speed = float(train_speed)
        self.sessions_per_epoch = int(sessions_per_epoch)
        self.session_duration_s = float(session_duration_s)
        self.device = device
        self.start_outside = bool(start_outside)
        self._train: list[SignalRecord] | None = None
        self._streams: dict[int, list[LabeledRecord]] = {}

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def training_records(self) -> list[SignalRecord]:
        """The epoch-0 perimeter walk (the paper's initial training)."""
        if self._train is None:
            scenario = self.timeline.scenario
            world = self.timeline.world(0)
            scanner = Scanner(world.environment, self.device, rng=self._rng(0, 0),
                              device_offset_db=world.device_gain_db)
            region, floor = scenario.perimeter_region
            lap_length = max(region.shrunk(0.5).perimeter, 1.0)
            laps = max(1, round(self.train_duration_s * self.train_speed / lap_length))
            poses = perimeter_walk(region, speed=self.train_speed, laps=laps,
                                   floor=floor)
            self._train = scanner.scan_path(poses[: int(self.train_duration_s)])
        return self._train

    def epoch_records(self, epoch: int) -> list[LabeledRecord]:
        """The labelled observation stream of one epoch (cached)."""
        if epoch not in self._streams:
            scenario = self.timeline.scenario
            world = self.timeline.world(epoch)
            environment = world.environment
            rng = self._rng(epoch, 1)
            scanner = Scanner(environment, self.device, rng=rng,
                              device_offset_db=world.device_gain_db)
            records: list[LabeledRecord] = []
            t0 = epoch * _DAY_S + self.train_duration_s + 300.0
            inside_cursor = outside_cursor = 0
            for session in range(self.sessions_per_epoch):
                outside = (session % 2 == 0) == self.start_outside
                pool = scenario.outside_regions if outside else scenario.inside_regions
                if outside:
                    region, floor = pool[outside_cursor % len(pool)]
                    outside_cursor += 1
                else:
                    region, floor = pool[inside_cursor % len(pool)]
                    inside_cursor += 1
                poses = random_waypoint_walk(region, duration=self.session_duration_s,
                                             floor=floor, start_time=t0, rng=rng)
                for pose in poses:
                    record = scanner.scan(pose)
                    label = environment.is_inside(pose.position, pose.floor)
                    records.append(LabeledRecord(record, inside=label,
                                                 meta={"epoch": epoch, "session": session}))
                t0 = (poses[-1].time if poses else t0 + self.session_duration_s) + 450.0
            self._streams[epoch] = records
        return self._streams[epoch]

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run(self, model, label: str = "model", online: bool = True,
            fit: bool = True) -> DriftResult:
        """Replay every epoch through ``model``.

        ``online=True`` uses ``observe`` (embed + self-update — the
        deployed Algorithm 2); ``online=False`` freezes the trained
        snapshot and replays through side-effect-free ``predict``/
        ``score``, the static baseline the paper's drift claims are
        measured against.
        """
        if not online and not (hasattr(model, "predict") and hasattr(model, "score")):
            raise TypeError(f"{type(model).__name__} exposes no side-effect-free "
                            "predict/score pair; a static-snapshot replay needs one "
                            "(replay it online instead)")
        t0 = time.perf_counter()
        if fit:
            model.fit(self.training_records())
        train_seconds = time.perf_counter() - t0
        epochs: list[EpochMetrics] = []
        t0 = time.perf_counter()
        for world in self.timeline:
            labels, decisions = [], []
            for item in self.epoch_records(world.epoch):
                if online:
                    decision = model.observe(item.record)
                else:
                    # predict()/score() never self-update — a frozen
                    # snapshot of train time.
                    decision = GeofenceDecision(
                        inside=model.predict(item.record),
                        score=model.score(item.record))
                labels.append(item.inside)
                decisions.append(decision)
            epochs.append(_epoch_metrics(world, labels, decisions))
        return DriftResult(label=label, epochs=epochs,
                           train_seconds=train_seconds,
                           stream_seconds=time.perf_counter() - t0,
                           meta={"online": online, "seed": self.seed,
                                 "num_epochs": self.timeline.num_epochs})

    def run_fleet(self, fleet, tenant_id: str, label: str | None = None,
                  evict_mid_epoch: bool = True, controller=None) -> DriftResult:
        """Replay every epoch through one fleet tenant (always online).

        The tenant must already be provisioned (typically on
        :meth:`training_records`).  With ``evict_mid_epoch`` the tenant
        is evicted halfway through every epoch *and* at each epoch
        boundary, so the stream repeatedly crosses checkpoint write-back
        and reload — the drift trajectory doubles as a no-drift check on
        the persistence layer.

        ``controller`` hooks the control plane in: a
        :class:`~repro.serve.controller.FleetController` whose
        :meth:`step` is called after every observation, so maintenance
        policies (coordinated refresh, re-provision, flush) execute at
        exactly the points they would in production and their effect on
        the trajectory is measured.  A controller running the no-op
        policy leaves the replay bit-identical to ``controller=None``.
        The per-epoch maintenance actions land in
        ``meta["maintenance"]``; a fleet running a quarantine
        (``quarantine_size > 0``) additionally reports its end-of-epoch
        quarantine depth in ``meta["quarantine_depths"]``.
        """
        epochs: list[EpochMetrics] = []
        actions_by_epoch: dict[int, list[str]] = {}
        quarantine_depths: list[int] = []
        track_quarantine = bool(getattr(fleet, "quarantine_size", 0))
        t0 = time.perf_counter()
        for world in self.timeline:
            records = self.epoch_records(world.epoch)
            labels, decisions = [], []
            halfway = len(records) // 2
            for position, item in enumerate(records):
                if evict_mid_epoch and position == halfway and position > 0:
                    fleet.evict(tenant_id)
                decision = fleet.observe(tenant_id, item.record)
                if controller is not None:
                    acted = controller.step(tenant_id, decision)
                    if acted:
                        actions_by_epoch.setdefault(world.epoch, []).extend(acted)
                decisions.append(decision)
                labels.append(item.inside)
            if track_quarantine:
                # Sampled before the boundary eviction: quarantine_depth
                # reads resident state only (the buffer itself persists
                # through the eviction in checkpoint metadata).
                quarantine_depths.append(fleet.quarantine_depth(tenant_id))
            fleet.evict(tenant_id)
            epochs.append(_epoch_metrics(world, labels, decisions))
        meta = {"online": True, "seed": self.seed,
                "num_epochs": self.timeline.num_epochs,
                "tenant_id": tenant_id}
        if controller is not None:
            meta["maintenance"] = {str(k): v for k, v in sorted(actions_by_epoch.items())}
        if track_quarantine:
            meta["quarantine_depths"] = quarantine_depths
        return DriftResult(label=label or f"fleet:{tenant_id}", epochs=epochs,
                           stream_seconds=time.perf_counter() - t0,
                           meta=meta)
