"""Temporal dynamics: seed-deterministic world mutation over simulated days.

The paper's central robustness claims are *temporal*: MAC addresses
churn as neighbours replace routers (Fig. 9/10), transient hotspot APs
appear at busy hours (Fig. 15, Table III), and APs blink in and out
under Markov on-off dynamics (Fig. 12).  The scenario builders in
:mod:`repro.rf.scenarios` freeze a world at build time; this module
evolves one.

A *mutation schedule* is a small frozen dataclass describing one kind
of change per epoch (an epoch is a simulated day).  Schedules compose
inside a :class:`DynamicsTimeline`, which applies them in order with
per-``(epoch, schedule)`` RNG streams derived from a single seed, and
yields an immutable :class:`EpochWorld` (environment + device-gain
offset + event log) per epoch.  Equal seeds reproduce bit-identical
timelines; the timeline is lazy and cached, so ``world(5)`` computes
epochs 1–5 once and random access stays deterministic.

Schedules also have a declarative form (``SCHEDULES`` +
:func:`build_schedule`) so a drift workload can travel as JSON inside a
:class:`~repro.pipeline.spec.PipelineSpec` drift block.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.rf.ap import AccessPoint
from repro.rf.environment import Environment
from repro.rf.scenarios import SiteScenario

__all__ = [
    "APChurn",
    "ChurnShock",
    "DeviceGainDrift",
    "DynamicsTimeline",
    "EpochWorld",
    "MacRandomization",
    "MarkovOnOff",
    "MutableWorld",
    "SCHEDULES",
    "TransientHotspots",
    "TxPowerDrift",
    "build_schedule",
    "home_ap_ids",
]


def home_ap_ids(scenario: SiteScenario) -> tuple[int, ...]:
    """ap_ids of APs inside the geofence — the tenant's own equipment.

    The natural ``protect`` argument for churn schedules: neighbours
    replace *their* routers behind the user's back, but the user's own
    AP only changes when they act, which is a different experiment.
    """
    environment = scenario.environment
    return tuple(ap.ap_id for ap in environment.aps
                 if environment.is_inside(ap.position, ap.floor))


# ----------------------------------------------------------------------
# Mutable working state (owned by the timeline, mutated by schedules)
# ----------------------------------------------------------------------
@dataclass
class MutableWorld:
    """The evolving world a timeline threads through its schedules.

    ``aps`` is the persistent AP population; ``transients`` live for one
    epoch only and are cleared before each epoch's mutations run.
    ``next_ap_id`` is monotone, so a fresh AP can never resurrect a
    retired MAC.
    """

    scenario: SiteScenario
    aps: list[AccessPoint]
    next_ap_id: int
    transients: list[AccessPoint] = field(default_factory=list)
    device_gain_db: float = 0.0
    tx_origin: dict[int, float] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)

    def fresh_ap(self, like: AccessPoint, tx_power_dbm: float | None = None) -> AccessPoint:
        """A brand-new AP (fresh id, fresh MACs) at ``like``'s position."""
        ap_id = self.next_ap_id
        self.next_ap_id += 1
        tx = tx_power_dbm if tx_power_dbm is not None else like.radios[0].tx_power_dbm
        return AccessPoint.create(ap_id, like.position, floor=like.floor,
                                  bands=tuple(radio.band for radio in like.radios),
                                  tx_power_dbm=tx)


def _check_fraction(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class APChurn:
    """Gradual AP turnover: each epoch, each AP retires w.p. ``rate``.

    ``replace=True`` models router replacement (a new device with fresh
    MACs at the same spot and power — the Fig. 9/10 mechanism);
    ``replace=False`` models pure disappearance, which run over many
    epochs reproduces the paper's MAC-removal ablation as a *drift*
    rather than a one-shot cut.  ``protect`` lists ap_ids exempt from
    churn (e.g. the home's own AP).
    """

    rate: float = 0.05
    replace: bool = True
    protect: tuple[int, ...] = ()

    def __post_init__(self):
        _check_fraction(self.rate, "rate")
        object.__setattr__(self, "protect", tuple(int(i) for i in self.protect))

    def mutate(self, world: MutableWorld, epoch: int, rng: np.random.Generator,
               store: dict) -> None:
        protected = set(self.protect)
        survivors: list[AccessPoint] = []
        churned: list[AccessPoint] = []
        for ap in world.aps:
            if ap.ap_id not in protected and rng.random() < self.rate:
                churned.append(ap)
            else:
                survivors.append(ap)
        if not self.replace and not survivors and churned:
            # Never empty the world outright: the last AP survives.
            survivors.append(churned.pop())
        for ap in churned:
            if self.replace:
                survivors.append(world.fresh_ap(ap))
        if churned:
            verb = "replaced" if self.replace else "retired"
            world.events.append(f"ap-churn: {verb} {len(churned)} AP(s)")
        world.aps = survivors


@dataclass(frozen=True)
class ChurnShock:
    """A one-shot mass churn at exactly ``epoch`` (the recovery probe).

    Retires ``fraction`` of the unprotected APs at once — a building
    re-fit, an ISP swap-out campaign — optionally replacing them with
    fresh-MAC units at the same positions.
    """

    epoch: int
    fraction: float = 0.5
    replace: bool = True
    protect: tuple[int, ...] = ()

    def __post_init__(self):
        if self.epoch < 1:
            raise ValueError(f"shock epoch must be >= 1, got {self.epoch}")
        _check_fraction(self.fraction, "fraction")
        object.__setattr__(self, "protect", tuple(int(i) for i in self.protect))

    def mutate(self, world: MutableWorld, epoch: int, rng: np.random.Generator,
               store: dict) -> None:
        if epoch != self.epoch:
            return
        protected = set(self.protect)
        eligible = [ap.ap_id for ap in world.aps if ap.ap_id not in protected]
        count = int(round(self.fraction * len(eligible)))
        if not self.replace:
            count = min(count, max(len(world.aps) - 1, 0))
        if count == 0:
            return
        doomed = set(int(i) for i in rng.choice(eligible, size=count, replace=False))
        survivors = [ap for ap in world.aps if ap.ap_id not in doomed]
        if self.replace:
            survivors.extend(world.fresh_ap(ap) for ap in world.aps
                             if ap.ap_id in doomed)
        verb = "replaced" if self.replace else "retired"
        world.events.append(f"churn-shock: {verb} {count} AP(s)")
        world.aps = survivors


@dataclass(frozen=True)
class TxPowerDrift:
    """Per-AP transmit-power random walk, clamped around each AP's origin.

    Firmware updates, thermal ageing and neighbours fiddling with
    settings slowly move effective EIRP; the clamp keeps the walk within
    ``max_drift_db`` of the power the AP first appeared with.
    """

    sigma_db: float = 0.4
    max_drift_db: float = 5.0

    def __post_init__(self):
        if self.sigma_db < 0 or self.max_drift_db < 0:
            raise ValueError("sigma_db and max_drift_db must be non-negative")

    def mutate(self, world: MutableWorld, epoch: int, rng: np.random.Generator,
               store: dict) -> None:
        drifted = []
        for ap in world.aps:
            origin = world.tx_origin.setdefault(ap.ap_id, ap.radios[0].tx_power_dbm)
            step = float(rng.normal(0.0, self.sigma_db)) if self.sigma_db else 0.0
            tx = float(np.clip(ap.radios[0].tx_power_dbm + step,
                               origin - self.max_drift_db, origin + self.max_drift_db))
            radios = tuple(dataclasses.replace(radio, tx_power_dbm=tx)
                           for radio in ap.radios)
            drifted.append(dataclasses.replace(ap, radios=radios))
        world.aps = drifted
        if drifted and self.sigma_db:
            world.events.append(f"tx-drift: nudged {len(drifted)} AP(s)")


@dataclass(frozen=True)
class MacRandomization:
    """A cohort of APs rotates to fresh MACs every ``period`` epochs.

    Models privacy-driven MAC randomization (and soft-AP hotspots that
    re-randomize per session): the radio stays put, the identifier the
    geofencing model keyed on disappears.
    """

    cohort_fraction: float = 0.2
    period: int = 2

    def __post_init__(self):
        _check_fraction(self.cohort_fraction, "cohort_fraction")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    def prepare(self, world: MutableWorld, rng: np.random.Generator,
                store: dict) -> None:
        ids = [ap.ap_id for ap in world.aps]
        count = int(round(self.cohort_fraction * len(ids)))
        cohort = rng.choice(ids, size=count, replace=False) if count else []
        store["cohort"] = set(int(i) for i in cohort)

    def mutate(self, world: MutableWorld, epoch: int, rng: np.random.Generator,
               store: dict) -> None:
        if epoch % self.period != 0:
            return
        cohort: set[int] = store.setdefault("cohort", set())
        if not cohort:
            return
        rotated = 0
        out: list[AccessPoint] = []
        for ap in world.aps:
            if ap.ap_id in cohort:
                fresh = world.fresh_ap(ap)
                cohort.discard(ap.ap_id)
                cohort.add(fresh.ap_id)
                out.append(fresh)
                rotated += 1
            else:
                out.append(ap)
        world.aps = out
        if rotated:
            world.events.append(f"mac-randomization: rotated {rotated} AP(s)")


@dataclass(frozen=True)
class MarkovOnOff:
    """Fig. 11/12's two-state AP ON-OFF chain, lifted to epoch dynamics.

    Each persistent AP follows an independent Markov chain with one
    transition per epoch: ON→OFF with probability ``p``, OFF→ON with
    probability ``q`` (the chain of :mod:`repro.rf.markov`, which applies
    the same process to an already-generated *record stream*; here the
    APs blink out of the *world* instead, so the drift harness scans a
    physically consistent environment).  OFF APs vanish from the epoch's
    environment and return — same device, same MACs — when the chain
    flips back, unlike :class:`APChurn` retirement.  ``protect`` pins
    ap_ids permanently ON.  While OFF, an AP is invisible to the other
    schedules (a powered-down router does not take firmware churn).
    """

    p: float = 0.2
    q: float = 0.5
    protect: tuple[int, ...] = ()

    def __post_init__(self):
        _check_fraction(self.p, "p")
        _check_fraction(self.q, "q")
        object.__setattr__(self, "protect", tuple(int(i) for i in self.protect))

    def mutate(self, world: MutableWorld, epoch: int, rng: np.random.Generator,
               store: dict) -> None:
        hidden: dict[int, AccessPoint] = store.setdefault("hidden", {})
        states: dict[int, bool] = store.setdefault("states", {})
        pool = list(world.aps) + list(hidden.values())
        hidden.clear()
        # Chains no longer backed by a live AP (e.g. churned away while
        # hidden) are dropped so the store stays bounded.
        live = {ap.ap_id for ap in pool}
        for ap_id in [i for i in states if i not in live]:
            del states[ap_id]
        protected = set(self.protect)
        visible: list[AccessPoint] = []
        turned_off = turned_on = 0
        # Sorted iteration pins the per-AP RNG draw order regardless of
        # how earlier schedules shuffled the population.
        for ap in sorted(pool, key=lambda a: a.ap_id):
            was_on = states.get(ap.ap_id, True)
            if ap.ap_id in protected:
                now_on = True
            elif was_on:
                now_on = rng.random() >= self.p
            else:
                now_on = rng.random() < self.q
            states[ap.ap_id] = now_on
            if now_on:
                visible.append(ap)
                turned_on += not was_on
            else:
                hidden[ap.ap_id] = ap
                turned_off += was_on
        if not visible and hidden:
            # Never empty the world outright: deterministically revive one.
            ap = hidden.pop(max(hidden))
            states[ap.ap_id] = True
            visible.append(ap)
            turned_on += 1
        world.aps = visible
        if turned_off or turned_on:
            world.events.append(f"markov-onoff: {turned_off} AP(s) off, "
                                f"{turned_on} back on")


@dataclass(frozen=True)
class TransientHotspots:
    """Short-lived low-power hotspots (phones) present for one epoch.

    Each epoch, 0..``max_active`` hotspots appear at fresh positions in
    the scenario's outside (or inside) regions with never-seen MACs —
    the Table III busy-hour MAC-count swings.  They vanish at the next
    epoch boundary.
    """

    max_active: int = 3
    tx_power_dbm: float = 10.0
    region: str = "outside"

    def __post_init__(self):
        if self.max_active < 0:
            raise ValueError(f"max_active must be >= 0, got {self.max_active}")
        if self.region not in ("outside", "inside"):
            raise ValueError(f"region must be 'outside' or 'inside', got {self.region!r}")

    def mutate(self, world: MutableWorld, epoch: int, rng: np.random.Generator,
               store: dict) -> None:
        pool = (world.scenario.outside_regions if self.region == "outside"
                else world.scenario.inside_regions)
        if not pool or self.max_active == 0:
            return
        count = int(rng.integers(0, self.max_active + 1))
        for _ in range(count):
            polygon, floor = pool[int(rng.integers(0, len(pool)))]
            position = polygon.sample_point(rng)
            ap_id = world.next_ap_id
            world.next_ap_id += 1
            world.transients.append(AccessPoint.create(
                ap_id, position, floor=floor, bands=("2.4",),
                tx_power_dbm=self.tx_power_dbm))
        if count:
            world.events.append(f"transient-hotspots: {count} active")


@dataclass(frozen=True)
class DeviceGainDrift:
    """Random walk on the device's RSS calibration offset.

    Case swaps, battery state and OS radio calibration shift reported
    RSS by a few dB over weeks; the walk is clamped to ``max_gain_db``.
    """

    sigma_db: float = 0.3
    max_gain_db: float = 3.0

    def __post_init__(self):
        if self.sigma_db < 0 or self.max_gain_db < 0:
            raise ValueError("sigma_db and max_gain_db must be non-negative")

    def mutate(self, world: MutableWorld, epoch: int, rng: np.random.Generator,
               store: dict) -> None:
        step = float(rng.normal(0.0, self.sigma_db)) if self.sigma_db else 0.0
        world.device_gain_db = float(np.clip(world.device_gain_db + step,
                                             -self.max_gain_db, self.max_gain_db))


# ----------------------------------------------------------------------
# Declarative registry (for PipelineSpec drift blocks / CLI / JSON)
# ----------------------------------------------------------------------
SCHEDULES = {
    "ap-churn": APChurn,
    "churn-shock": ChurnShock,
    "tx-power-drift": TxPowerDrift,
    "mac-randomization": MacRandomization,
    "markov-onoff": MarkovOnOff,
    "transient-hotspots": TransientHotspots,
    "device-gain-drift": DeviceGainDrift,
}

def build_schedule(name: str, params: dict | None = None):
    """Instantiate a registered schedule by name, validating parameters."""
    cls = SCHEDULES.get(name)
    if cls is None:
        raise ValueError(f"unknown dynamics schedule {name!r}; known: "
                         f"{', '.join(sorted(SCHEDULES))}")
    params = dict(params or {})
    accepted = {f.name for f in dataclasses.fields(cls)}
    unknown = set(params) - accepted
    if unknown:
        raise ValueError(f"schedule {name!r} does not accept parameter(s) "
                         f"{', '.join(sorted(repr(p) for p in unknown))}; accepted: "
                         f"{', '.join(sorted(accepted))}")
    # Tuples arrive as JSON lists; the dataclasses normalise int tuples.
    for key in ("protect",):
        if key in params and isinstance(params[key], list):
            params[key] = tuple(params[key])
    try:
        return cls(**params)
    except TypeError as error:
        # Missing required parameters (e.g. churn-shock without "epoch")
        # are an operator input problem, not a programming error.
        raise ValueError(f"schedule {name!r}: {error}") from error


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EpochWorld:
    """One epoch's immutable snapshot: environment + device drift + log."""

    epoch: int
    environment: Environment
    device_gain_db: float = 0.0
    events: tuple[str, ...] = ()

    @property
    def macs(self) -> frozenset[str]:
        return frozenset(self.environment.all_macs)


class DynamicsTimeline:
    """Evolves a :class:`SiteScenario` over epochs under some schedules.

    Epoch 0 is the pristine built world; each later epoch applies every
    schedule in order with an RNG stream derived from
    ``SeedSequence(seed, spawn_key=(epoch, index))``, so a timeline is a
    pure function of ``(scenario, schedules, num_epochs, seed)``.
    Worlds are computed sequentially (churn is cumulative) and cached.
    """

    def __init__(self, scenario: SiteScenario, schedules: Sequence,
                 num_epochs: int, seed: int = 0):
        if num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1, got {num_epochs}")
        for schedule in schedules:
            if not hasattr(schedule, "mutate"):
                raise TypeError(f"{type(schedule).__name__} is not a mutation "
                                "schedule (no mutate method)")
        self.scenario = scenario
        self.schedules = tuple(schedules)
        self.num_epochs = int(num_epochs)
        self.seed = int(seed)
        base = scenario.environment
        self._state = MutableWorld(
            scenario=scenario,
            aps=list(base.aps),
            next_ap_id=max(ap.ap_id for ap in base.aps) + 1,
        )
        self._stores: list[dict] = [{} for _ in self.schedules]
        for index, schedule in enumerate(self.schedules):
            if hasattr(schedule, "prepare"):
                schedule.prepare(self._state, self._rng(0, index), self._stores[index])
        self._worlds: list[EpochWorld] = [EpochWorld(0, base)]

    def _rng(self, epoch: int, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(epoch, index)))

    def _advance(self) -> None:
        epoch = len(self._worlds)
        state = self._state
        state.transients = []
        state.events = []
        for index, schedule in enumerate(self.schedules):
            schedule.mutate(state, epoch, self._rng(epoch, index), self._stores[index])
        aps = list(state.aps) + list(state.transients)
        if not aps:
            raise RuntimeError(f"dynamics emptied the world at epoch {epoch}; "
                               "protect at least one AP or lower the churn")
        base = self.scenario.environment
        environment = Environment(walls=base.walls, aps=aps,
                                  geofence=base.geofence,
                                  geofence_floors=base.geofence_floors,
                                  propagation_config=base.propagation_config)
        self._worlds.append(EpochWorld(epoch, environment,
                                       device_gain_db=state.device_gain_db,
                                       events=tuple(state.events)))

    def world(self, epoch: int) -> EpochWorld:
        """The (cached) snapshot of one epoch; computes predecessors lazily."""
        if not 0 <= epoch < self.num_epochs:
            raise IndexError(f"epoch {epoch} outside 0..{self.num_epochs - 1}")
        while len(self._worlds) <= epoch:
            self._advance()
        return self._worlds[epoch]

    def __len__(self) -> int:
        return self.num_epochs

    def __iter__(self) -> Iterator[EpochWorld]:
        return (self.world(epoch) for epoch in range(self.num_epochs))
