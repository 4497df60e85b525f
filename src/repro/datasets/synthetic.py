"""Dataset generation: scenario -> training records + labelled test stream.

Reproduces the paper's collection protocol (Sec. V):

* **initial training** — the user walks the inner perimeter of the
  geofenced area for a few minutes (~1 Hz scans, 0.8 m/s default);
* **testing** — the user "behaves as he/she wishes": alternating
  sessions inside and outside the area, streamed in temporal order so
  the online self-update sees a realistic sequence.

Ground-truth labels come from the environment geometry, not from the
session intent, so records straddling the boundary are labelled by where
the device actually was.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.records import LabeledRecord, SignalRecord, unique_macs
from repro.rf.device import Device
from repro.rf.scanner import Scanner
from repro.rf.scenarios import SiteScenario
from repro.rf.trajectory import perimeter_walk, random_waypoint_walk
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import check_positive

__all__ = ["GeofenceDataset", "generate_dataset", "remove_macs"]


@dataclass
class GeofenceDataset:
    """Everything one experiment needs."""

    scenario: SiteScenario
    train: list[SignalRecord]
    test: list[LabeledRecord]
    meta: dict = field(default_factory=dict)

    @property
    def num_macs_seen(self) -> int:
        """Distinct MACs across training records (the Table II column)."""
        return len(unique_macs(self.train))



def generate_dataset(scenario: SiteScenario, seed: int = 0,
                     train_duration_s: float = 420.0,
                     train_speed: float = 0.8,
                     test_sessions: int = 8,
                     session_duration_s: float = 150.0,
                     device: Device = Device(),
                     crowd_penalty_db: float = 0.0,
                     extra_fading_db: float = 0.0,
                     start_outside: bool = False) -> GeofenceDataset:
    """Build one train/test dataset from a scenario.

    ``train_duration_s`` defaults to 7 minutes (the paper's 5–10 minute
    walk); test sessions alternate inside/outside regions.
    """
    check_positive(train_duration_s, "train_duration_s")
    check_positive(session_duration_s, "session_duration_s")
    if test_sessions < 1:
        raise ValueError("test_sessions must be >= 1")
    rng_train, rng_test, _ = spawn_rngs(seed, 3)
    environment = scenario.environment

    # ---------------- training: inner-perimeter walk --------------------
    # The walk covers every geofenced floor (a two-storey house trains on
    # both floors), splitting the time budget evenly.
    train_floors = scenario.inside_regions or [scenario.perimeter_region]
    per_floor_duration = train_duration_s / len(train_floors)
    scanner = Scanner(environment, device, rng=rng_train,
                      crowd_penalty_db=crowd_penalty_db,
                      extra_fading_db=extra_fading_db)
    train_poses = []
    t_start = 0.0
    for region, floor in train_floors:
        perimeter_length = max(region.shrunk(0.5).perimeter, 1.0)
        laps = max(1, round(per_floor_duration * train_speed / perimeter_length))
        poses = perimeter_walk(region, speed=train_speed, laps=laps, floor=floor,
                               start_time=t_start)
        poses = poses[: int(per_floor_duration)]
        train_poses.extend(poses)
        t_start = poses[-1].time + 20.0 if poses else t_start + per_floor_duration
    train_records = scanner.scan_path(train_poses)

    # ---------------- testing: alternating sessions ---------------------
    # Sessions are spread over a multi-hour window (the paper's "whole
    # process lasts about three hours"), so the slow RF drift between
    # training time and late test sessions is part of the task.
    test_scanner = Scanner(environment, device, rng=rng_test,
                           crowd_penalty_db=crowd_penalty_db,
                           extra_fading_db=extra_fading_db)
    test: list[LabeledRecord] = []
    t0 = train_poses[-1].time + 300.0 if train_poses else 300.0
    inside_cursor = outside_cursor = 0
    for session in range(test_sessions):
        outside = (session % 2 == 0) == start_outside
        pool = scenario.inside_regions if not outside else scenario.outside_regions
        # Round-robin through the regions so every dataset exercises both
        # boundary areas (corridor) and genuinely-away areas.
        if outside:
            region, floor = pool[outside_cursor % len(pool)]
            outside_cursor += 1
        else:
            region, floor = pool[inside_cursor % len(pool)]
            inside_cursor += 1
        poses = random_waypoint_walk(region, duration=session_duration_s,
                                     floor=floor, start_time=t0, rng=rng_test)
        for pose in poses:
            record = test_scanner.scan(pose)
            label = environment.is_inside(pose.position, pose.floor)
            test.append(LabeledRecord(record, inside=label,
                                      meta={"session": session, "intended_outside": outside}))
        t0 = (poses[-1].time if poses else t0 + session_duration_s) + 450.0

    return GeofenceDataset(scenario=scenario, train=train_records, test=test,
                           meta={"seed": seed, "train_duration_s": train_duration_s,
                                 "train_speed": train_speed,
                                 "test_sessions": test_sessions})


def remove_macs(dataset: GeofenceDataset, fraction: float, seed: int = 0,
                which: str = "train") -> GeofenceDataset:
    """Randomly prune a fraction of MACs from train or test (Fig. 9/10).

    The MAC universe is taken from the whole dataset; the chosen MACs are
    removed from the requested split only, the other split is untouched.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if which not in ("train", "test"):
        raise ValueError(f"which must be 'train' or 'test', got {which!r}")
    rng = as_rng(seed)
    universe = sorted(unique_macs(dataset.train) | unique_macs(r.record for r in dataset.test))
    count = int(round(fraction * len(universe)))
    doomed = set(rng.choice(universe, size=count, replace=False)) if count else set()

    if which == "train":
        train = [record.without(doomed) for record in dataset.train]
        test = list(dataset.test)
    else:
        train = list(dataset.train)
        test = [LabeledRecord(item.record.without(doomed), item.inside, item.meta)
                for item in dataset.test]
    return GeofenceDataset(scenario=dataset.scenario, train=train, test=test,
                           meta={**dataset.meta, "removed_macs": len(doomed), "removed_from": which})
