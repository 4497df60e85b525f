"""RF measurement substrate: floorplans, propagation, devices, trajectories.

This package substitutes for the paper's physical data collection
(Android phones carried through real homes): it synthesises ambient-AP
scan records through an indoor propagation model with walls, floors,
frozen spatial shadowing and temporal fading.
"""

from repro.rf.ap import AccessPoint, Radio, make_mac
from repro.rf.device import Device
from repro.rf.dynamics import (
    APChurn,
    ChurnShock,
    DeviceGainDrift,
    DynamicsTimeline,
    EpochWorld,
    MacRandomization,
    TransientHotspots,
    TxPowerDrift,
    build_schedule,
    home_ap_ids,
)
from repro.rf.environment import Environment
from repro.rf.geometry import Point, Polygon, Rect, Segment, distance, segments_intersect
from repro.rf.markov import OnOffMarkov, apply_ap_onoff, markov_entropy_rate
from repro.rf.materials import BRICK, CONCRETE, DRYWALL, FLOOR_SLAB, GLASS, Material, WOOD
from repro.rf.propagation import BandParams, PropagationConfig, PropagationModel, Wall
from repro.rf.scanner import Scanner
from repro.rf.scenarios import SiteScenario, home_scenario, lab_scenario, multi_floor_building
from repro.rf.trajectory import TimedPosition, perimeter_walk, random_waypoint_walk

__all__ = [
    "APChurn",
    "AccessPoint",
    "BandParams",
    "BRICK",
    "CONCRETE",
    "ChurnShock",
    "Device",
    "DeviceGainDrift",
    "DRYWALL",
    "DynamicsTimeline",
    "Environment",
    "EpochWorld",
    "MacRandomization",
    "TransientHotspots",
    "TxPowerDrift",
    "build_schedule",
    "FLOOR_SLAB",
    "GLASS",
    "Material",
    "OnOffMarkov",
    "Point",
    "Polygon",
    "PropagationConfig",
    "PropagationModel",
    "Radio",
    "Rect",
    "Scanner",
    "Segment",
    "SiteScenario",
    "TimedPosition",
    "WOOD",
    "Wall",
    "apply_ap_onoff",
    "distance",
    "home_ap_ids",
    "home_scenario",
    "lab_scenario",
    "make_mac",
    "markov_entropy_rate",
    "multi_floor_building",
    "perimeter_walk",
    "random_waypoint_walk",
    "segments_intersect",
]
