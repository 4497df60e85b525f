"""Environment: floorplan walls + ambient APs + a geofence region."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rf.ap import AccessPoint
from repro.rf.geometry import Point, Polygon
from repro.rf.propagation import PropagationConfig, PropagationModel, Wall

__all__ = ["Environment"]


@dataclass
class Environment:
    """Everything static about a deployment site.

    The geofence is a polygon on one or more floors (a two-storey house
    geofences both its floors; a mall experiment geofences one floor of
    the whole footprint).
    """

    walls: list[Wall]
    aps: list[AccessPoint]
    geofence: Polygon
    geofence_floors: tuple[int, ...] = (0,)
    propagation_config: PropagationConfig = field(default_factory=PropagationConfig)

    def __post_init__(self):
        if not self.aps:
            raise ValueError("an environment needs at least one access point")
        self.propagation = PropagationModel(self.walls, self.propagation_config)

    def is_inside(self, position: Point, floor: int = 0) -> bool:
        """Ground-truth geofence membership of a pose."""
        return floor in self.geofence_floors and self.geofence.contains(position)

    @property
    def all_macs(self) -> list[str]:
        return [mac for ap in self.aps for mac in ap.macs]
