"""Trajectory generators: where the device is at each scan instant.

The paper's protocol: for initial training the user "walks around the
inner perimeter of the house for 5–10 minutes"; for testing the user
moves freely inside or outside.  Scans fire at ~1 Hz, so a walking speed
of v m/s advances the position v metres between samples (Sec. VI).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rf.geometry import Point, Polygon, distance
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

__all__ = ["TimedPosition", "perimeter_walk", "random_waypoint_walk"]


@dataclass(frozen=True)
class TimedPosition:
    """Device pose at one scan instant."""

    position: Point
    floor: int
    time: float


def _walk_path(points: list[Point], speed: float, sample_period: float,
               floor: int, start_time: float) -> list[TimedPosition]:
    """Sample a piecewise-linear path at fixed time intervals."""
    out: list[TimedPosition] = []
    if not points:
        return out
    t = start_time
    out.append(TimedPosition(points[0], floor, t))
    step = speed * sample_period
    leftover = 0.0
    for a, b in zip(points[:-1], points[1:]):
        seg_len = distance(a, b)
        if seg_len == 0:
            continue
        travelled = step - leftover if leftover else step
        while travelled <= seg_len:
            frac = travelled / seg_len
            t += sample_period
            out.append(TimedPosition((a[0] + frac * (b[0] - a[0]),
                                      a[1] + frac * (b[1] - a[1])), floor, t))
            travelled += step
        leftover = travelled - seg_len
    return out


def perimeter_walk(region: Polygon, speed: float = 0.8, laps: int = 2,
                   inset: float = 0.5, sample_period: float = 1.0,
                   floor: int = 0, start_time: float = 0.0) -> list[TimedPosition]:
    """Walk the inner perimeter of ``region`` (the training protocol).

    ``laps`` full circuits at ``speed`` m/s, sampled every
    ``sample_period`` seconds, along the polygon shrunk inward by
    ``inset`` metres.
    """
    check_positive(speed, "speed")
    check_positive(laps, "laps")
    ring = region.shrunk(inset).vertices
    path = []
    for _ in range(laps):
        path.extend(ring)
    path.append(ring[0])
    return _walk_path(path, speed, sample_period, floor, start_time)


def random_waypoint_walk(region: Polygon, duration: float, speed: float = 0.8,
                         sample_period: float = 1.0, floor: int = 0,
                         start_time: float = 0.0, rng=None,
                         pause_probability: float = 0.2,
                         pause_duration: float = 5.0) -> list[TimedPosition]:
    """Random-waypoint mobility inside ``region`` for ``duration`` seconds.

    The device walks straight to a uniformly sampled target, occasionally
    pausing (a user sitting still), until the time budget is exhausted.
    """
    check_positive(duration, "duration")
    check_positive(speed, "speed")
    rng = as_rng(rng)
    out: list[TimedPosition] = []
    t = start_time
    current = region.sample_point(rng)
    end = start_time + duration
    out.append(TimedPosition(current, floor, t))
    while t < end:
        if rng.random() < pause_probability:
            pause_end = min(t + pause_duration, end)
            while t + sample_period <= pause_end:
                t += sample_period
                out.append(TimedPosition(current, floor, t))
        target = region.sample_point(rng)
        leg = _walk_path([current, target], speed, sample_period, floor, t)
        for pose in leg[1:]:
            if pose.time > end:
                break
            out.append(pose)
            t = pose.time
        current = out[-1].position
        if len(leg) <= 1:  # degenerate leg; force time forward
            t += sample_period
            out.append(TimedPosition(current, floor, t))
    return out

