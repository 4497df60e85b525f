"""2-D geometry primitives for floorplans and radio paths.

Everything works on plain ``(x, y)`` tuples in metres.  The two
operations propagation needs are *point-in-polygon* (is the device
inside the geofence?) and *segment–segment intersection counting* (how
many walls does the AP→device ray cross?).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Point", "Segment", "Polygon", "Rect", "segments_intersect", "distance"]

Point = tuple  # (x, y)

_EPS = 1e-9


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass(frozen=True)
class Segment:
    """A line segment between two points."""

    a: Point
    b: Point

    @property
    def length(self) -> float:
        return distance(self.a, self.b)

    def midpoint(self) -> Point:
        return ((self.a[0] + self.b[0]) / 2.0, (self.a[1] + self.b[1]) / 2.0)



def _orient(p: Point, q: Point, r: Point) -> float:
    """Signed area orientation of the triple (p, q, r)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """Is r on segment pq (assuming collinearity)?"""
    return (min(p[0], q[0]) - _EPS <= r[0] <= max(p[0], q[0]) + _EPS
            and min(p[1], q[1]) - _EPS <= r[1] <= max(p[1], q[1]) + _EPS)


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Whether two closed segments share at least one point."""
    d1 = _orient(s2.a, s2.b, s1.a)
    d2 = _orient(s2.a, s2.b, s1.b)
    d3 = _orient(s1.a, s1.b, s2.a)
    d4 = _orient(s1.a, s1.b, s2.b)
    if ((d1 > _EPS and d2 < -_EPS) or (d1 < -_EPS and d2 > _EPS)) and \
       ((d3 > _EPS and d4 < -_EPS) or (d3 < -_EPS and d4 > _EPS)):
        return True
    if abs(d1) <= _EPS and _on_segment(s2.a, s2.b, s1.a):
        return True
    if abs(d2) <= _EPS and _on_segment(s2.a, s2.b, s1.b):
        return True
    if abs(d3) <= _EPS and _on_segment(s1.a, s1.b, s2.a):
        return True
    if abs(d4) <= _EPS and _on_segment(s1.a, s1.b, s2.b):
        return True
    return False


class Polygon:
    """Simple (non-self-intersecting) polygon given as a vertex ring."""

    def __init__(self, vertices: Sequence[Point]):
        vertices = [tuple(map(float, v)) for v in vertices]
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")
        self.vertices: list[Point] = vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[Segment]:
        n = len(self.vertices)
        return [Segment(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    @property
    def area(self) -> float:
        """Absolute area via the shoelace formula."""
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            total += x1 * y2 - x2 * y1
        return abs(total) / 2.0

    @property
    def perimeter(self) -> float:
        return sum(edge.length for edge in self.edges())

    def centroid(self) -> Point:
        """Area centroid (falls back to vertex mean for degenerate area)."""
        total = 0.0
        cx = cy = 0.0
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            cross = x1 * y2 - x2 * y1
            total += cross
            cx += (x1 + x2) * cross
            cy += (y1 + y2) * cross
        if abs(total) < _EPS:
            xs = [v[0] for v in self.vertices]
            ys = [v[1] for v in self.vertices]
            return (sum(xs) / len(xs), sum(ys) / len(ys))
        return (cx / (3.0 * total), cy / (3.0 * total))

    def contains(self, point: Point) -> bool:
        """Ray-casting point-in-polygon test (boundary counts as inside)."""
        x, y = point
        inside = False
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            # Boundary check against this edge.
            if abs(_orient((x1, y1), (x2, y2), (x, y))) <= 1e-7 and \
               _on_segment((x1, y1), (x2, y2), (x, y)):
                return True
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_cross:
                    inside = not inside
        return inside

    def shrunk(self, inset: float) -> "Polygon":
        """Approximate inward offset: scale vertices toward the centroid.

        Exact for regular shapes; adequate for walk-path generation on
        the convex-ish rooms the scenarios use.
        """
        if inset <= 0:
            return Polygon(self.vertices)
        cx, cy = self.centroid()
        # Scale so the mean vertex distance shrinks by `inset`.
        mean_radius = sum(distance((cx, cy), v) for v in self.vertices) / len(self.vertices)
        if mean_radius <= inset:
            raise ValueError(f"inset {inset} exceeds polygon radius {mean_radius:.2f}")
        factor = (mean_radius - inset) / mean_radius
        return Polygon([(cx + (x - cx) * factor, cy + (y - cy) * factor)
                        for x, y in self.vertices])

    def bounding_box(self) -> tuple[float, float, float, float]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def sample_point(self, rng) -> Point:
        """Rejection-sample a uniform interior point."""
        x0, y0, x1, y1 = self.bounding_box()
        for _ in range(10_000):
            p = (rng.uniform(x0, x1), rng.uniform(y0, y1))
            if self.contains(p):
                return p
        raise RuntimeError("failed to sample a point inside the polygon")


class Rect(Polygon):
    """Axis-aligned rectangle, the workhorse of the scenario floorplans."""

    def __init__(self, x0: float, y0: float, x1: float, y1: float):
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"degenerate rectangle ({x0},{y0})..({x1},{y1})")
        self.x0, self.y0, self.x1, self.y1 = float(x0), float(y0), float(x1), float(y1)
        super().__init__([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def contains(self, point: Point) -> bool:
        x, y = point
        return self.x0 - _EPS <= x <= self.x1 + _EPS and self.y0 - _EPS <= y <= self.y1 + _EPS

    def shrunk(self, inset: float) -> "Rect":
        if 2 * inset >= min(self.width, self.height):
            raise ValueError(f"inset {inset} too large for rectangle {self.width}x{self.height}")
        return Rect(self.x0 + inset, self.y0 + inset, self.x1 - inset, self.y1 - inset)

    def sample_point(self, rng) -> Point:
        return (rng.uniform(self.x0, self.x1), rng.uniform(self.y0, self.y1))
