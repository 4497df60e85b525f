"""Geometry primitives: intersections, containment, polygon math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rf.geometry import Polygon, Rect, Segment, distance, segments_intersect


class TestSegments:
    def test_length_and_midpoint(self):
        seg = Segment((0, 0), (3, 4))
        assert seg.length == 5.0
        assert seg.midpoint() == (1.5, 2.0)

    def test_crossing_segments_intersect(self):
        assert segments_intersect(Segment((0, 0), (2, 2)), Segment((0, 2), (2, 0)))

    def test_parallel_segments_do_not(self):
        assert not segments_intersect(Segment((0, 0), (2, 0)), Segment((0, 1), (2, 1)))

    def test_touching_endpoints_intersect(self):
        assert segments_intersect(Segment((0, 0), (1, 1)), Segment((1, 1), (2, 0)))

    def test_collinear_overlapping(self):
        assert segments_intersect(Segment((0, 0), (2, 0)), Segment((1, 0), (3, 0)))

    def test_collinear_disjoint(self):
        assert not segments_intersect(Segment((0, 0), (1, 0)), Segment((2, 0), (3, 0)))

    def test_distance(self):
        assert distance((0, 0), (3, 4)) == 5.0


class TestPolygon:
    def test_area_unit_square(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert square.area == pytest.approx(1.0)
        assert square.perimeter == pytest.approx(4.0)

    def test_centroid(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert square.centroid() == pytest.approx((1.0, 1.0))

    def test_contains_interior_point(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert square.contains((1.0, 1.0))
        assert not square.contains((3.0, 1.0))

    def test_contains_boundary(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert square.contains((0.0, 1.0))

    def test_concave_polygon_containment(self):
        l_shape = Polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)])
        assert l_shape.contains((0.5, 2.0))
        assert not l_shape.contains((2.0, 2.0))

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_shrunk_reduces_area(self):
        square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        inner = square.shrunk(1.0)
        assert inner.area < square.area
        assert square.contains(inner.centroid())

    def test_shrunk_too_much_raises(self):
        tiny = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(ValueError):
            tiny.shrunk(5.0)

    def test_sample_point_inside(self):
        poly = Polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)])
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert poly.contains(poly.sample_point(rng))

    def test_bounding_box(self):
        poly = Polygon([(1, 2), (5, 2), (3, 7)])
        assert poly.bounding_box() == (1, 2, 5, 7)


class TestRect:
    def test_dimensions(self):
        rect = Rect(1, 2, 4, 8)
        assert rect.width == 3 and rect.height == 6
        assert rect.area == pytest.approx(18.0)

    def test_contains_fast_path(self):
        rect = Rect(0, 0, 2, 2)
        assert rect.contains((1, 1))
        assert rect.contains((0, 0))
        assert not rect.contains((2.1, 1))

    def test_shrunk_is_rect(self):
        inner = Rect(0, 0, 4, 4).shrunk(1.0)
        assert isinstance(inner, Rect)
        assert inner.width == 2.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 1)

    def test_shrunk_too_much(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 2, 2).shrunk(1.0)

    def test_sample_point_inside(self):
        rect = Rect(0, 0, 5, 3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert rect.contains(rect.sample_point(rng))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10), st.floats(0.1, 10))
def test_property_rect_area_consistent(w, h):
    rect = Rect(0, 0, w, h)
    assert rect.area == pytest.approx(w * h, rel=1e-9)
    assert rect.perimeter == pytest.approx(2 * (w + h), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_property_containment_matches_bounds(x, y):
    rect = Rect(-1, -1, 1, 1)
    assert rect.contains((x, y)) == (-1 - 1e-9 <= x <= 1 + 1e-9 and -1 - 1e-9 <= y <= 1 + 1e-9)
