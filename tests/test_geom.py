"""Unit tests for the planar primitives.

Expected values are computed inline with plain arithmetic and math-module
trig so they do not depend on the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from arcsupport.geom import (
    DEFAULT_EPS_ANGLE,
    Line,
    Point,
    Tolerance,
    angle_dist_mod180,
    bbox,
    bbox_diagonal,
    direction_deg,
    dist,
    line_offset,
    lines_equal,
    lines_intersection,
    lines_parallel,
    normalize_angle,
    orient,
    segments_intersect,
    unit_vector,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
angles = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
                   allow_infinity=False)


class TestNormalizeAngle:
    @pytest.mark.parametrize("raw, expected", [
        (0.0, 0.0),
        (180.0, 180.0),
        (-180.0, 180.0),
        (190.0, -170.0),
        (361.0, 1.0),
        (-1.0, -1.0),
        (540.0, 180.0),
        (-540.0, 180.0),
        (359.0, -1.0),
    ])
    def test_known_values(self, raw, expected):
        assert normalize_angle(raw) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                normalize_angle(bad)

    @given(angles)
    def test_range_and_idempotence(self, a):
        n = normalize_angle(a)
        assert -180.0 < n <= 180.0
        assert normalize_angle(n) == pytest.approx(n, abs=1e-9)

    @given(angles)
    def test_congruent_mod_360(self, a):
        n = normalize_angle(a)
        assert math.remainder(a - n, 360.0) == pytest.approx(0.0, abs=1e-6)


class TestAngleComparisons:
    @pytest.mark.parametrize("a, b, expected", [
        (10.0, 190.0, 0.0),
        (10.0, 100.0, 90.0),
        (-80.0, 100.0, 0.0),
        (359.0, 1.0, 2.0),
        (0.0, 90.0, 90.0),
        (45.0, 45.0, 0.0),
    ])
    def test_dist_mod180(self, a, b, expected):
        assert angle_dist_mod180(a, b) == pytest.approx(expected, abs=1e-9)

    @given(angles, angles)
    def test_dist_mod180_range_and_symmetry(self, a, b):
        d = angle_dist_mod180(a, b)
        assert 0.0 <= d <= 90.0 + 1e-9
        assert d == pytest.approx(angle_dist_mod180(b, a), abs=1e-9)


class TestDirections:
    def test_direction_deg_quadrants(self):
        o = Point(0.0, 0.0)
        assert direction_deg(o, Point(1, 1)) == pytest.approx(45.0)
        assert direction_deg(o, Point(-1, 0)) == pytest.approx(180.0)
        assert direction_deg(o, Point(0, -2)) == pytest.approx(-90.0)
        assert direction_deg(Point(2, 3), Point(5, 3)) == pytest.approx(0.0)

    def test_direction_deg_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            direction_deg(Point(1, 2), Point(1, 2))

    def test_unit_vector(self):
        u = unit_vector(90.0)
        assert u.x == pytest.approx(0.0, abs=1e-15)
        assert u.y == pytest.approx(1.0)

    @given(angles)
    def test_unit_vector_has_unit_norm(self, a):
        u = unit_vector(a)
        assert math.hypot(u.x, u.y) == pytest.approx(1.0, abs=1e-12)

    @given(finite, finite, finite, finite)
    def test_direction_antisymmetry(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        if dist(a, b) < 1e-6:
            return
        d_ab = direction_deg(a, b)
        d_ba = direction_deg(b, a)
        assert angle_dist_mod180(d_ab, d_ba) == pytest.approx(0.0, abs=1e-6)
        assert abs(normalize_angle(d_ab - d_ba - 180.0)) <= 1e-6


class TestOrient:
    def test_signs(self):
        a, b = Point(0, 0), Point(2, 0)
        assert orient(a, b, Point(1, 1)) == 1
        assert orient(a, b, Point(1, -1)) == -1
        assert orient(a, b, Point(5, 0)) == 0

    def test_tolerance_snaps_near_collinear(self):
        tol = Tolerance(eps_len=1e-6, eps_angle=DEFAULT_EPS_ANGLE)
        a, b = Point(0, 0), Point(1, 0)
        assert orient(a, b, Point(0.5, 1e-8), tol) == 0
        assert orient(a, b, Point(0.5, 1e-3), tol) == 1

    @given(finite, finite, finite, finite, finite, finite)
    @example(1.0, 1.0, 2.2250738585072014e-308, 0.0, 0.0, 0.0)
    @example(0.0, 6.36e-292, 1.0, 1.0, 0.0, 0.0)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
        assert orient(a, b, c) == -orient(a, c, b)
        assert orient(a, b, c) == orient(b, c, a)

    @pytest.mark.parametrize("a, b, c", [
        # float cross products from a round these to the wrong sign
        ((1.0, 1.0), (2.2250738585072014e-308, 0.0), (0.0, 0.0)),
        ((0.0, 6.36e-292), (1.0, 1.0), (0.0, 0.0)),
        # exactly collinear, at large and tiny scales
        ((1e300, 1e300), (2e300, 2e300), (-3e300, -3e300)),
        ((1e6, -1e6), (0.5, -0.5), (-1e6, 1e6)),
        ((5e-324, 0.0), (1e-310, 0.0), (-1e-300, 0.0)),
        ((1e-300, 3e-300), (2e-300, 6e-300), (0.0, 0.0)),
        # nearly collinear: the determinant is one part in 2**52
        ((0.0, 0.0), (1.0, 1.0), (3.0, 3.0 + 2.0 ** -51)),
    ])
    def test_untolerated_sign_is_exact(self, a, b, c):
        (ax, ay), (bx, by), (cx, cy) = (map(Fraction, p) for p in (a, b, c))
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        expected = (det > 0) - (det < 0)
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            assert orient(Point(*p), Point(*q), Point(*r)) == expected

    @pytest.mark.parametrize("bad, error", [
        (math.nan, ValueError), (math.inf, OverflowError),
        (-math.inf, OverflowError)])
    def test_untolerated_rejects_non_finite(self, bad, error):
        with pytest.raises(error):
            orient(Point(0.0, 0.0), Point(1.0, bad), Point(2.0, 0.0))


class TestSegmentsIntersect:
    def test_proper_crossing(self):
        s1 = (Point(0, 0), Point(2, 2))
        s2 = (Point(0, 2), Point(2, 0))
        assert segments_intersect(s1, s2)

    def test_shared_endpoint_touches(self):
        s1 = (Point(0, 0), Point(1, 1))
        s2 = (Point(1, 1), Point(2, 0))
        assert segments_intersect(s1, s2)

    def test_t_touch(self):
        s1 = (Point(0, 0), Point(2, 0))
        s2 = (Point(1, 0), Point(1, 5))
        assert segments_intersect(s1, s2)

    def test_disjoint(self):
        s1 = (Point(0, 0), Point(1, 0))
        s2 = (Point(0, 1), Point(1, 1))
        assert not segments_intersect(s1, s2)

    def test_collinear_overlap(self):
        s1 = (Point(0, 0), Point(2, 0))
        s2 = (Point(1, 0), Point(3, 0))
        assert segments_intersect(s1, s2)

    def test_collinear_disjoint(self):
        s1 = (Point(0, 0), Point(1, 0))
        s2 = (Point(2, 0), Point(3, 0))
        assert not segments_intersect(s1, s2)


class TestLines:
    def test_line_offset_left_positive(self):
        line = Line(0, 0, 0.0)
        assert line_offset(line, Point(5, 1)) == pytest.approx(1.0)
        assert line_offset(line, Point(-3, -2)) == pytest.approx(-2.0)

    def test_line_offset_rotated(self):
        # Line through origin pointing up: left side is x < 0.
        line = Line(0, 0, 90.0)
        assert line_offset(line, Point(-2, 7)) == pytest.approx(2.0)
        assert line_offset(line, Point(3, -1)) == pytest.approx(-3.0)

    def test_lines_parallel(self):
        assert lines_parallel(Line(0, 0, 10.0), Line(5, 5, 190.0))
        assert not lines_parallel(Line(0, 0, 10.0),
                                  Line(0, 0, 11.0))

    def test_lines_equal_ignores_anchor_and_flip(self):
        tol = Tolerance(eps_len=1e-9, eps_angle=1e-7)
        a = Line(0, 0, 45.0)
        b = Line(2, 2, 225.0)
        c = Line(0, 1, 45.0)
        assert lines_equal(a, b, tol)
        assert not lines_equal(a, c, tol)

    def test_lines_intersection(self):
        a = Line(0, 0, 0.0)
        b = Line(3, -5, 90.0)
        p = lines_intersection(a, b)
        assert p is not None
        assert p.x == pytest.approx(3.0, abs=1e-12)
        assert p.y == pytest.approx(0.0, abs=1e-12)

    def test_lines_intersection_oblique(self):
        # y = x and y = -x + 4 meet at (2, 2).
        a = Line(0, 0, 45.0)
        b = Line(4, 0, 135.0)
        p = lines_intersection(a, b)
        assert p is not None
        assert p.x == pytest.approx(2.0, abs=1e-9)
        assert p.y == pytest.approx(2.0, abs=1e-9)

    def test_parallel_lines_do_not_intersect(self):
        a = Line(0, 0, 30.0)
        b = Line(0, 1, 210.0)
        assert lines_intersection(a, b) is None


class TestBoxesAndTolerance:
    def test_bbox(self):
        pts = (Point(1, 5), Point(-2, 3), Point(4, -1))
        assert bbox(pts) == (-2, -1, 4, 5)
        assert bbox_diagonal(pts) == pytest.approx(math.hypot(6, 6))

    def test_bbox_empty_rejected(self):
        with pytest.raises(ValueError):
            bbox(())
