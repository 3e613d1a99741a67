"""Unit tests for the planar primitives.

Expected values are computed inline with plain arithmetic and math-module
trig so they do not depend on the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from helpers import (BAND_EDGE_ANGLES, BAND_REFUSAL, TINY_ANGLES,
                     angle_dist_mod180, exact_orient, line_offset)

from arcsupport.geom import (
    DEFAULT_EPS_ANGLE,
    DIRECTION_AGREE_DEG,
    Line,
    Point,
    Tolerance,
    angle_problem,
    bbox,
    bbox_diagonal,
    direction_deg,
    dist,
    lines_equal,
    lines_intersection,
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


class TestAngleProblem:
    @pytest.mark.parametrize("phi", [0.0, -0.0, *BAND_EDGE_ANGLES, 30.0,
                                     math.nextafter(180.0, 0.0)])
    def test_prescribed_angles(self, phi):
        assert angle_problem(phi) is None

    @pytest.mark.parametrize("phi", [-1.0, -1e-320, 180.0, math.inf,
                                     math.nan])
    def test_out_of_range(self, phi):
        assert angle_problem(phi) == "must lie in [0, 180)"

    @pytest.mark.parametrize("phi", [5e-324, *TINY_ANGLES,
                                     math.nextafter(DEFAULT_EPS_ANGLE, 0.0)])
    def test_inside_the_band_of_zero(self, phi):
        assert angle_problem(phi) == BAND_REFUSAL


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
        assert exact_orient(a, b, Point(1, 1)) == 1
        assert exact_orient(a, b, Point(1, -1)) == -1
        assert exact_orient(a, b, Point(5, 0)) == 0

    def test_tolerance_snaps_near_collinear(self):
        tol = Tolerance(eps_len=1e-6)
        a, b = Point(0, 0), Point(1, 0)
        assert orient(a, b, Point(0.5, 1e-8), tol) == 0
        assert orient(a, b, Point(0.5, 1e-3), tol) == 1

    @given(finite, finite, finite, finite, finite, finite)
    @example(1.0, 1.0, 2.2250738585072014e-308, 0.0, 0.0, 0.0)
    @example(0.0, 6.36e-292, 1.0, 1.0, 0.0, 0.0)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
        assert exact_orient(a, b, c) == -exact_orient(a, c, b)
        assert exact_orient(a, b, c) == exact_orient(b, c, a)

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
            assert exact_orient(Point(*p), Point(*q), Point(*r)) == expected

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the tolerant "
                       "orient depends on the base point")
    def test_tolerant_sign_is_rotation_invariant(self):
        # the rotations give 0, -1 and 0; the exact sign is -1
        tol = Tolerance(1e-3)
        a = Point(0.879978251626048, 0.9869136550287957)
        b = Point(0.4343523126756511, 0.9501611663830228)
        c = Point(0.08470252772176531, 0.9225275191004757)
        assert (orient(a, b, c, tol) == orient(b, c, a, tol)
                == orient(c, a, b, tol))

    def test_nan_cross_product_is_collinear(self):
        # a hand-built Tolerance skips PolygonalArc.tolerance's float-range
        # checks: the cross product overflows to inf - inf = nan, and every
        # comparison with nan is false, so the last return answers
        tol = Tolerance(1.0)
        a, b, c = Point(0, 0), Point(1e200, 1e200), Point(2e200, 1e200)
        assert math.isnan((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))
        assert orient(a, b, c, tol) == 0

    @pytest.mark.parametrize("bad, error", [
        (math.nan, ValueError), (math.inf, OverflowError),
        (-math.inf, OverflowError)])
    def test_untolerated_rejects_non_finite(self, bad, error):
        with pytest.raises(error):
            exact_orient(Point(0.0, 0.0), Point(1.0, bad), Point(2.0, 0.0))


class TestSegmentsIntersect:
    def test_proper_crossing(self):
        s1 = (Point(0, 0), Point(2, 2))
        s2 = (Point(0, 2), Point(2, 0))
        assert segments_intersect(s1, s2, Tolerance(1e-12))

    def test_shared_endpoint_touches(self):
        s1 = (Point(0, 0), Point(1, 1))
        s2 = (Point(1, 1), Point(2, 0))
        assert segments_intersect(s1, s2, Tolerance(1e-12))

    def test_t_touch(self):
        s1 = (Point(0, 0), Point(2, 0))
        s2 = (Point(1, 0), Point(1, 5))
        assert segments_intersect(s1, s2, Tolerance(1e-12))

    def test_disjoint(self):
        s1 = (Point(0, 0), Point(1, 0))
        s2 = (Point(0, 1), Point(1, 1))
        assert not segments_intersect(s1, s2, Tolerance(1e-12))

    def test_collinear_overlap(self):
        s1 = (Point(0, 0), Point(2, 0))
        s2 = (Point(1, 0), Point(3, 0))
        assert segments_intersect(s1, s2, Tolerance(1e-12))

    def test_collinear_disjoint(self):
        s1 = (Point(0, 0), Point(1, 0))
        s2 = (Point(2, 0), Point(3, 0))
        assert not segments_intersect(s1, s2, Tolerance(1e-12))


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
        assert lines_intersection(Line(0, 0, 10.0), Line(5, 5, 190.0)) is None
        assert lines_intersection(Line(0, 0, 10.0),
                                  Line(0, 0, 11.0)) is not None

    def test_lines_equal_ignores_anchor_and_flip(self):
        a = Line(0, 0, 45.0)
        b = Line(2, 2, 225.0)
        c = Line(0, 1, 45.0)
        assert lines_equal(a, b, 1e-9, 1e-7)
        assert not lines_equal(a, c, 1e-9, 1e-7)

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


@st.composite
def near_line_pairs(draw):
    """Two lines whose directions sit at, or within 1e-7 or 1e-6 degrees
    of, parallel or antiparallel (or anywhere), the second anchored at an
    offset of 1e-12 to 1e6 from the first, shifted along it."""
    a = draw(st.one_of(st.sampled_from([180.0, -180.0, 0.0, 90.0]), angles))
    turn = draw(st.sampled_from([0.0, 180.0, -180.0, 360.0]))
    near = draw(st.one_of(
        st.sampled_from([0.0, 1e-7, -1e-7, 1e-6, -1e-6]),
        st.floats(min_value=-2e-6, max_value=2e-6), angles))
    px, py, along = draw(finite), draw(finite), draw(finite)
    offset = draw(st.sampled_from([1.0, -1.0])) * draw(
        st.floats(min_value=1e-12, max_value=1e6))
    c, s = math.cos(math.radians(a)), math.sin(math.radians(a))
    return Line(px, py, a), Line(px + along * c - offset * s,
                                 py + along * s + offset * c, a + turn + near)


def _bits(p):
    return None if p is None else (p.x.hex(), p.y.hex())


class TestWrittenOutPredicates:
    """``lines_equal`` and ``lines_intersection`` inline the test helpers
    ``angle_dist_mod180`` and ``line_offset``; they must agree with them
    bit for bit."""

    @given(near_line_pairs(), st.floats(min_value=1e-12, max_value=1e6),
           st.sampled_from([DEFAULT_EPS_ANGLE, DIRECTION_AGREE_DEG]))
    @example((Line(0.0, 0.0, 180.0), Line(0.0, 1e-12, -180.0)), 1e-12, 1e-7)
    @example((Line(3.0, 4.0, 180.0), Line(-2.0, 4.0, 1e-7)), 1.0, 1e-7)
    def test_lines_equal(self, pair, eps_len, eps_angle):
        for l1, l2 in (pair, pair[::-1]):
            gap = angle_dist_mod180(l1.dir_deg, l2.dir_deg)
            off = abs(line_offset(l1, Point(l2.px, l2.py)))
            # the bands themselves, where <= and < would differ
            for eps_l, eps_a in ((eps_len, eps_angle), (off, gap)):
                assert lines_equal(l1, l2, eps_l, eps_a) is (
                    gap <= eps_a and off <= eps_l)

    @given(near_line_pairs())
    @example((Line(0.0, 0.0, 180.0), Line(1.0, 1.0, -180.0)))
    @example((Line(0.0, 0.0, 10.0), Line(0.0, 1.0, 190.0 + 1e-7)))
    def test_lines_intersection(self, pair):
        for l1, l2 in (pair, pair[::-1]):
            want = None
            if angle_dist_mod180(l1.dir_deg, l2.dir_deg) > DEFAULT_EPS_ANGLE:
                u1x, u1y = unit_vector(l1.dir_deg)
                u2x, u2y = unit_vector(l2.dir_deg)
                denom = u1x * u2y - u1y * u2x
                wx, wy = l2.px - l1.px, l2.py - l1.py
                t = (wx * u2y - wy * u2x) / denom
                want = Point(l1.px + t * u1x, l1.py + t * u1y)
            assert _bits(lines_intersection(l1, l2)) == _bits(want)


class TestBoxesAndTolerance:
    def test_bbox(self):
        pts = (Point(1, 5), Point(-2, 3), Point(4, -1))
        assert bbox(pts) == (-2, -1, 4, 5)
        assert bbox_diagonal(pts) == pytest.approx(math.hypot(6, 6))

    def test_bbox_empty_rejected(self):
        with pytest.raises(ValueError):
            bbox(())
