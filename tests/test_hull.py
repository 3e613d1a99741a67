"""Tests for the strict convex hull and support-line contact queries."""

from __future__ import annotations

import math
import random

import pytest

from arcsupport.arcgen import random_convex_polygon
from arcsupport.errors import DegenerateHullError, InvalidArcError
from arcsupport.geom import Point, Tolerance, line_offset, unit_vector
from arcsupport.hull import convex_hull, support_contact


def interior_angle(hull, i):
    """Interior angle in degrees at hull vertex i, from the points."""
    k = len(hull)
    a, v, c = (hull.points[(i + d) % k] for d in (-1, 0, 1))
    ux, uy, wx, wy = v.x - a.x, v.y - a.y, c.x - v.x, c.y - v.y
    turn = math.degrees(math.atan2(ux * wy - uy * wx, ux * wx + uy * wy))
    return 180.0 - turn


class TestConvexHull:
    def test_pentagon_hull(self, pentagon_arc):
        hull = convex_hull(pentagon_arc.nodes)
        assert hull.points == (Point(0, 0), Point(2, -1), Point(4, 0),
                               Point(3, 1), Point(1, 1))
        assert hull.node_ids == (0, 2, 4, 3, 1)

    def test_interior_node_dropped(self, pentagon_interior_start):
        hull = convex_hull(pentagon_interior_start.nodes)
        assert 0 not in hull.node_ids
        assert hull.node_ids == (1, 3, 5, 4, 2)

    def test_starts_at_lex_smallest(self):
        pts = (Point(5, 5), Point(0, 3), Point(3, 0), Point(6, 1), Point(0, 6))
        hull = convex_hull(pts)
        assert hull.points[0] == min(pts)

    def test_counterclockwise_and_strictly_convex(self):
        rng = random.Random(3)
        for _ in range(25):
            pts = tuple(Point(rng.uniform(0, 10), rng.uniform(0, 10))
                        for _ in range(rng.randint(3, 40)))
            try:
                hull = convex_hull(pts)
            except DegenerateHullError:
                continue
            k = len(hull)
            for i in range(k):
                a, b, c = (hull.points[(i + d) % k] for d in range(3))
                cross = ((b.x - a.x) * (c.y - a.y)
                         - (b.y - a.y) * (c.x - a.x))
                assert cross > 0.0

    def test_collinear_edge_points_dropped(self):
        # Square corners plus midpoints of two edges.
        pts = (Point(0, 0), Point(0.5, 0), Point(1, 0), Point(1, 1),
               Point(0.5, 1), Point(0, 1))
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert set(hull.points) == {Point(0, 0), Point(1, 0),
                                    Point(1, 1), Point(0, 1)}

    def test_collinear_input_degenerate(self):
        with pytest.raises(DegenerateHullError):
            convex_hull((Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3)))

    def test_default_tolerance_rejects_overflowing_products(self,
                                                           pentagon_arc):
        # PolygonalArc.tolerance's float-range rule: at this scale the
        # cross products overflow, and the hull would lose node 3
        scaled = [Point(x * 1e157, y * 1e157) for x, y in pentagon_arc.nodes]
        with pytest.raises(InvalidArcError, match="float range"):
            convex_hull(scaled)

    def test_two_points_degenerate(self):
        with pytest.raises(DegenerateHullError):
            convex_hull((Point(0, 0), Point(1, 0)))

    def test_index_of_node(self, pentagon_arc):
        hull = convex_hull(pentagon_arc.nodes)
        assert hull.node_ids.index(4) == 2
        assert hull.points[hull.node_ids.index(3)] == pentagon_arc.nodes[3]


class TestInteriorAngle:
    def test_square_corners(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        for i in range(4):
            assert interior_angle(hull, i) == pytest.approx(90.0)

    def test_pentagon_head_angle(self, pentagon_arc):
        hull = convex_hull(pentagon_arc.nodes)
        # At (0, 0) between neighbors (1, 1) and (2, -1):
        expected = math.degrees(math.atan2(1, 1)) + math.degrees(math.atan2(1, 2))
        assert interior_angle(hull, 0) == pytest.approx(expected, abs=1e-9)

    def test_angles_sum(self):
        rng = random.Random(11)
        for _ in range(10):
            poly = random_convex_polygon(rng.randint(3, 12), rng.randint(0, 10**6))
            hull = convex_hull(poly)
            k = len(hull)
            total = sum(interior_angle(hull, i) for i in range(k))
            assert total == pytest.approx(180.0 * (k - 2), abs=1e-6)


class TestSupportContact:
    def test_square_bottom_edge(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        c = support_contact(hull, 0.0, "left")
        assert c.is_edge
        assert c.points == (Point(0, 0), Point(1, 0))
        assert c.line.px == 0.0 and c.line.py == 0.0 and c.line.dir_deg == 0.0

    def test_square_top_edge_other_side(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        c = support_contact(hull, 0.0, "right")
        assert c.is_edge
        assert c.points == (Point(0, 1), Point(1, 1))

    def test_square_oblique_single_vertex(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        c = support_contact(hull, 45.0, "right")
        assert not c.is_edge
        assert c.points == (Point(0, 1),)
        c2 = support_contact(hull, 45.0, "left")
        assert c2.points == (Point(1, 0),)

    def test_contact_ordered_along_direction(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        c = support_contact(hull, 90.0, "left")       # hull left of upward line
        assert c.points == (Point(1, 0), Point(1, 1))
        c2 = support_contact(hull, -90.0, "right")    # same geometric side
        assert c2.points == (Point(1, 1), Point(1, 0))

    def test_direction_within_eps_still_edge(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        c = support_contact(hull, 1e-8, "left")
        assert c.is_edge and len(c.points) == 2

    def test_reversed_direction_swaps_side(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        a = support_contact(hull, 0.0, "left")
        b = support_contact(hull, 180.0, "right")
        assert set(a.points) == set(b.points)

    def test_bad_side_rejected(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(0, 1)))
        with pytest.raises(ValueError):
            support_contact(hull, 0.0, "top")

    def test_hull_on_claimed_side_random(self):
        rng = random.Random(23)
        for trial in range(60):
            poly = random_convex_polygon(rng.randint(3, 15), trial)
            hull = convex_hull(poly)
            d = rng.uniform(-180.0, 180.0)
            side = "left" if trial % 2 == 0 else "right"
            c = support_contact(hull, d, side)
            sign = 1.0 if side == "left" else -1.0
            for p in hull.points:
                assert sign * line_offset(c.line, p) >= -hull.tol.eps_len
            # Every contact point lies on the line itself.
            for p in c.points:
                assert abs(line_offset(c.line, p)) <= hull.tol.eps_len

    def test_extreme_vertex_is_in_contact(self):
        rng = random.Random(29)
        for trial in range(30):
            poly = random_convex_polygon(rng.randint(3, 12), 1000 + trial)
            hull = convex_hull(poly)
            d = rng.uniform(-180.0, 180.0)
            u = unit_vector(d)
            vals = [p.x * (-u.y) + p.y * u.x for p in hull.points]
            lo_idx = min(range(len(vals)), key=vals.__getitem__)
            c = support_contact(hull, d, "left")
            assert lo_idx in c.hull_indices
