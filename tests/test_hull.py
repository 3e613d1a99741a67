"""Tests for the strict convex hull and support-line contact queries."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcsupport.arcgen import random_convex_polygon
from arcsupport.arcio import PolygonalArc, validate_simple
from arcsupport.errors import DegenerateHullError, InvalidArcError
from arcsupport.geom import (Line, Point, Tolerance, angle_dist_mod180,
                             bbox_diagonal, direction_deg, line_offset,
                             unit_vector)
from arcsupport.hull import SupportContact, convex_hull, support_contact
from arcsupport.solver import analyze_arc

# Nodes of an open arc whose monotone chain keeps (~0, 3) between (~0, 1)
# and (~0, 4), inside their collinearity band.
BAND_VERTEX_ARC = ((1.1409202948491878e-11, 4.00000000000434),
                   (1.0000000000412659, 5.0000000000333635),
                   (-2.584917400927296e-11, 2.9999999999553295),
                   (5.723925676186563e-11, 0.9999999999211368))


def _scan_contact(hull, dir_deg, side):
    """Reference support contact: a linear scan over every hull vertex,
    with both neighbour edge directions recomputed from the points."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    u = unit_vector(dir_deg)
    k = len(hull)
    vals = [p.x * (-u.y) + p.y * u.x for p in hull.points]
    extreme = vals.index(min(vals) if side == "left" else max(vals))
    ids = {extreme}
    for j in ((extreme - 1) % k, (extreme + 1) % k):
        edge_dir = direction_deg(hull.points[extreme], hull.points[j])
        if angle_dist_mod180(edge_dir, dir_deg) <= hull.tol.eps_angle:
            ids.add(j)
    ordered = sorted(ids, key=lambda i: (hull.points[i].x * u.x
                                         + hull.points[i].y * u.y, i))
    pts = tuple(hull.points[i] for i in ordered)
    anchor = pts[0]
    return SupportContact(line=Line(anchor.x, anchor.y, dir_deg),
                          hull_indices=tuple(ordered),
                          node_ids=tuple(hull.node_ids[i] for i in ordered),
                          points=pts,
                          is_edge=len(ordered) > 1)


def _exact_extremes(hull, dir_deg, side):
    """Hull indices whose leftward offset along unit_vector(dir_deg) is
    extreme in exact arithmetic."""
    ux, uy = map(Fraction, unit_vector(dir_deg))
    vals = [Fraction(p.y) * ux - Fraction(p.x) * uy for p in hull.points]
    best = min(vals) if side == "left" else max(vals)
    return {i for i, v in enumerate(vals) if v == best}


def _edge_queries(hull):
    """Every edge direction, nudged across the eps_angle band, and its
    reverse."""
    for e in hull.edge_dirs:
        for delta in (0.0, -0.0, 5e-8, -5e-8, 2e-7, -2e-7, 180.0):
            yield e + delta


@st.composite
def jittered_grid_nodes(draw):
    """4-9 nodes on a G x G grid (G in 3..6), each coordinate moved by up
    to J = 10**U(-11, -8)."""
    g = draw(st.integers(3, 6))
    jitter = 10.0 ** draw(st.floats(-11.0, -8.0))
    count = draw(st.integers(4, 9))
    cell = st.integers(0, g - 1)
    shift = st.floats(-jitter, jitter)
    return [(draw(cell) + draw(shift), draw(cell) + draw(shift))
            for _ in range(count)]


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

    def test_band_vertex_dropped(self):
        # Without the strictness pass this arc exits 4 with "crossing link
        # does not join strictly opposite sides".
        hull = convex_hull(BAND_VERTEX_ARC)
        assert 2 not in hull.node_ids
        assert hull.points[0] == min(hull.points)
        analyze_arc(PolygonalArc(BAND_VERTEX_ARC))

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


class TestEdgeDirectionTable:
    def test_edge_dir_equals_direction_deg(self, pentagon_arc):
        hull = convex_hull(pentagon_arc.nodes)
        k = len(hull)
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert hull.edge_dir(i, j) == direction_deg(
                        hull.points[i], hull.points[j])

    def test_unwrapped_strictly_increasing_below_full_turn(self):
        rng = random.Random(31)
        for trial in range(40):
            hull = convex_hull(random_convex_polygon(rng.randint(3, 20),
                                                     trial))
            table = hull.unwrapped
            assert all(a < b for a, b in zip(table, table[1:]))
            assert table[-1] - table[0] < 360.0

    def test_matches_scan_at_edge_directions(self):
        rng = random.Random(37)
        for trial in range(40):
            hull = convex_hull(random_convex_polygon(rng.randint(3, 15),
                                                     5000 + trial))
            for d in _edge_queries(hull):
                for side in ("left", "right"):
                    assert (support_contact(hull, d, side)
                            == _scan_contact(hull, d, side))

    def test_matches_scan_at_random_directions(self):
        rng = random.Random(41)
        for trial in range(40):
            hull = convex_hull(random_convex_polygon(rng.randint(3, 15),
                                                     7000 + trial))
            for _ in range(20):
                d = rng.uniform(-540.0, 540.0)
                for side in ("left", "right"):
                    assert (support_contact(hull, d, side)
                            == _scan_contact(hull, d, side))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_rejected(self, bad):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1)))
        for side in ("left", "right"):
            with pytest.raises(ValueError):
                support_contact(hull, bad, side)

    @settings(max_examples=300, deadline=None)
    @given(jittered_grid_nodes())
    @example([(0.0, 1.0000000031814469), (1e-09, 1.0), (0.0, 1.0),
              (0.0, 1.0000000004112657)])
    @example([(1.0, 0.0), (1.0, 1.1389494824505203e-09),
              (0.9999999982930137, 0.0), (0.0, 0.0)])
    def test_jittered_grid_holds_an_exact_extreme(self, nodes):
        # Near-parallel edges make the table and the scan pick different
        # vertices of a tie; the table must still touch an exact extreme
        # vertex.  Their lines coincide within eps_len plus two known
        # errors: an edge contact is anchored at its first vertex along
        # the line, which sits up to diagonal * sin(eps_angle) off the
        # exact support line when the edge is parallel only within
        # eps_angle, and the scan's float offsets carry a few ulps of the
        # coordinates, more than eps_len when all nodes share a grid cell.
        try:
            arc = PolygonalArc(nodes)
            if not validate_simple(arc, arc.tolerance()).ok:
                return
            hull = convex_hull(arc.nodes)
        except (InvalidArcError, DegenerateHullError):
            return
        table = hull.unwrapped
        assert all(a < b for a, b in zip(table, table[1:]))
        assert table[-1] - table[0] < 360.0
        slack = (hull.tol.eps_len
                 + bbox_diagonal(nodes) * math.sin(
                     math.radians(hull.tol.eps_angle))
                 + 4 * math.ulp(max(map(abs, sum(nodes, ())))))
        queries = list(_edge_queries(hull)) + [float(d)
                                              for d in range(-180, 180, 15)]
        for d in queries:
            for side in ("left", "right"):
                got = support_contact(hull, d, side)
                ref = _scan_contact(hull, d, side)
                assert set(got.hull_indices) & _exact_extremes(hull, d, side)
                anchor = Point(got.line.px, got.line.py)
                assert abs(line_offset(ref.line, anchor)) <= slack
