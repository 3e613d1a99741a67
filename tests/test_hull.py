"""Tests for the strict convex hull and support-line contact queries."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from helpers import (angle_dist_mod180, bbox_diagonal, interior_angle,
                     jittered_grid_nodes, line_offset, random_convex_polygon)

from arcsupport.arcio import PolygonalArc, validate_simple
from arcsupport.errors import DegenerateHullError, InvalidArcError
from arcsupport.geom import (DEFAULT_EPS_ANGLE, Line, Point, direction_deg,
                             orient, unit_vector)
from arcsupport.hull import (SupportContact, convex_hull, support_contact,
                             support_vertices)
from arcsupport.oracle import compare_with_solver
from arcsupport.solver import analyze_arc

# Nodes of an open arc whose monotone chain keeps (~0, 3) between (~0, 1)
# and (~0, 4), inside their collinearity band.
BAND_VERTEX_ARC = ((1.1409202948491878e-11, 4.00000000000434),
                   (1.0000000000412659, 5.0000000000333635),
                   (-2.584917400927296e-11, 2.9999999999553295),
                   (5.723925676186563e-11, 0.9999999999211368))

# Nodes of an open arc whose x order on the near-vertical run at x ~ 2 is
# arbitrary: a chain that pops inside the band popped node 0, the far
# corner (3, 3), and returned a hull that node 0 lies 1.0 outside of.
FAR_CORNER_ARC = ((3.0000000013338823, 2.999999999761901),
                  (1.9999999983508574, 1.9999999984590333),
                  (-2.892423790930259e-09, 1.0000000024817595),
                  (2.000000003135437, 1.00000000368836),
                  (3.000000001834676, 1.065052398792385e-09),
                  (2.999999997891401, 2.0000000040817434))


def _flat_top_arc(n):
    """Open arc of n nodes along a flat top that bulges by 1e-12, inside
    the collinearity band, and n nodes back along a lower half circle."""
    xs = [-1.0 + 2.0 * i / (n - 1) for i in range(n)]
    angles = [-math.pi * k / (n + 1) for k in range(1, n + 1)]
    return ([(x, 1e-12 * (1.0 - x * x)) for x in xs]
            + [(math.cos(t), math.sin(t)) for t in angles])


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
    anchor = hull.points[ordered[0]]
    return SupportContact(line=Line(anchor.x, anchor.y, dir_deg),
                          node_ids=tuple(hull.node_ids[i] for i in ordered))


def _point_chain_hull(points, tol):
    """Reference hull: the monotone chain over (Point, i) pairs that
    convex_hull ran before it chained flat (x, y, i) tuples, with the same
    strictness pass.  Returns (points, node_ids)."""
    tagged = sorted((Point(float(p[0]), float(p[1])), i)
                    for i, p in enumerate(points))

    def build(seq):
        chain = []
        for item in seq:
            (cx, cy), _ = item
            while len(chain) >= 2:
                (ax, ay), _ = chain[-2]
                (bx, by), _ = chain[-1]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0:
                    break
                chain.pop()
            chain.append(item)
        return chain

    ring = build(tagged)[:-1] + build(tagged[::-1])[:-1]
    i = 0
    while i < len(ring) and len(ring) >= 3:
        if orient(ring[i - 1][0], ring[i][0], ring[(i + 1) % len(ring)][0],
                  tol) > 0:
            i += 1
        else:
            del ring[i]
            i = 0 if i == len(ring) else max(i - 1, 0)
    if len(ring) < 3:
        raise DegenerateHullError("all nodes are collinear")
    start = ring.index(min(ring))
    ring = ring[start:] + ring[:start]
    return tuple(p for p, _ in ring), tuple(i for _, i in ring)


def _assert_same_as_point_chain(nodes):
    """convex_hull and _point_chain_hull agree on the vertices, the signs
    of their zeros, the node ids and a DegenerateHullError."""
    tol = PolygonalArc(nodes).tolerance()
    try:
        ref_points, ref_ids = _point_chain_hull(nodes, tol)
    except DegenerateHullError:
        with pytest.raises(DegenerateHullError):
            convex_hull(nodes, tol)
        return
    hull = convex_hull(nodes, tol)
    assert hull.node_ids == ref_ids
    assert hull.points == ref_points
    assert repr(hull.points) == repr(ref_points)


def _exact_extremes(hull, dir_deg, side):
    """Arc nodes of the hull vertices whose leftward offset along
    unit_vector(dir_deg) is extreme in exact arithmetic."""
    ux, uy = map(Fraction, unit_vector(dir_deg))
    vals = [Fraction(p.y) * ux - Fraction(p.x) * uy for p in hull.points]
    best = min(vals) if side == "left" else max(vals)
    return {hull.node_ids[i] for i, v in enumerate(vals) if v == best}


def _edge_queries(hull):
    """Every edge direction, nudged to inside and beyond the eps_angle
    band, and its reverse."""
    inside, beyond = DEFAULT_EPS_ANGLE / 2, 2 * DEFAULT_EPS_ANGLE
    for e in hull.edge_dirs:
        for delta in (0.0, -0.0, inside, -inside, beyond, -beyond, 180.0):
            yield e + delta


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

    def test_far_corner_kept(self):
        arc = PolygonalArc(FAR_CORNER_ARC)
        assert validate_simple(arc).ok
        assert convex_hull(arc.nodes).node_ids == (2, 4, 0)
        analysis = analyze_arc(arc)
        for phi in (0.0, 30.0, 90.0):
            report = compare_with_solver(arc, phi, analysis=analysis)
            assert report.ok, report.message

    @settings(max_examples=300, deadline=None)
    @given(jittered_grid_nodes())
    @example(list(FAR_CORNER_ARC))
    def test_jittered_grid_nodes_inside_every_edge(self, nodes):
        # plain float arithmetic, independent of geom: every node lies on
        # the inner side of each hull edge's line, up to a few eps_len
        try:
            arc = PolygonalArc(nodes)
            if not validate_simple(arc).ok:
                return
            hull = convex_hull(arc.nodes)
        except (InvalidArcError, DegenerateHullError):
            return
        slack = 4 * hull.tol.eps_len
        k = len(hull)
        for i in range(k):
            (ax, ay), (bx, by) = hull.points[i], hull.points[(i + 1) % k]
            length = math.hypot(bx - ax, by - ay)
            for px, py in arc.nodes:
                inward = ((bx - ax) * (py - ay) - (by - ay) * (px - ax)) / length
                assert inward >= -slack, (i, px, py, inward)

    @pytest.mark.parametrize("nodes", [
        # duplicate nodes, a repeated corner among them
        [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 0), (0.5, 0.5), (1, 1)],
        # +-0.0 ties break on the node index, and the kept zero's sign shows
        [(0.0, 0.0), (-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0), (1.0, 1.0),
         (0.0, 1.0), (0.5, -0.0)],
        # vertical runs on both ends of the x order
        [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1.5), (2, 3), (2, 1), (2, 0),
         (2, 2)],
        list(BAND_VERTEX_ARC),
        list(FAR_CORNER_ARC),
        _flat_top_arc(40),
        # all collinear: both raise
        [(0, 0), (1, 1), (2, 2), (3, 3)],
    ])
    def test_flat_chain_matches_point_chain(self, nodes):
        _assert_same_as_point_chain(nodes)

    @settings(max_examples=300, deadline=None)
    @given(jittered_grid_nodes())
    def test_flat_chain_matches_point_chain_on_jittered_grids(self, nodes):
        try:
            PolygonalArc(nodes).tolerance()
        except InvalidArcError:
            return
        _assert_same_as_point_chain(nodes)

    def test_strictness_pass_is_linear(self, monkeypatch):
        # the chain keeps the whole flat top and the strictness pass
        # deletes it; restarting the scan after each deletion made that
        # quadratic in the top's length
        nodes = _flat_top_arc(2000)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return orient(*args, **kwargs)

        monkeypatch.setattr("arcsupport.hull.orient", counting)
        hull = convex_hull(nodes)
        assert len(calls) <= 3 * len(nodes)
        assert set(hull.node_ids).isdisjoint(range(1, 1999))
        assert {0, 1999} <= set(hull.node_ids)

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


# node i of this square is SQUARE[i]
SQUARE = (Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))


class TestSupportContact:
    def test_square_bottom_edge(self):
        c = support_contact(convex_hull(SQUARE), 0.0, "left")
        assert c.node_ids == (0, 1)
        assert c.line.px == 0.0 and c.line.py == 0.0 and c.line.dir_deg == 0.0

    def test_square_top_edge_other_side(self):
        c = support_contact(convex_hull(SQUARE), 0.0, "right")
        assert c.node_ids == (3, 2)
        assert c.line == Line(0.0, 1.0, 0.0)

    def test_square_oblique_single_vertex(self):
        hull = convex_hull(SQUARE)
        c = support_contact(hull, 45.0, "right")
        assert c.node_ids == (3,)
        assert c.line == Line(0.0, 1.0, 45.0)
        c2 = support_contact(hull, 45.0, "left")
        assert c2.node_ids == (1,)

    def test_contact_ordered_along_direction(self):
        hull = convex_hull(SQUARE)
        c = support_contact(hull, 90.0, "left")       # hull left of upward line
        assert c.node_ids == (1, 2)
        assert c.line == Line(1.0, 0.0, 90.0)         # anchored at the first
        c2 = support_contact(hull, -90.0, "right")    # same geometric side
        assert c2.node_ids == (2, 1)
        assert c2.line == Line(1.0, 1.0, -90.0)

    def test_direction_within_eps_still_edge(self):
        c = support_contact(convex_hull(SQUARE), 1e-8, "left")
        assert c.node_ids == (0, 1)

    def test_reversed_direction_swaps_side(self):
        hull = convex_hull(SQUARE)
        a = support_contact(hull, 0.0, "left")
        b = support_contact(hull, 180.0, "right")
        assert set(a.node_ids) == set(b.node_ids)

    def test_bad_side_rejected(self):
        hull = convex_hull((Point(0, 0), Point(1, 0), Point(0, 1)))
        with pytest.raises(ValueError):
            support_contact(hull, 0.0, "top")
        with pytest.raises(ValueError):
            support_vertices(hull, 0.0, "top")

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
            for node in c.node_ids:
                assert abs(line_offset(c.line, poly[node])) <= hull.tol.eps_len

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
            assert hull.node_ids[lo_idx] in c.node_ids


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
            with pytest.raises(ValueError):
                support_vertices(hull, bad, side)

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
                assert set(got.node_ids) & _exact_extremes(hull, d, side)
                anchor = Point(got.line.px, got.line.py)
                assert abs(line_offset(ref.line, anchor)) <= slack


def _assert_vertices_match_contact(hull, d):
    for side in ("left", "right"):
        ids = support_vertices(hull, d, side)
        assert len(set(ids)) == len(ids)
        assert ({hull.node_ids[i] for i in ids}
                == set(support_contact(hull, d, side).node_ids))


class TestSupportVertices:
    """support_vertices is the first stage of support_contact: the same
    vertices, before the line is built."""

    def test_edge_directions(self):
        rng = random.Random(37)
        for trial in range(40):
            hull = convex_hull(random_convex_polygon(rng.randint(3, 15),
                                                     5000 + trial))
            for d in _edge_queries(hull):
                _assert_vertices_match_contact(hull, d)

    def test_random_directions(self):
        rng = random.Random(41)
        for trial in range(40):
            hull = convex_hull(random_convex_polygon(rng.randint(3, 15),
                                                     7000 + trial))
            for _ in range(20):
                _assert_vertices_match_contact(hull,
                                               rng.uniform(-540.0, 540.0))

    @settings(max_examples=200, deadline=None)
    @given(jittered_grid_nodes())
    def test_jittered_grids(self, nodes):
        try:
            hull = convex_hull(nodes)
        except DegenerateHullError:
            return
        for d in list(_edge_queries(hull)) + [float(d)
                                              for d in range(-180, 180, 15)]:
            _assert_vertices_match_contact(hull, d)

    def test_square(self):
        # hull indices, the extreme vertex first
        square = convex_hull((Point(0, 0), Point(1, 0), Point(1, 1),
                              Point(0, 1)))
        assert support_vertices(square, 45.0, "left") == [1]
        assert support_vertices(square, 0.0, "left") == [0, 1]
        assert support_vertices(square, 90.0, "right") == [3, 0]
