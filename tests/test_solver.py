"""Tests for analysis and support-line pair solving.

`_check_pair_definition` verifies returned pairs against the defining
property itself (support offsets, contact nodes, betweenness, meeting
angle) using inline arithmetic only.
"""

from __future__ import annotations

import math

import pytest

from arcsupport import arcio, solver
from arcsupport.arcgen import generate_arc
from arcsupport.arcio import PolygonalArc
from arcsupport.errors import (DegenerateHullError, InvalidArcError,
                               UnsupportedArcError)
from arcsupport.geom import Point
from arcsupport.solver import (
    analyze_arc,
    solve_at_angle,
    solve_closed,
    solve_parallel,
)

# five-pointed star: 3 crossings as an open arc, 5 when closed
PENTAGRAM = tuple((math.cos(math.radians(90 + 144 * k)),
                   math.sin(math.radians(90 + 144 * k))) for k in range(5))

DEG_ATAN_1_2 = math.degrees(math.atan2(1, 2))
PHI_LEFT_PENTAGON = 45.0 + DEG_ATAN_1_2


def _offset(line, p) -> float:
    r = math.radians(line.dir_deg)
    ux, uy = math.cos(r), math.sin(r)
    return ux * (p[1] - line.py) - uy * (p[0] - line.px)


def _check_pair_definition(arc, pair, phi, eps_len):
    """The defining property, checked from scratch."""
    gap = abs((pair.m.dir_deg - pair.n.dir_deg + 180.0) % 360.0 - 180.0)
    assert gap == pytest.approx(phi, abs=1e-6)

    for line, on_line in ((pair.m, (pair.u, pair.w)), (pair.n, (pair.v,))):
        offsets = [_offset(line, p) for p in arc.nodes]
        assert min(offsets) >= -eps_len or max(offsets) <= eps_len
        for node in on_line:
            assert abs(offsets[node]) <= eps_len

    if not arc.closed:
        assert pair.u < pair.v < pair.w


class TestPentagonParallel:
    def test_unique_pair(self, pentagon_arc):
        result = solve_parallel(analyze_arc(pentagon_arc))
        assert result.case == "A"
        assert len(result.pairs) == 1
        pair = result.pairs[0]
        assert (pair.u, pair.v, pair.w) == (1, 2, 3)
        assert pair.m == (1.0, 1.0, 0.0)
        assert pair.n == (2.0, -1.0, 0.0)
        assert pair.locale == 2
        assert pair.apex is None
        assert pair.apex_side == "none"
        assert pair.ordinate == 0.0
        _check_pair_definition(pentagon_arc, pair,
                               0.0, analyze_arc(pentagon_arc).tol.eps_len)


class TestPentagonAtAngle:
    def test_thirty_degrees(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        result = solve_at_angle(analysis, 30.0)
        assert result.case == "B"
        assert len(result.pairs) == 2
        first, second = result.pairs

        assert (first.u, first.v, first.w) == (0, 1, 2)
        assert first.locale == 1
        assert first.m.dir_deg == pytest.approx(-DEG_ATAN_1_2, abs=1e-12)
        assert first.n.dir_deg == pytest.approx(30.0 - DEG_ATAN_1_2, abs=1e-9)
        assert (first.n.px, first.n.py) == (1.0, 1.0)
        assert first.ordinate == 30.0
        assert first.apex_side == "left"

        assert (second.u, second.v, second.w) == (2, 3, 4)
        assert second.locale == 3
        assert second.m.dir_deg == pytest.approx(DEG_ATAN_1_2, abs=1e-12)
        assert second.n.dir_deg == pytest.approx(DEG_ATAN_1_2 - 30.0, abs=1e-9)
        assert (second.n.px, second.n.py) == (3.0, 1.0)
        assert second.ordinate == -30.0
        assert second.apex_side == "right"

        for pair, s in ((first, 30.0), (second, 30.0)):
            _check_pair_definition(pentagon_arc, pair, s, analysis.tol.eps_len)

    def test_apex_on_both_lines(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        for pair in solve_at_angle(analysis, 30.0).pairs:
            assert pair.apex is not None
            assert abs(_offset(pair.m, pair.apex)) <= 1e-9
            assert abs(_offset(pair.n, pair.apex)) <= 1e-9
        # First apex lies beyond the head (x < 0), second beyond the tail.
        a, b = solve_at_angle(analysis, 30.0).pairs
        assert a.apex.x < 0.0
        assert b.apex.x > 4.0

    def test_at_left_aspect_angle(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        result = solve_at_angle(analysis, PHI_LEFT_PENTAGON)
        assert result.case == "B"
        first, second = result.pairs
        # The apexes land exactly on the head and tail.
        assert first.apex == pytest.approx(Point(0.0, 0.0), abs=1e-9)
        assert first.apex_side == "left"
        assert second.apex == pytest.approx(Point(4.0, 0.0), abs=1e-9)
        assert second.apex_side == "right"
        assert (first.v, second.v) == (1, 3)

    def test_at_coincidence_angle(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        result = solve_at_angle(analysis, DEG_ATAN_1_2)
        assert result.case == "B"
        assert [p.locale for p in result.pairs] == [2, 3]
        for pair in result.pairs:
            _check_pair_definition(pentagon_arc, pair, DEG_ATAN_1_2,
                                   analysis.tol.eps_len)

    def test_too_wide_angle(self, pentagon_arc):
        result = solve_at_angle(analyze_arc(pentagon_arc), 100.0)
        assert result.case == "D"
        assert result.pairs == ()

    def test_rejects_out_of_range(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        with pytest.raises(ValueError):
            solve_at_angle(analysis, -3.0)
        with pytest.raises(ValueError):
            solve_at_angle(analysis, 181.0)


class TestSingleLocaleArcs:
    def test_square_parallel(self, square_arc):
        pair = solve_parallel(analyze_arc(square_arc)).pairs[0]
        assert (pair.u, pair.v, pair.w) == (0, 1, 3)
        assert pair.m == (0.0, 1.0, 0.0)
        assert pair.n == (0.0, 0.0, 0.0)

    def test_square_right_angle(self, square_arc):
        analysis = analyze_arc(square_arc)
        result = solve_at_angle(analysis, 90.0)
        assert result.case == "B"
        first, second = result.pairs
        assert first.v == 1 and second.v == 2
        assert first.apex == pytest.approx(Point(0.0, 1.0), abs=1e-12)
        assert first.apex_side == "left"
        assert second.apex == pytest.approx(Point(1.0, 1.0), abs=1e-12)
        assert second.apex_side == "right"
        for pair in result.pairs:
            _check_pair_definition(square_arc, pair, 90.0,
                                   analysis.tol.eps_len)

    def test_triangle_parallel(self, triangle_arc):
        pair = solve_parallel(analyze_arc(triangle_arc)).pairs[0]
        assert (pair.u, pair.v, pair.w) == (0, 1, 2)
        assert pair.m == (0.0, 0.0, 0.0)
        assert pair.n == (1.0, 1.0, 0.0)

    def test_triangle_at_angle(self, triangle_arc):
        analysis = analyze_arc(triangle_arc)
        result = solve_at_angle(analysis, 20.0)
        assert result.case == "B"
        for pair in result.pairs:
            _check_pair_definition(triangle_arc, pair, 20.0,
                                   analysis.tol.eps_len)


class TestInteriorStart:
    def test_parallel_shifted_nodes(self, pentagon_interior_start):
        pair = solve_parallel(analyze_arc(pentagon_interior_start)).pairs[0]
        assert (pair.u, pair.v, pair.w) == (2, 3, 4)
        assert pair.m == (1.0, 1.0, 0.0)


class TestAnalyzeErrors:
    def test_closed_arc_unsupported(self):
        arc = PolygonalArc(((0, 0), (1, 0), (0, 1)), closed=True)
        with pytest.raises(UnsupportedArcError):
            analyze_arc(arc)

    def test_self_crossing_rejected(self):
        arc = PolygonalArc(((0, 0), (2, 2), (2, 0), (0, 2)))
        with pytest.raises(InvalidArcError, match="not simple"):
            analyze_arc(arc)
        with pytest.raises(InvalidArcError, match=r"intersect \(\+2 more\)$"):
            analyze_arc(PolygonalArc(PENTAGRAM))

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateHullError):
            analyze_arc(PolygonalArc(((0, 0), (1, 0), (3, 0))))

    def test_collinear_verdict_comes_from_the_hull(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return True

        monkeypatch.setattr(arcio, "is_segment_arc", spy)
        monkeypatch.setattr(solver, "is_segment_arc", spy, raising=False)
        arc = PolygonalArc(((0, 0), (1, 0), (2, 0), (3, 0)))
        with pytest.raises(DegenerateHullError,
                           match="^all nodes are collinear$"):
            analyze_arc(arc)
        assert calls == []

    def test_two_node_arc_rejected(self):
        with pytest.raises(DegenerateHullError):
            analyze_arc(PolygonalArc(((0, 0), (1, 1))))


class TestSolveClosed:
    def test_closed_square(self):
        arc = PolygonalArc(((0, 0), (1, 0), (1, 1), (0, 1)), closed=True)
        result = solve_closed(arc)
        assert result.phi == 0.0 and result.case == "A"
        assert result.table is None
        pair = result.pairs[0]
        assert (pair.u, pair.v, pair.w) == (0, 3, 1)
        assert pair.m == (0.0, 0.0, 0.0)
        assert pair.n == (0.0, 1.0, 0.0)
        assert pair.locale is None and pair.apex is None
        assert pair.apex_side == "none"
        _check_pair_definition(arc, pair, 0.0, arc.tolerance().eps_len)

    def test_closed_triangle(self):
        arc = PolygonalArc(((0, 0), (2, 0), (1, 2)), closed=True)
        pair = solve_closed(arc).pairs[0]
        assert (pair.u, pair.v, pair.w) == (0, 2, 1)
        assert pair.n == (1.0, 2.0, 0.0)
        _check_pair_definition(arc, pair, 0.0, arc.tolerance().eps_len)

    def test_open_arc_rejected(self, pentagon_arc):
        with pytest.raises(UnsupportedArcError):
            solve_closed(pentagon_arc)

    def test_crossing_closed_rejected(self):
        arc = PolygonalArc(((0, 0), (1, 1), (1, 0), (0, 1)), closed=True)
        with pytest.raises(InvalidArcError):
            solve_closed(arc)
        with pytest.raises(InvalidArcError, match=r"intersect \(\+4 more\)$"):
            solve_closed(PolygonalArc(PENTAGRAM, closed=True))

    def test_fuzzed_star_polygons(self):
        from arcsupport.arcgen import random_star_polygon
        for i in range(15):
            arc = random_star_polygon(5 + i, seed=600 + i)
            pair = solve_closed(arc).pairs[0]
            _check_pair_definition(arc, pair, 0.0, arc.tolerance().eps_len)


class TestJsonShape:
    def test_solution_set_dict(self, pentagon_arc):
        result = solve_at_angle(analyze_arc(pentagon_arc), 30.0)
        d = result.to_json_dict()
        assert set(d) == {"schema", "phi", "case", "pairs", "tilt_table"}
        assert d["schema"] == 1
        assert d["phi"] == 30.0 and d["case"] == "B"
        assert len(d["pairs"]) == 2
        pair = d["pairs"][0]
        assert set(pair) == {"m", "n", "u", "v", "w", "locale", "apex_side"}
        assert set(pair["m"]) == {"px", "py", "dir_deg"}
        t = d["tilt_table"]
        assert set(t) == {"tilts", "spans", "phi_left", "phi_right",
                          "delta_total"}
        assert len(t["tilts"]) == len(t["spans"]) + 2

    def test_closed_dict_has_no_table(self):
        arc = PolygonalArc(((0, 0), (1, 0), (1, 1), (0, 1)), closed=True)
        d = solve_closed(arc).to_json_dict()
        assert "tilt_table" not in d


class TestInvariance:
    @pytest.mark.parametrize("angle, shift", [
        (30.0, (5.0, -3.0)),
        (123.4, (-2.0, 7.5)),
        (-77.0, (0.1, 0.2)),
    ])
    def test_rigid_motion(self, pentagon_arc, angle, shift):
        r = math.radians(angle)
        c, s = math.cos(r), math.sin(r)
        moved = PolygonalArc(tuple(
            (c * p.x - s * p.y + shift[0], s * p.x + c * p.y + shift[1])
            for p in pentagon_arc.nodes))
        base = analyze_arc(pentagon_arc)
        turned = analyze_arc(moved)
        assert turned.table.phi_left == pytest.approx(base.table.phi_left,
                                                      abs=1e-9)
        assert turned.table.delta_total == pytest.approx(
            base.table.delta_total, abs=1e-9)
        for phi in (0.0, 30.0, 100.0):
            a = solve_at_angle(base, phi)
            b = solve_at_angle(turned, phi)
            assert a.case == b.case
            assert len(a.pairs) == len(b.pairs)
            assert [p.v for p in a.pairs] == [p.v for p in b.pairs]

    def test_mirror(self, pentagon_arc):
        mirrored = PolygonalArc(tuple((p.x, -p.y)
                                      for p in pentagon_arc.nodes))
        analysis = analyze_arc(mirrored)
        assert analysis.guide.sigma == -1
        for phi in (0.0, 30.0, 100.0):
            a = solve_at_angle(analyze_arc(pentagon_arc), phi)
            b = solve_at_angle(analysis, phi)
            assert a.case == b.case and len(a.pairs) == len(b.pairs)

    def test_reversal_counts(self, pentagon_arc):
        reversed_arc = PolygonalArc(pentagon_arc.nodes[::-1])
        for phi in (0.0, 30.0, 71.0, 100.0):
            a = solve_at_angle(analyze_arc(pentagon_arc), phi)
            b = solve_at_angle(analyze_arc(reversed_arc), phi)
            assert len(a.pairs) == len(b.pairs)


class TestFuzzedDefinition:
    def test_parallel_pairs_satisfy_definition(self):
        for i in range(30):
            arc = generate_arc(5 + (i * 3) % 30, seed=8200 + i,
                               strategy="uncross" if i % 2 else "zigzag")
            analysis = analyze_arc(arc)
            result = solve_parallel(analysis)
            assert len(result.pairs) == 1
            _check_pair_definition(arc, result.pairs[0], 0.0,
                                   analysis.tol.eps_len * 10)

    def test_angled_pairs_satisfy_definition(self):
        for i in range(20):
            arc = generate_arc(6 + (i * 5) % 25, seed=8400 + i)
            analysis = analyze_arc(arc)
            for phi in (10.0, 45.0, 80.0, 120.0):
                result = solve_at_angle(analysis, phi)
                for pair in result.pairs:
                    _check_pair_definition(arc, pair, phi,
                                           analysis.tol.eps_len * 10)
