"""Tests for analysis and support-line pair solving.

`assert_pair_definition` verifies returned pairs against the defining
property itself (support offsets, contact nodes, betweenness, meeting
angle) using plain arithmetic on the arc's nodes.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from helpers import (BAND_EDGE_ANGLES, BAND_REFUSAL, TINY_ANGLES,
                     assert_pair_definition, jittered_grid_nodes, line_offset,
                     random_star_polygon)

from arcsupport import arcio, solver
from arcsupport.arcgen import generate_arc
from arcsupport.arcio import PolygonalArc
from arcsupport.errors import (DegenerateHullError, InvalidArcError,
                               StructuralViolationError, UnsupportedArcError,
                               ensure)
from arcsupport.geom import (DIRECTION_AGREE_DEG, Line, Point,
                             angle_problem, lines_intersection,
                             normalize_angle, unit_vector)
from arcsupport.hull import support_contact
from arcsupport.oracle import compare_with_solver
from arcsupport.schematic import AngleQuery, query_angle
from arcsupport.solver import (
    SolutionSet,
    SupportPairSolution,
    analyze_arc,
    realize_solution,
    solve_at_angle,
    solve_closed,
)

# five-pointed star: 3 crossings as an open arc, 5 when closed
PENTAGRAM = tuple((math.cos(math.radians(90 + 144 * k)),
                   math.sin(math.radians(90 + 144 * k))) for k in range(5))

DEG_ATAN_1_2 = math.degrees(math.atan2(1, 2))
PHI_LEFT_PENTAGON = 45.0 + DEG_ATAN_1_2


class TestPentagonParallel:
    def test_unique_pair(self, pentagon_arc):
        result = solve_at_angle(analyze_arc(pentagon_arc), 0.0)
        assert result.case == "A"
        assert len(result.pairs) == 1
        pair = result.pairs[0]
        assert (pair.u, pair.v, pair.w) == (1, 2, 3)
        assert pair.m == (1.0, 1.0, 0.0)
        assert pair.n == (2.0, -1.0, 0.0)
        assert pair.locale == 2
        assert pair.apex is None
        assert pair.apex_side == "none"
        assert_pair_definition(pentagon_arc, pair,
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
        assert first.apex_side == "left"

        assert (second.u, second.v, second.w) == (2, 3, 4)
        assert second.locale == 3
        assert second.m.dir_deg == pytest.approx(DEG_ATAN_1_2, abs=1e-12)
        assert second.n.dir_deg == pytest.approx(DEG_ATAN_1_2 - 30.0, abs=1e-9)
        assert (second.n.px, second.n.py) == (3.0, 1.0)
        assert second.apex_side == "right"

        for pair, s in ((first, 30.0), (second, 30.0)):
            assert_pair_definition(pentagon_arc, pair, s, analysis.tol.eps_len)

    def test_apex_on_both_lines(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        for pair in solve_at_angle(analysis, 30.0).pairs:
            assert pair.apex is not None
            assert abs(line_offset(pair.m, pair.apex)) <= 1e-9
            assert abs(line_offset(pair.n, pair.apex)) <= 1e-9
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
            assert_pair_definition(pentagon_arc, pair, DEG_ATAN_1_2,
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
        pair = solve_at_angle(analyze_arc(square_arc), 0.0).pairs[0]
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
            assert_pair_definition(square_arc, pair, 90.0,
                                   analysis.tol.eps_len)

    def test_triangle_parallel(self, triangle_arc):
        pair = solve_at_angle(analyze_arc(triangle_arc), 0.0).pairs[0]
        assert (pair.u, pair.v, pair.w) == (0, 1, 2)
        assert pair.m == (0.0, 0.0, 0.0)
        assert pair.n == (1.0, 1.0, 0.0)

    def test_triangle_at_angle(self, triangle_arc):
        analysis = analyze_arc(triangle_arc)
        result = solve_at_angle(analysis, 20.0)
        assert result.case == "B"
        for pair in result.pairs:
            assert_pair_definition(triangle_arc, pair, 20.0,
                                   analysis.tol.eps_len)


class TestInteriorStart:
    def test_parallel_shifted_nodes(self, pentagon_interior_start):
        analysis = analyze_arc(pentagon_interior_start)
        pair = solve_at_angle(analysis, 0.0).pairs[0]
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
        assert_pair_definition(arc, pair, 0.0, arc.tolerance().eps_len)

    def test_closed_triangle(self):
        arc = PolygonalArc(((0, 0), (2, 0), (1, 2)), closed=True)
        pair = solve_closed(arc).pairs[0]
        assert (pair.u, pair.v, pair.w) == (0, 2, 1)
        assert pair.n == (1.0, 2.0, 0.0)
        assert_pair_definition(arc, pair, 0.0, arc.tolerance().eps_len)

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
        for i in range(15):
            arc = random_star_polygon(5 + i, seed=600 + i)
            pair = solve_closed(arc).pairs[0]
            assert_pair_definition(arc, pair, 0.0, arc.tolerance().eps_len)


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
            result = solve_at_angle(analysis, 0.0)
            assert len(result.pairs) == 1
            assert_pair_definition(arc, result.pairs[0], 0.0,
                                   analysis.tol.eps_len * 10)

    def test_angled_pairs_satisfy_definition(self):
        for i in range(20):
            arc = generate_arc(6 + (i * 5) % 25, seed=8400 + i,
                               strategy="uncross")
            analysis = analyze_arc(arc)
            for phi in (10.0, 45.0, 80.0, 120.0):
                result = solve_at_angle(analysis, phi)
                for pair in result.pairs:
                    assert_pair_definition(arc, pair, phi,
                                           analysis.tol.eps_len * 10)


class TestRazorBase:
    # trial 670 of the jitter fuzz at J = 1e-8: three nodes within 1e-8 of
    # the origin make a base about 5.6e-9 long, and at the left aspect
    # angle the apex lands on its first end, within eps_len of its middle
    NODES = ((4.953061444845327e-09, -5.909327594453477e-09),
             (5.946068634339253e-09, 7.956651965421099e-09),
             (9.857855514554018e-09, -8.601814494480462e-09),
             (2.000000002128153, 0.9999999925832231),
             (0.9999999928926863, 0.9999999954570389),
             (0.9999999969905106, 2.0000000089195145),
             (2.0000000021950872, 1.999999993116758))

    def test_apex_side_of_a_razor_short_base(self):
        arc = PolygonalArc(self.NODES)
        analysis = analyze_arc(arc)
        phi = analysis.table.phi_left
        assert phi == pytest.approx(114.66836278985701, abs=1e-9)
        result = solve_at_angle(analysis, phi)
        assert result.case == "C"
        (pair,) = result.pairs
        assert (pair.u, pair.v, pair.w, pair.apex_side) == (0, 1, 2, "left")
        # the midpoint test decides the side, not which end is nearer
        m, _, _, mu, length, _ = analysis.bases[pair.locale - 1]
        along = (pair.apex.x - m.px) * mu.x + (pair.apex.y - m.py) * mu.y
        assert length == pytest.approx(5.6e-9, abs=1e-10)
        assert along == 0.0
        assert abs(along - 0.5 * length) <= analysis.tol.eps_len
        assert compare_with_solver(arc, phi, analysis=analysis).ok
        assert_pair_definition(arc, pair, phi, analysis.tol.eps_len)


class TestCapEdgeContact:
    def test_v_is_the_smaller_node_of_the_edge(self):
        # line n lies along the cap edge 3 -> 2 of this hull, so both ends
        # touch it, and both lie strictly between the base contacts 0 and 4
        arc = generate_arc(5, 5, "uncross")
        analysis = analyze_arc(arc)
        hull = analysis.hull
        assert hull.node_ids == (4, 3, 2, 0)
        (m, node_u, node_w, _, _, side), = analysis.bases
        assert (node_u, node_w) == (0, 4)
        phi = (m.dir_deg - hull.edge_dirs[1]) % 180.0
        assert phi == pytest.approx(29.448427034170237, abs=1e-9)
        result = solve_at_angle(analysis, phi)
        contacts = [support_contact(hull, pair.n.dir_deg, side).node_ids
                    for pair in result.pairs]
        assert contacts == [(2,), (2, 3)]
        pair = result.pairs[1]
        assert (pair.u, pair.v, pair.w) == (0, 2, 4)
        assert_pair_definition(arc, pair, phi, analysis.tol.eps_len)
        assert compare_with_solver(arc, phi, analysis=analysis).ok


def _reference_realize(analysis, abstract):
    """realize_solution as it read before the per-locale constants moved
    into Analysis.bases: every constant worked out on every call."""
    guide = analysis.guide
    hull = analysis.hull
    sigma = guide.sigma
    locale = analysis.decomposition.locales[abstract.locale_index - 1]
    hu, hw = locale.base
    pu, pw = hull.points[hu], hull.points[hw]
    node_u, node_w = hull.node_ids[hu], hull.node_ids[hw]

    m = Line(pu.x, pu.y, hull.edge_dir(hu, hw))

    n_dir = normalize_angle(guide.axis_deg + sigma * abstract.contact_angle)
    side = "right" if sigma * locale.cap_sign > 0 else "left"
    contact = support_contact(hull, n_dir, side)

    candidates = [c for c in contact.node_ids if node_u < c < node_w]
    ensure(len(candidates) > 0,
           "no contact of the rotating line lies strictly between the "
           "base contacts")
    node_v = min(candidates)
    # every candidate lies strictly between node_u and node_w: a cap node
    assert set(candidates) <= {hull.node_ids[h] for h in locale.cap}

    gap = abs(normalize_angle(contact.line.dir_deg - m.dir_deg))
    ensure(abs(gap - abs(abstract.ordinate)) <= DIRECTION_AGREE_DEG,
           "realized lines do not meet at the prescribed angle")

    apex = lines_intersection(m, contact.line)
    if apex is None:
        apex_side = "none"
    else:
        mu = unit_vector(m.dir_deg)
        along = (apex.x - pu.x) * mu.x + (apex.y - pu.y) * mu.y
        length = (pw.x - pu.x) * mu.x + (pw.y - pu.y) * mu.y
        eps = analysis.tol.eps_len
        ensure(along <= eps or along >= length - eps,
               "apex falls strictly between the base contacts")
        mid = 0.5 * length
        if abs(along - mid) <= eps:
            apex_side = "left" if abstract.ordinate > 0 else "right"
        elif along < mid:
            apex_side = "left"
        else:
            apex_side = "right"
    return solver.SupportPairSolution(
        m=m, n=contact.line, u=node_u, v=node_v, w=node_w,
        locale=locale.index, apex=apex, apex_side=apex_side)


def _outcome(realize, analysis, abstract):
    """The solution, with the bits of its apex, or the violation."""
    try:
        pair = realize(analysis, abstract)
    except StructuralViolationError as exc:
        return str(exc)
    apex = None if pair.apex is None else tuple(map(float.hex, pair.apex))
    return pair, apex


def _sweep_outcomes(analysis):
    """Both realizations of every solution at the sweep's 182 angles; an
    aspect angle inside the angle band of 0 is not asked."""
    assert len(solve_at_angle(analysis, 0.0).pairs) == 1
    table = analysis.table
    for phi in ([float(g) for g in range(180)]
                + [t for t in (table.phi_left, -table.phi_right)
                   if angle_problem(t) is None]):
        for abstract in query_angle(analysis.diagram, phi).solutions:
            yield (_outcome(realize_solution, analysis, abstract),
                   _outcome(_reference_realize, analysis, abstract))


class TestLocaleBases:
    """realize_solution reads each locale's constants from Analysis.bases
    and must give what working them out on every call gave, bit for bit."""

    def test_star_fan(self, star_fan_700):
        outcomes = list(_sweep_outcomes(analyze_arc(star_fan_700)))
        assert len(outcomes) >= 182
        for got, ref in outcomes:
            assert got == ref

    @settings(max_examples=150, deadline=None)
    @given(jittered_grid_nodes())
    def test_jittered_grid_arcs(self, nodes):
        try:
            analysis = analyze_arc(PolygonalArc(nodes))
        except (InvalidArcError, DegenerateHullError):
            return
        for got, ref in _sweep_outcomes(analysis):
            assert got == ref

    def test_generated_arcs(self):
        for n in range(5, 51, 5):
            for strategy in ("zigzag", "uncross"):
                analysis = analyze_arc(generate_arc(n, 900 + n, strategy))
                for got, ref in _sweep_outcomes(analysis):
                    assert got == ref

    def test_each_analysis_has_its_own(self):
        # the second arc lacks the first one's hull vertex 2, so one hull
        # index names another node in each analysis
        nodes = [(0, 0), (1, 1), (2, 1.001), (2, -1), (3, 1), (4, 0)]
        first = analyze_arc(PolygonalArc(nodes))
        second = analyze_arc(PolygonalArc(nodes[:2] + nodes[3:]))
        assert first.hull.node_ids != second.hull.node_ids
        gots = {id(first): [], id(second): []}
        # the two analyses take turns, angle by angle, in the solver and
        # in the oracle, whose edge memo is kept for the last hull
        for outcomes in zip_longest(_sweep_outcomes(first),
                                    _sweep_outcomes(second)):
            for analysis, outcome in zip((first, second), outcomes):
                if outcome is not None:
                    got, ref = outcome
                    assert got == ref
                    gots[id(analysis)].append(got)
        assert gots[id(first)] != gots[id(second)]
        assert first.bases != second.bases
        for phi in range(0, 180, 5):
            for analysis in (first, second):
                report = compare_with_solver(analysis.arc, float(phi),
                                             analysis=analysis)
                assert report.ok, (phi, report.message)


class TestRecords:
    """Per-angle results are immutable values that compare equal however
    they were built."""

    def test_angle_query(self, pentagon_arc):
        query = query_angle(analyze_arc(pentagon_arc).diagram, 30.0)
        assert isinstance(query, tuple)
        assert AngleQuery(*query) == query
        assert AngleQuery(case=query.case, solutions=query.solutions) == query
        assert query._replace(case="D") == AngleQuery("D", query.solutions)
        with pytest.raises(AttributeError):
            query.case = "D"

    def test_pair_and_solution_set(self, pentagon_arc):
        solved = solve_at_angle(analyze_arc(pentagon_arc), 30.0)
        pair = solved.pairs[0]
        values = {f.name: getattr(pair, f.name)
                  for f in dataclasses.fields(pair)}
        assert SupportPairSolution(*values.values()) == pair
        assert SupportPairSolution(**values) == pair
        assert dataclasses.replace(pair, v=pair.w).v == pair.w
        assert SolutionSet(solved.phi, solved.case, solved.pairs,
                           solved.table) == solved
        assert dataclasses.replace(solved, pairs=()).pairs == ()
        with pytest.raises(AttributeError):
            pair.v = pair.w
        with pytest.raises(AttributeError):
            solved.case = "D"


class TestTinyAngles:
    """A positive angle inside the angle band of 0 cannot be told from 0:
    its +phi and -phi pairs collapse to one.  Such an angle is refused
    before anything is solved."""

    @pytest.mark.parametrize("phi", TINY_ANGLES)
    def test_refused(self, pentagon_arc, phi):
        analysis = analyze_arc(pentagon_arc)
        with pytest.raises(ValueError, match=BAND_REFUSAL):
            query_angle(analysis.diagram, phi)
        with pytest.raises(ValueError, match=BAND_REFUSAL):
            solve_at_angle(analysis, phi)

    @pytest.mark.parametrize("phi", BAND_EDGE_ANGLES)
    def test_band_edge_has_two_pairs(self, pentagon_arc, phi):
        solved = solve_at_angle(analyze_arc(pentagon_arc), phi)
        assert solved.case == "B" and len(solved.pairs) == 2
        for pair in solved.pairs:
            assert_pair_definition(pentagon_arc, pair, phi, 1e-9)
