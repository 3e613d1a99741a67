"""Tests for the arc data model, parsers, and simplicity validation."""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from helpers import bbox_diagonal, exact_orient, random_star_polygon, star_fan

from arcsupport import arcio
from arcsupport.arcgen import generate_arc
from arcsupport.arcio import (
    PolygonalArc,
    ValidationReport,
    Violation,
    _by_x_min,
    _candidate_pairs,
    _filter_band,
    _node_array,
    _segment_ends,
    _suspect_pairs,
    is_segment_arc,
    load_arc,
    parse_arc,
    validate_simple,
)
from arcsupport.errors import InvalidArcError, ParseError
from arcsupport.geom import (DEFAULT_EPS_ANGLE, DEFAULT_EPS_REL, Line, Point,
                             Tolerance, dist,
                             lines_intersection, orient, segments_intersect)
from arcsupport.solver import analyze_arc, solve_closed


def _arc_json(arc):
    """The arc in the JSON input form; floats keep their repr."""
    return json.dumps({"closed": arc.closed,
                       "nodes": [[p.x, p.y] for p in arc.nodes]})


class TestPolygonalArc:
    def test_nodes_coerced_to_points(self):
        arc = PolygonalArc(((0, 0), (1.5, 2)))
        assert isinstance(arc.nodes[0], Point)
        assert arc.nodes[1] == Point(1.5, 2.0)
        assert len(arc) == 2
        assert not arc.closed

    def test_open_needs_two_nodes(self):
        with pytest.raises(InvalidArcError):
            PolygonalArc(((0, 0),))

    def test_closed_needs_three_nodes(self):
        with pytest.raises(InvalidArcError):
            PolygonalArc(((0, 0), (1, 0)), closed=True)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArcError):
            PolygonalArc(((0, 0), (math.inf, 1)))
        with pytest.raises(InvalidArcError):
            PolygonalArc(((0, 0), (1, math.nan)))

    def test_segments_open(self):
        arc = PolygonalArc(((0, 0), (1, 0), (1, 1)))
        assert arc.segment_count() == 2
        assert [arc.segment(i) for i in range(arc.segment_count())] == [
            (Point(0, 0), Point(1, 0)), (Point(1, 0), Point(1, 1))]

    def test_segments_closed_wrap(self):
        arc = PolygonalArc(((0, 0), (1, 0), (0, 1)), closed=True)
        assert arc.segment_count() == 3
        assert arc.segment(2) == (Point(0, 1), Point(0, 0))

    def test_bbox_computed_once(self, monkeypatch):
        arc = PolygonalArc(((1, 5), (-2, 3), (4, -1)))
        assert arc.bbox == (-2, -1, 4, 5)
        monkeypatch.setattr(arcio, "bbox", None)    # a second pass fails
        assert arc.tolerance().eps_len == pytest.approx(
            math.hypot(6, 6) * DEFAULT_EPS_REL)
        assert arc.bbox == (-2, -1, 4, 5)
        assert arc == PolygonalArc(arc.nodes)       # equality reads the fields

    def test_tolerance_for_diagonal(self):
        tol = PolygonalArc(((0, 0), (60, 80))).tolerance()    # diagonal 100
        assert tol.eps_len == pytest.approx(100.0 * DEFAULT_EPS_REL)
        assert tol.eps_angle == DEFAULT_EPS_ANGLE

    def test_tolerance_zero_diagonal_falls_back(self):
        tol = PolygonalArc(((1, 2), (1, 2))).tolerance()
        assert tol.eps_len > 0.0

    def test_tolerance_rejects_bad_inputs(self):
        # the angle band is fixed, so an angle argument is refused
        arc = PolygonalArc(((0, 0), (60, 80)))
        with pytest.raises(ValueError):
            arc.tolerance(0.0)
        with pytest.raises(TypeError):
            arc.tolerance(eps_angle=1e-3)
        with pytest.raises(TypeError):
            arc.tolerance(1e-6, 1e-3)
        eps_len = arc.tolerance().eps_len
        with pytest.raises(TypeError):
            Tolerance(eps_len, 5.0)
        with pytest.raises(TypeError):
            lines_intersection(Line(0, 0, 0.0), Line(0, 0, 90.0), 5.0)
        assert Tolerance(eps_len).eps_angle == DEFAULT_EPS_ANGLE

    @pytest.mark.parametrize("eps_len", [-1.0, 0.0, math.nan, math.inf])
    def test_explicit_tolerance_checked_like_the_flags(self, eps_len):
        arc = PolygonalArc(((0, 0), (60, 80)))
        with pytest.raises(ValueError,
                           match="^eps_len must be a finite number > 0, got"):
            arc.tolerance(eps_len)
        # a hand-built tolerance is checked the same way
        with pytest.raises(ValueError,
                           match="^eps_len must be a finite number > 0, got"):
            Tolerance(eps_len)

    def test_tolerance_scales_with_diagonal(self):
        small = PolygonalArc(((0, 0), (1, 1))).tolerance()
        big = PolygonalArc(((0, 0), (1000, 1000))).tolerance()
        assert big.eps_len == pytest.approx(1000 * small.eps_len)
        assert small.eps_angle == big.eps_angle == DEFAULT_EPS_ANGLE
        arc = PolygonalArc(((0, 0), (1, 1)))
        assert arc.tolerance(1e-6) == Tolerance(1e-6)

    def test_tolerance_rejects_overflowing_diagonal(self):
        # every coordinate is finite, but the diagonal overflows to inf
        arc = PolygonalArc(((0, 0), (1e308, 1e308), (-1e308, 0)))
        for eps_len in (None, 1.0):
            with pytest.raises(InvalidArcError, match="float range"):
                arc.tolerance(eps_len)
        with pytest.raises(InvalidArcError, match="float range"):
            validate_simple(arc)

    @pytest.mark.parametrize("scale", [1e154, 1e157, 1e160])
    def test_tolerance_rejects_overflowing_products(self, scale):
        # the diagonal is finite, but 2 * diagonal**2 (which bounds the
        # cross products) overflows; at 1e160 so does eps_len * diagonal
        pentagon = ((0, 0), (1, 1), (2, -1), (3, 1), (4, 0))
        arc = PolygonalArc(tuple((x * scale, y * scale) for x, y in pentagon))
        assert math.isfinite(math.hypot(4 * scale, 2 * scale))
        with pytest.raises(InvalidArcError, match="float range"):
            arc.tolerance()

    @pytest.mark.parametrize("scale", [1e-160, 1e-165, 1e-300, 1e-320])
    def test_tolerance_rejects_underflowing_band(self, scale):
        # eps_len * diagonal, the widest collinearity band, underflows to 0;
        # below 1e-164 every cross product of these nodes does too
        pentagon = ((0, 0), (1, 1), (2, -1), (3, 1), (4, 0))
        arc = PolygonalArc(tuple((x * scale, y * scale) for x, y in pentagon))
        with pytest.raises(InvalidArcError, match="underflows the float range"):
            arc.tolerance()
        with pytest.raises(InvalidArcError, match="underflows the float range"):
            arc.tolerance(1e-200)

    def test_smallest_accepted_scale_keeps_the_hull(self):
        scale = 1e-155
        pentagon = ((0, 0), (1, 1), (2, -1), (3, 1), (4, 0))
        arc = PolygonalArc(tuple((x * scale, y * scale) for x, y in pentagon))
        tol = arc.tolerance()
        # the band is subnormal, yet every turn keeps its exact sign
        band = tol.eps_len * math.hypot(4 * scale, 2 * scale)
        assert 0 < band < sys.float_info.min
        for a in arc.nodes:
            for b in arc.nodes:
                for c in arc.nodes:
                    if len({a, b, c}) == 3:
                        assert orient(a, b, c, tol) == exact_orient(a, b, c)

    def test_largest_accepted_scale_keeps_the_hull(self):
        # 2 * diagonal**2 is just finite at this scale; the tolerant orient
        # then agrees with the exact one on every triple of nodes
        scale = 2e153
        pentagon = ((0, 0), (1, 1), (2, -1), (3, 1), (4, 0))
        arc = PolygonalArc(tuple((x * scale, y * scale) for x, y in pentagon))
        tol = arc.tolerance()
        for a in arc.nodes:
            for b in arc.nodes:
                for c in arc.nodes:
                    if len({a, b, c}) == 3:
                        assert orient(a, b, c, tol) == exact_orient(a, b, c)


class TestJsonParsing:
    def test_round_trip(self):
        arc = PolygonalArc(((0.1, -2.25), (1e-17, 3.5), (7, 0.30000000000000004)))
        again = parse_arc(_arc_json(arc))
        assert again.nodes == arc.nodes
        assert again.closed == arc.closed

    def test_round_trip_closed(self):
        arc = PolygonalArc(((0, 0), (2, 0), (1, 2)), closed=True)
        again = parse_arc(_arc_json(arc))
        assert again.closed is True
        assert again.nodes == arc.nodes

    def test_closed_defaults_false(self):
        arc = parse_arc('{"nodes": [[0, 0], [1, 1]]}')
        assert arc.closed is False

    @pytest.mark.parametrize("text, message", [
        ('{"nodes": []}', "an open arc needs at least 2 nodes, got 0"),
        ('{"nodes": [], "closed": true}',
         "a closed arc needs at least 3 nodes, got 0"),
    ])
    def test_too_few_nodes_message(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_arc(text)

    @pytest.mark.parametrize("text", [
        '[[0, 0], [1, 1]]',                                   # not an object
        '{"nodes": [[0, 0], [1, 1]], "color": "red"}',        # unknown key
        '{"nodes": [[0, 0], [1, 1]], "closed": 1}',           # non-bool closed
        '{"nodes": "zig"}',                                   # nodes not a list
        '{"nodes": [[0, 0], [1]]}',                           # short pair
        '{"nodes": [[0, 0], [1, "a"]]}',                      # non-numeric
        '{"nodes": [[0, 0], [1, true]]}',                     # bool is not a number
        '{"nodes": [[0, 0]]}',                                # too few nodes
        '{"nodes": [[Infinity, 0], [1, 1]]}',                 # non-finite
        '{"nodes": [[0, 0], [1, 1]',                          # syntax error
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_arc(text)

    @pytest.mark.parametrize("entry", [
        'true', '"1"', 'null', '[1]', '[1, 2, 3]', '[0, true]', '[0, "1"]',
        '[null, 0]', '{"x": 0, "y": 1}'])
    def test_non_pair_entry_message(self, entry):
        text = f'{{"nodes": [[0, 0], {entry}, [2, 0]]}}'
        with pytest.raises(ParseError,
                           match=r"^node 1 is not a numeric \[x, y\] pair$"):
            parse_arc(text)


class TestCsvParsing:
    def test_basic_with_header_comments_blanks(self):
        text = "x,y\n# a comment\n0, 0\n\n1,2  # trailing note\n3 , -4\n"
        arc = parse_arc(text, fmt="csv")
        assert arc.nodes == (Point(0, 0), Point(1, 2), Point(3, -4))
        assert arc.closed is False

    def test_error_reports_line_number(self):
        text = "0,0\n1,1\nnope,nope\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_arc(text, fmt="csv")

    def test_only_one_header_allowed(self):
        with pytest.raises(ParseError):
            parse_arc("x,y\na,b\n0,0\n1,1\n", fmt="csv")

    @pytest.mark.parametrize("first", ["0;0", "1,2,3", "5 5", "x,5"])
    def test_malformed_first_line_is_not_a_header(self, first):
        # a header is two fields, neither a number; any other bad first
        # line is an error, not a silently dropped node
        with pytest.raises(ParseError,
                           match="^line 1: expected two numeric fields"):
            parse_arc(f"{first}\n1,1\n2,0\n", fmt="csv")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_arc("0,0\n1,2,3\n", fmt="csv")

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_arc("0,0\ninf,1\n", fmt="csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_arc("0,0", fmt="xml")


class TestLoadArc:
    def test_by_extension(self, tmp_path):
        j = tmp_path / "arc.json"
        j.write_text('{"nodes": [[0, 0], [1, 1], [2, 0]]}')
        c = tmp_path / "arc.csv"
        c.write_text("0,0\n1,1\n2,0\n")
        assert load_arc(str(j)).nodes == load_arc(str(c)).nodes

    def test_extension_decides_the_format(self, tmp_path):
        upper = tmp_path / "arc.CSV"
        upper.write_text("0,0\n1,1\n")
        assert len(load_arc(str(upper))) == 2
        other = tmp_path / "arc.txt"       # anything but .csv is JSON
        other.write_text("0,0\n1,1\n")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_arc(str(other))
        other.write_text('{"nodes": [[0, 0], [1, 1]]}')
        assert len(load_arc(str(other))) == 2
        with pytest.raises(TypeError):
            load_arc(str(upper), fmt="csv")


class TestSegmentArcDetection:
    def test_collinear_is_segment(self):
        assert is_segment_arc(PolygonalArc(((0, 0), (1, 0), (3, 0))))
        assert is_segment_arc(PolygonalArc(((0, 0), (2, 2), (0.5, 0.5))))

    def test_pentagon_is_not(self, pentagon_arc):
        assert not is_segment_arc(pentagon_arc)

    def test_small_bump_above_eps(self):
        arc = PolygonalArc(((0, 0), (1, 1e-4), (2, 0)))
        assert not is_segment_arc(arc)

    def test_bump_below_eps_counts_as_segment(self):
        arc = PolygonalArc(((0, 0), (1, 1e-12), (2, 0)))
        assert is_segment_arc(arc)


# closed arcs whose violation, or its absence, sits where the last node
# wraps round to node 0
WRAP_BACKTRACK_FIRST = PolygonalArc(((0, 0), (2, 0), (1, 1), (1, 0)),
                                    closed=True)
WRAP_BACKTRACK_LAST = PolygonalArc(((0, 0), (2, 2), (0, 2), (0, 3)),
                                   closed=True)
WRAP_DUPLICATE = PolygonalArc(((0, 0), (1, 0), (1, 1), (0, 0)), closed=True)
WRAP_ARROWHEAD = PolygonalArc(((0, 0), (4, 1), (2, 0), (4, -1)), closed=True)


class TestValidateSimple:
    def test_pentagon_ok(self, pentagon_arc):
        report = validate_simple(pentagon_arc)
        assert report.ok and report.violations == ()

    def test_duplicate_node(self):
        arc = PolygonalArc(((0, 0), (1, 1), (1, 1), (2, 0)))
        report = validate_simple(arc)
        assert not report.ok
        assert report.violations[0].kind == "duplicate_node"
        assert report.violations[0].indices == (1, 2)

    def test_endpoints_coincide(self):
        arc = PolygonalArc(((0, 0), (1, 1), (2, 0), (0, 0)))
        report = validate_simple(arc)
        assert any(v.kind == "endpoints_coincide" for v in report.violations)

    def test_backtrack(self):
        arc = PolygonalArc(((0, 0), (2, 0), (1, 0)))
        report = validate_simple(arc)
        assert any(v.kind == "backtrack" for v in report.violations)

    def test_right_angle_is_not_backtrack(self):
        arc = PolygonalArc(((0, 0), (1, 0), (1, 1)))
        assert validate_simple(arc).ok

    def test_segments_cross(self):
        arc = PolygonalArc(((0, 0), (2, 2), (2, 0), (0, 2)))
        report = validate_simple(arc)
        kinds = {v.kind for v in report.violations}
        assert "segments_cross" in kinds
        crossing = next(v for v in report.violations
                        if v.kind == "segments_cross")
        assert crossing.indices == (0, 2)

    def test_touch_counts_as_cross(self):
        # Later segment passes through an earlier node.
        arc = PolygonalArc(((0, 0), (2, 0), (2, 2), (0, -2)))
        report = validate_simple(arc)
        assert any(v.kind == "segments_cross" for v in report.violations)

    def test_closed_square_ok(self):
        arc = PolygonalArc(((0, 0), (1, 0), (1, 1), (0, 1)), closed=True)
        assert validate_simple(arc).ok

    def test_closed_bowtie_rejected(self):
        arc = PolygonalArc(((0, 0), (1, 1), (1, 0), (0, 1)), closed=True)
        assert not validate_simple(arc).ok

    def test_closed_wrap_adjacency_not_flagged(self):
        # Segments 0 and n-1 share the first node; that contact is legal.
        arc = PolygonalArc(((0, 0), (2, 0), (1, 2)), closed=True)
        assert validate_simple(arc).ok
        # the arrowhead's segments 0 and 3 also have overlapping boxes
        assert validate_simple(WRAP_ARROWHEAD).ok

    # junction 0 folds segment 0 back along the wrap segment 3; junction
    # n-1 folds the wrap segment back along segment 2
    @pytest.mark.parametrize("arc, fold", [
        (WRAP_BACKTRACK_FIRST, Violation(
            "backtrack", (3, 0), "segment 0 folds back along segment 3")),
        (WRAP_BACKTRACK_LAST, Violation(
            "backtrack", (2, 3), "segment 3 folds back along segment 2")),
    ], ids=["junction_0", "junction_n-1"])
    def test_closed_backtrack_at_the_wrap(self, arc, fold):
        report = validate_simple(arc)
        assert [v for v in report.violations if v.kind == "backtrack"] == [fold]

    def test_closed_duplicate_across_the_wrap(self):
        report = validate_simple(WRAP_DUPLICATE)
        assert report.violations == (
            Violation("duplicate_node", (3, 0), "nodes 3 and 0 coincide"),)


def _intersecting_pairs(arc, tol):
    """Non-adjacent segment pairs i < j that ``segments_intersect`` flags,
    testing every pair."""
    m = arc.segment_count()
    return [(i, j) for i in range(m) for j in range(i + 2, m)
            if not (arc.closed and i == 0 and j == m - 1)
            and segments_intersect(arc.segment(i), arc.segment(j), tol)]


class TestCandidatePrefilter:
    """The bbox prefilter must never drop a truly intersecting pair."""

    def test_matches_quadratic_reference(self):
        rng = random.Random(7)
        for trial in range(40):
            n = rng.randint(4, 14)
            closed = trial % 3 == 0 and n >= 3
            pts = []
            while len(pts) < n:
                p = (rng.uniform(0, 10), rng.uniform(0, 10))
                if not pts or (abs(p[0] - pts[-1][0]) > 1e-6
                               or abs(p[1] - pts[-1][1]) > 1e-6):
                    pts.append(p)
            arc = PolygonalArc(tuple(pts), closed=closed)
            tol = arc.tolerance()
            reference = _intersecting_pairs(arc, tol)
            order, *columns = _by_x_min(
                *_segment_ends(_node_array(arc), arc.segment_count()))
            candidates = {tuple(sorted(pair)) for s, t in _candidate_pairs(
                              *columns, order, tol.eps_len, arc.closed)
                          for pair in zip(order[s].tolist(),
                                          order[t].tolist())}
            hits = [p for p in candidates
                    if segments_intersect(arc.segment(p[0]), arc.segment(p[1]),
                                          tol)]
            assert sorted(hits) == sorted(reference)


def _scalar_report(arc, tol):
    """validate_simple's checks made one at a time with the scalar
    predicates, testing every non-adjacent segment pair."""
    nodes, n, m = arc.nodes, len(arc), arc.segment_count()
    violations = [Violation("duplicate_node", (i, (i + 1) % n),
                            f"nodes {i} and {(i + 1) % n} coincide")
                  for i in range(m) if dist(*arc.segment(i)) <= tol.eps_len]
    if violations:
        return ValidationReport(False, tuple(violations))
    if not arc.closed and dist(nodes[0], nodes[-1]) <= tol.eps_len:
        violations.append(Violation(
            "endpoints_coincide", (0, n - 1),
            "an open arc may not start and end at the same point"))
    for j in range(n) if arc.closed else range(1, n - 1):
        a, b, c = nodes[j - 1], nodes[j], nodes[(j + 1) % n]
        if (orient(a, b, c, tol) == 0
                and (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y) < 0):
            violations.append(Violation(
                "backtrack", ((j - 1) % m, j % m),
                f"segment {j % m} folds back along segment {(j - 1) % m}"))
    for i in range(m):
        for j in range(i + 2, m):
            if arc.closed and i == 0 and j == m - 1:
                continue
            if segments_intersect(arc.segment(i), arc.segment(j), tol):
                violations.append(Violation(
                    "segments_cross", (i, j), f"segments {i} and {j} intersect"))
    return ValidationReport(not violations, tuple(violations))


@st.composite
def jittered_grid_arcs(draw):
    """Open or closed arcs of 4-12 nodes on a G x G grid, G in 3..6, each
    coordinate moved by up to J = 10**U(-11, -8), below eps_len or near it."""
    g = draw(st.integers(3, 6))
    jitter = 10.0 ** draw(st.floats(-11, -8))
    coord = st.builds(lambda k, u: k + u * jitter,
                      st.integers(0, g - 1), st.floats(-1, 1))
    nodes = draw(st.lists(st.tuples(coord, coord), min_size=4, max_size=12))
    return PolygonalArc(tuple(nodes), closed=draw(st.booleans()))


# Segment 3 ends 2.1e-9 above segment 0, with eps_len = 1e-9 * sqrt(2): the
# turn's |cross| lies between the band and twice the band, so the float
# filter cannot rule the pair out and the scalar test must.
NEAR_TIE = PolygonalArc(((0, 0), (1, 0), (1, 1), (0.5, 1), (0.5, 2.1e-9)))


class TestBatchedValidation:
    """validate_simple's NumPy filter reports exactly what the scalar
    predicates report on every pair."""

    @settings(max_examples=200, deadline=None)
    @example(arc=NEAR_TIE)
    @example(arc=WRAP_BACKTRACK_FIRST)
    @example(arc=WRAP_BACKTRACK_LAST)
    @example(arc=WRAP_DUPLICATE)
    @example(arc=WRAP_ARROWHEAD)
    @given(arc=jittered_grid_arcs())
    def test_matches_scalar_reference(self, arc):
        # at 1e-150 the filter's band is subnormal, so the scalar test
        # decides every pair; at 1e-300 the collinearity band underflows
        for scale in (1.0, 1e-150, 1e-300, 1e150):
            scaled = PolygonalArc(
                tuple((x * scale, y * scale) for x, y in arc.nodes), arc.closed)
            try:
                tol = scaled.tolerance()
            except InvalidArcError:
                with pytest.raises(InvalidArcError, match="float range"):
                    validate_simple(scaled)
                continue
            assert validate_simple(scaled) == _scalar_report(scaled, tol)

    def test_near_tie_goes_to_the_scalar_test(self, monkeypatch):
        # the turn of (0.5, 2.1e-9) about segment 0: |cross| = 2.1e-9 and
        # band = eps_len * max(1, ~0.5); a fresh arc object, so that no
        # report stored by an earlier call is returned unscanned
        arc = PolygonalArc(NEAR_TIE.nodes)
        eps = arc.tolerance().eps_len
        assert eps < 2.1e-9 <= 2 * eps
        seen = []

        def spy(s1, s2, tol):
            seen.append((s1, s2))
            return segments_intersect(s1, s2, tol)

        monkeypatch.setattr(arcio, "segments_intersect", spy)
        assert validate_simple(arc).ok
        assert seen == [(arc.segment(0), arc.segment(3))]

    def test_only_unclear_junctions_go_to_the_scalar_test(self, monkeypatch):
        # the wrap junctions 0 and n-1 of a closed arc are filtered like
        # the others: a right-angle turn is clear, a fold is not
        seen = []

        def spy(a, b, c, tol):
            seen.append(b)
            return orient(a, b, c, tol)

        monkeypatch.setattr(arcio, "orient", spy)
        square = PolygonalArc(((0, 0), (1, 0), (1, 1), (0, 1)), closed=True)
        assert validate_simple(square).ok
        assert seen == []
        folded = PolygonalArc(WRAP_BACKTRACK_FIRST.nodes, closed=True)
        assert not validate_simple(folded).ok
        assert seen == [folded.nodes[0]]

    def test_star_fans(self):
        nodes = star_fan(120, 3)
        simple = PolygonalArc(tuple(nodes))
        report = validate_simple(simple)
        assert report.ok
        assert report == _scalar_report(simple, simple.tolerance())
        nodes[2], nodes[60] = nodes[60], nodes[2]
        crossed = PolygonalArc(tuple(nodes))
        report = validate_simple(crossed)
        assert not report.ok
        assert {v.kind for v in report.violations} == {"segments_cross"}
        assert report == _scalar_report(crossed, crossed.tolerance())


def _near(draw, a, b, eps):
    """A point within 4 eps of the segment from a to b, on either side."""
    t = draw(st.floats(0, 1))
    off = draw(st.floats(-4, 4)) * eps / math.hypot(b[0] - a[0], b[1] - a[1])
    return (a[0] + t * (b[0] - a[0]) - off * (b[1] - a[1]),
            a[1] + t * (b[1] - a[1]) + off * (b[0] - a[0]))


@st.composite
def pushed_fans(draw):
    """Star fans of 6-120 nodes with node k moved to within 4 eps_len of
    the spoke from node k + 1 to node k + 2: dense box overlaps, a near
    touch of segments k - 1 and k + 1, and a near fold at node k + 1."""
    n = draw(st.integers(6, 120))
    nodes = star_fan(n, draw(st.integers(0, 2**16)))
    k = draw(st.integers(0, n - 3))
    eps = DEFAULT_EPS_REL * bbox_diagonal(nodes)
    nodes[k] = _near(draw, nodes[k + 1], nodes[k + 2], eps)
    return PolygonalArc(tuple(nodes))


@st.composite
def long_short_walks(draw):
    """Open or closed walks of 3-30 steps along multiples of 45 degrees,
    each 10**U(-7, 0) long, then a step of 10**U(-7, -1) times the walk's
    size whose end is within 4 eps_len of an earlier segment: very long
    and very short segments lie end to end, side by side, across each
    other and tip to side, where the filter's one bound li + lj + 3 eps
    is loosest."""
    x = y = 0.0
    nodes = [(x, y)]
    for _ in range(draw(st.integers(3, 30))):
        length = 10.0 ** draw(st.floats(-7, 0))
        angle = math.radians(45 * draw(st.integers(0, 7)))
        x, y = x + length * math.cos(angle), y + length * math.sin(angle)
        nodes.append((x, y))
    size = bbox_diagonal(nodes)
    s = draw(st.integers(0, len(nodes) - 2))
    tip = _near(draw, nodes[s], nodes[s + 1], DEFAULT_EPS_REL * size)
    step = size * 10.0 ** draw(st.floats(-7, -1))
    angle = draw(st.floats(0, 2 * math.pi))
    nodes += [(tip[0] + step * math.cos(angle),
               tip[1] + step * math.sin(angle)), tip]
    return PolygonalArc(tuple(nodes), closed=draw(st.booleans()))


# segments 0 and 2 lie end to end on one diagonal, 0.9 eps_len apart in x
# and y, so that their grown boxes barely overlap and the arm from node 0
# to node 3 is li + lj + 1.27 eps_len long
_GAP = 0.9 * DEFAULT_EPS_REL * math.hypot(2, 2)
END_TO_END = PolygonalArc(((0, 0), (1, 1), (1 + _GAP, 1 + _GAP), (2, 2)))


# the short segment 3 ends 5e-9 (about eps_len / 2) left of the long
# segment 0, which is about 100 times longer: a touch whose turn about
# segment 0 clears any bound that leaves out segment 0's length, with
# segment 3 first in x-min order, and in the mirror image second
TIP_TO_SIDE = PolygonalArc(((0.5, -0.5), (0.5, 10), (0, 10), (0.4, 0),
                            (0.5 - 5e-9, 0)))
TIP_TO_SIDE_MIRRORED = PolygonalArc(
    tuple((-x, y) for x, y in TIP_TO_SIDE.nodes))


class TestPairFilterSoundness:
    """The float filter's one bound per pair never clears a pair that the
    scalar test flags."""

    @settings(max_examples=150, deadline=None)
    @example(arc=END_TO_END)
    @example(arc=TIP_TO_SIDE)
    @example(arc=TIP_TO_SIDE_MIRRORED)
    @example(arc=NEAR_TIE)
    @given(arc=st.one_of(pushed_fans(), long_short_walks(),
                         jittered_grid_arcs()))
    def test_flagged_pairs_are_suspects(self, arc):
        tol = arc.tolerance()
        start, end = _segment_ends(_node_array(arc), arc.segment_count())
        length = np.hypot(end[:, 0] - start[:, 0], end[:, 1] - start[:, 1])
        suspects = _suspect_pairs(start, end, length,
                                  _filter_band(tol.eps_len, length),
                                  tol.eps_len, arc.closed)
        assert suspects == sorted(set(suspects))
        assert set(_intersecting_pairs(arc, tol)) <= set(suspects)
        assert validate_simple(arc) == _scalar_report(arc, tol)

    @pytest.mark.parametrize("arc, pair", [
        (END_TO_END, (0, 2)), (TIP_TO_SIDE, (0, 3)),
        (TIP_TO_SIDE_MIRRORED, (0, 3))])
    def test_near_touches_are_found(self, arc, pair):
        report = validate_simple(arc)
        assert [(v.kind, v.indices) for v in report.violations] == [
            ("segments_cross", pair)]


class TestValidationCache:
    """validate_simple keeps the report of the last arc object it scanned,
    with the tolerance it scanned at."""

    @pytest.fixture
    def scans(self, monkeypatch):
        seen = []
        scan = arcio._scan_simple

        def spy(arc, tol):
            seen.append(arc)
            return scan(arc, tol)

        monkeypatch.setattr(arcio, "_scan_simple", spy)
        return seen

    def test_generated_arc_is_scanned_once(self, scans):
        arc = generate_arc(20, 5, "uncross")
        analyze_arc(arc)
        assert [a for a in scans if a is arc] == [arc]

    def test_other_tolerance_scans_again(self, scans):
        arc = PolygonalArc(((0, 0), (1, 0), (1, 1)))
        tol = arc.tolerance()
        validate_simple(arc)
        validate_simple(arc, Tolerance(tol.eps_len))    # equal: stored
        assert scans == [arc]
        validate_simple(arc, Tolerance(2 * tol.eps_len))
        assert scans == [arc, arc]

    def test_equal_arc_object_scans_again(self, scans):
        arc = PolygonalArc(((0, 0), (1, 0), (1, 1)))
        twin = PolygonalArc(arc.nodes)
        assert twin == arc and twin is not arc
        validate_simple(arc)
        validate_simple(twin)
        assert len(scans) == 2 and scans[1] is twin

    def test_stored_report_equals_a_fresh_scan(self, scans):
        arc = PolygonalArc(((0, 0), (2, 2), (2, 0), (0, 2)))
        report = validate_simple(arc)
        assert validate_simple(arc) is report and scans == [arc]
        assert not report.ok
        assert report == arcio._scan_simple(arc, arc.tolerance())

    def test_closed_solve_scans_the_star_polygon_once(self, scans):
        arc = random_star_polygon(12, 4)
        solve_closed(arc)
        assert [a for a in scans if a is arc] == [arc]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-100, 100, allow_nan=False),
                          st.floats(-100, 100, allow_nan=False)),
                min_size=2, max_size=12))
def test_serialize_parse_round_trip_property(coords):
    try:
        arc = PolygonalArc(tuple(coords))
    except InvalidArcError:
        return
    again = parse_arc(_arc_json(arc))
    assert again.nodes == arc.nodes


def test_json_float_round_trip_is_exact():
    value = 0.1 + 0.2  # 0.30000000000000004
    arc = PolygonalArc(((value, -value), (1e300, 5e-324)))
    again = parse_arc(_arc_json(arc))
    assert again.nodes[0].x == value
    assert again.nodes[1].y == 5e-324
