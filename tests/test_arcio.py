"""Tests for the arc data model, parsers, and simplicity validation."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from arcsupport import arcio
from arcsupport.arcio import (
    PolygonalArc,
    ValidationReport,
    Violation,
    _candidate_pairs,
    _node_array,
    _segment_ends,
    is_segment_arc,
    load_arc,
    parse_arc,
    serialize_arc,
    validate_simple,
)
from arcsupport.errors import InvalidArcError, ParseError
from arcsupport.geom import (DEFAULT_EPS_ANGLE, DEFAULT_EPS_REL, Point,
                             Tolerance, dist, orient, segments_intersect)


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

    def test_tolerance_for_diagonal(self):
        tol = PolygonalArc(((0, 0), (60, 80))).tolerance()    # diagonal 100
        assert tol.eps_len == pytest.approx(100.0 * DEFAULT_EPS_REL)
        assert tol.eps_angle == DEFAULT_EPS_ANGLE

    def test_tolerance_zero_diagonal_falls_back(self):
        tol = PolygonalArc(((1, 2), (1, 2))).tolerance()
        assert tol.eps_len > 0.0

    def test_tolerance_rejects_bad_inputs(self):
        arc = PolygonalArc(((0, 0), (60, 80)))
        with pytest.raises(ValueError):
            arc.tolerance(eps_angle=0.0)
        with pytest.raises(ValueError):
            arc.tolerance(eps_angle=-1.0)

    @pytest.mark.parametrize("bad, eps_len, eps_angle", [
        ("eps_len", -1.0, DEFAULT_EPS_ANGLE), ("eps_len", 0.0, DEFAULT_EPS_ANGLE),
        ("eps_len", math.nan, DEFAULT_EPS_ANGLE),
        ("eps_len", math.inf, DEFAULT_EPS_ANGLE),
        ("eps_angle", 1e-6, 0.0), ("eps_angle", 1e-6, -5.0),
        ("eps_angle", 1e-6, math.nan), ("eps_angle", 1e-6, math.inf),
        ("eps_angle", None, math.nan)])
    def test_explicit_tolerance_checked_like_the_flags(self, bad, eps_len,
                                                       eps_angle):
        arc = PolygonalArc(((0, 0), (60, 80)))
        with pytest.raises(ValueError,
                           match=f"^{bad} must be a finite number > 0, got"):
            arc.tolerance(eps_len, eps_angle)

    def test_tolerance_scales_with_diagonal(self):
        small = PolygonalArc(((0, 0), (1, 1))).tolerance()
        big = PolygonalArc(((0, 0), (1000, 1000))).tolerance()
        assert big.eps_len == pytest.approx(1000 * small.eps_len)
        assert small.eps_angle == DEFAULT_EPS_ANGLE
        arc = PolygonalArc(((0, 0), (1, 1)))
        assert arc.tolerance(eps_angle=1e-3) == Tolerance(small.eps_len, 1e-3)
        assert arc.tolerance(1e-6, 1e-3) == Tolerance(1e-6, 1e-3)

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
                        assert orient(a, b, c, tol) == orient(a, b, c)


class TestJsonParsing:
    def test_round_trip(self):
        arc = PolygonalArc(((0.1, -2.25), (1e-17, 3.5), (7, 0.30000000000000004)))
        again = parse_arc(serialize_arc(arc))
        assert again.nodes == arc.nodes
        assert again.closed == arc.closed

    def test_round_trip_closed(self):
        arc = PolygonalArc(((0, 0), (2, 0), (1, 2)), closed=True)
        again = parse_arc(serialize_arc(arc))
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

    def test_explicit_format_overrides(self, tmp_path):
        p = tmp_path / "arc.txt"
        p.write_text("0,0\n1,1\n")
        assert len(load_arc(str(p), fmt="csv")) == 2


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


class TestValidateSimple:
    def test_pentagon_ok(self, pentagon_arc):
        report = validate_simple(pentagon_arc)
        assert report.ok and bool(report) and report.violations == ()

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


class TestCandidatePrefilter:
    """The bbox prefilter must never drop a truly intersecting pair."""

    def _all_pairs(self, arc, tol):
        m = arc.segment_count()
        n = len(arc)
        found = []
        for i in range(m):
            for j in range(i + 2, m):
                if arc.closed and i == 0 and j == m - 1:
                    continue
                if segments_intersect(arc.segment(i), arc.segment(j), tol):
                    found.append((i, j))
        return found

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
            reference = self._all_pairs(arc, tol)
            candidates = {pair for i, j in _candidate_pairs(
                              *_segment_ends(_node_array(arc), arc.segment_count()),
                              tol.eps_len, arc.closed)
                          for pair in zip(i.tolist(), j.tolist())}
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


def _star_fan(n, rng):
    """Radius alternating 1 and about 0.05 over 0.95 of a turn, with polar
    angles strictly increasing: simple, with dense overlapping boxes."""
    step = 0.95 * 2.0 * math.pi / (n - 1)
    nodes = []
    for k in range(n):
        theta = (k + rng.uniform(-0.25, 0.25)) * step
        radius = 1.0 if k % 2 == 0 else 0.05 * rng.uniform(0.9, 1.1)
        nodes.append((radius * math.cos(theta), radius * math.sin(theta)))
    return nodes


# Segment 3 ends 2.1e-9 above segment 0, with eps_len = 1e-9 * sqrt(2): the
# turn's |cross| lies between the band and twice the band, so the float
# filter cannot rule the pair out and the scalar test must.
NEAR_TIE = PolygonalArc(((0, 0), (1, 0), (1, 1), (0.5, 1), (0.5, 2.1e-9)))


class TestBatchedValidation:
    """validate_simple's NumPy filter reports exactly what the scalar
    predicates report on every pair."""

    @settings(max_examples=200, deadline=None)
    @example(arc=NEAR_TIE)
    @given(arc=jittered_grid_arcs())
    def test_matches_scalar_reference(self, arc):
        for scale in (1.0, 1e-300, 1e150):
            scaled = PolygonalArc(
                tuple((x * scale, y * scale) for x, y in arc.nodes), arc.closed)
            assert validate_simple(scaled) == _scalar_report(
                scaled, scaled.tolerance())

    def test_near_tie_goes_to_the_scalar_test(self, monkeypatch):
        # the turn of (0.5, 2.1e-9) about segment 0: |cross| = 2.1e-9 and
        # band = eps_len * max(1, ~0.5)
        eps = NEAR_TIE.tolerance().eps_len
        assert eps < 2.1e-9 <= 2 * eps
        seen = []

        def spy(s1, s2, tol):
            seen.append((s1, s2))
            return segments_intersect(s1, s2, tol)

        monkeypatch.setattr(arcio, "segments_intersect", spy)
        assert validate_simple(NEAR_TIE).ok
        assert seen == [(NEAR_TIE.segment(0), NEAR_TIE.segment(3))]

    def test_star_fans(self):
        nodes = _star_fan(120, random.Random(3))
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-100, 100, allow_nan=False),
                          st.floats(-100, 100, allow_nan=False)),
                min_size=2, max_size=12))
def test_serialize_parse_round_trip_property(coords):
    try:
        arc = PolygonalArc(tuple(coords))
    except InvalidArcError:
        return
    again = parse_arc(serialize_arc(arc))
    assert again.nodes == arc.nodes


def test_json_float_round_trip_is_exact():
    value = 0.1 + 0.2  # 0.30000000000000004
    arc = PolygonalArc(((value, -value), (1e300, 5e-324)))
    again = parse_arc(serialize_arc(arc))
    assert again.nodes[0].x == value
    assert again.nodes[1].y == 5e-324
