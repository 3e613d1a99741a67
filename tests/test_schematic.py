"""Tests for the strip diagram and angle queries.

Profile values and query positions are recomputed inline from the tilt
tuples (plain arithmetic) rather than through the diagram's own helpers.
"""

from __future__ import annotations

import math

import pytest

from arcsupport.arcgen import STRATEGIES, generate_arc
from arcsupport.geom import DEFAULT_EPS_ANGLE
from arcsupport.guidepath import build_guide_path
from arcsupport.hull import convex_hull
from arcsupport.locales import TiltTable, decompose_locales, tilt_table
from arcsupport.schematic import build_schematic, query_angle
from arcsupport.solver import analyze_arc

DEG_ATAN_1_1 = math.degrees(math.atan2(1, 1))
DEG_ATAN_1_2 = math.degrees(math.atan2(1, 2))


def _pentagon_diagram(arc):
    return build_schematic(
        tilt_table(decompose_locales(build_guide_path(convex_hull(arc.nodes)))))


class TestStripLayout:
    def test_pentagon_strips(self, pentagon_arc):
        d = _pentagon_diagram(pentagon_arc)
        assert len(d.strips) == 3
        widths = [s.x_right - s.x_left for s in d.strips]
        assert widths == pytest.approx(
            [DEG_ATAN_1_1, 2 * DEG_ATAN_1_2, DEG_ATAN_1_1], abs=1e-12)
        assert d.strips[0].x_left == 0.0
        for a, b in zip(d.strips, d.strips[1:]):
            assert b.x_left == pytest.approx(a.x_right, abs=1e-12)
        assert d.width == pytest.approx(2 * DEG_ATAN_1_1 + 2 * DEG_ATAN_1_2,
                                        abs=1e-12)

    def test_strip_at_half_open(self, pentagon_arc):
        d = _pentagon_diagram(pentagon_arc)
        edge = d.strips[0].x_right
        assert d.strip_at(edge - 1e-9).index == 1
        assert d.strip_at(edge).index == 2          # half-open on the right
        assert d.strip_at(d.width).index == 3       # last strip closed
        assert d.strip_at(-5.0).index == 1          # clamped
        assert d.strip_at(d.width + 5.0).index == 3

    def test_crossing(self, pentagon_arc):
        d = _pentagon_diagram(pentagon_arc)
        x = d.table.phi_left
        assert x == pytest.approx(DEG_ATAN_1_1 + DEG_ATAN_1_2, abs=1e-12)
        assert d.strip_at(x).index == 2


class TestProfiles:
    def test_pentagon_profile_values(self, pentagon_arc):
        d = _pentagon_diagram(pentagon_arc)
        t0, t1, t2, t3 = DEG_ATAN_1_1, -DEG_ATAN_1_2, 0.0, DEG_ATAN_1_2
        # Upper profile: falls on odd strips, holds the even tilt.
        assert d.upper_value(0.0) == pytest.approx(t0, abs=1e-12)
        assert d.upper_value(20.0) == pytest.approx(t0 - 20.0, abs=1e-12)
        assert d.upper_value(70.0) == pytest.approx(t2, abs=1e-12)
        # Lower profile: holds the odd tilt, rises on even strips.
        assert d.lower_value(0.0) == pytest.approx(t1, abs=1e-12)
        assert d.lower_value(20.0) == pytest.approx(t1, abs=1e-12)
        x_left2 = DEG_ATAN_1_1
        assert d.lower_value(70.0) == pytest.approx(t1 + (70.0 - x_left2),
                                                    abs=1e-12)
        # Third strip: upper falls from tilt 2, lower holds tilt 3.
        x_left3 = DEG_ATAN_1_1 + 2 * DEG_ATAN_1_2
        x = x_left3 + 10.0
        assert d.upper_value(x) == pytest.approx(t2 - 10.0, abs=1e-12)
        assert d.lower_value(x) == pytest.approx(t3, abs=1e-12)

    def test_gap_is_linear(self, pentagon_arc):
        d = _pentagon_diagram(pentagon_arc)
        phi_left = DEG_ATAN_1_1 + DEG_ATAN_1_2
        for x in (0.0, 13.7, 45.0, 71.0, 99.5, d.width):
            gap = d.upper_value(x) - d.lower_value(x)
            assert gap == pytest.approx(phi_left - x, abs=1e-9)

    def test_profiles_continuous_at_strip_edges(self, reference_tilts):
        d = build_schematic(TiltTable.from_tilts(reference_tilts))
        for strip in d.strips[:-1]:
            e = strip.x_right
            for f in (d.upper_value, d.lower_value):
                assert f(e - 1e-9) == pytest.approx(f(e), abs=1e-6)


class TestQueryPentagon:
    def test_parallel(self, pentagon_arc):
        q = query_angle(_pentagon_diagram(pentagon_arc), 0.0)
        assert q.case == "A"
        assert len(q.solutions) == 1
        sol = q.solutions[0]
        assert sol.ordinate == 0.0
        assert sol.abscissa == pytest.approx(DEG_ATAN_1_1 + DEG_ATAN_1_2,
                                             abs=1e-12)
        assert sol.locale_index == 2
        assert sol.contact_angle == pytest.approx(0.0, abs=1e-12)

    def test_thirty_degrees(self, pentagon_arc):
        q = query_angle(_pentagon_diagram(pentagon_arc), 30.0)
        assert q.case == "B"
        assert len(q.solutions) == 2
        phi_left = DEG_ATAN_1_1 + DEG_ATAN_1_2
        first, second = q.solutions
        assert first.ordinate == 30.0
        assert first.abscissa == pytest.approx(phi_left - 30.0, abs=1e-12)
        assert first.locale_index == 1
        assert first.contact_angle == pytest.approx(-DEG_ATAN_1_2 + 30.0,
                                                    abs=1e-12)
        assert second.ordinate == -30.0
        assert second.abscissa == pytest.approx(phi_left + 30.0, abs=1e-12)
        assert second.locale_index == 3
        assert second.contact_angle == pytest.approx(DEG_ATAN_1_2 - 30.0,
                                                     abs=1e-12)

    def test_at_aspect_angle(self, pentagon_arc):
        phi = DEG_ATAN_1_1 + DEG_ATAN_1_2
        q = query_angle(_pentagon_diagram(pentagon_arc), phi)
        assert q.case == "B"
        xs = [s.abscissa for s in q.solutions]
        assert xs[0] == pytest.approx(0.0, abs=1e-12)
        assert xs[1] == pytest.approx(2 * phi, abs=1e-12)

    def test_at_coincidence_angle(self, pentagon_arc):
        # Both query rails land exactly on strip boundaries; the half-open
        # convention assigns each to the later strip.
        q = query_angle(_pentagon_diagram(pentagon_arc), DEG_ATAN_1_2)
        assert q.case == "B"
        assert [s.locale_index for s in q.solutions] == [2, 3]

    def test_too_wide(self, pentagon_arc):
        q = query_angle(_pentagon_diagram(pentagon_arc), 100.0)
        assert q.case == "D"
        assert q.solutions == ()

    def test_just_beyond_aspect(self, pentagon_arc):
        phi_left = DEG_ATAN_1_1 + DEG_ATAN_1_2
        assert query_angle(_pentagon_diagram(pentagon_arc),
                           phi_left + 1e-6).case == "D"
        assert query_angle(_pentagon_diagram(pentagon_arc),
                           phi_left - 1e-6).case == "B"

    def test_rejects_out_of_range(self, pentagon_arc):
        d = _pentagon_diagram(pentagon_arc)
        for phi in (-1.0, 180.0, 270.0):
            with pytest.raises(ValueError):
                query_angle(d, phi)


class TestQueryReferenceTable:
    """Queries against the frozen six-locale table."""

    @pytest.fixture
    def diagram(self, reference_tilts):
        return build_schematic(TiltTable.from_tilts(reference_tilts))

    def test_cumulative_edges(self, diagram):
        rights = [s.x_right for s in diagram.strips]
        assert rights == pytest.approx(
            [48.06, 124.38, 173.98, 192.71, 229.82, 271.57], abs=1e-9)

    def test_crossing_in_strip_3(self, diagram):
        x = diagram.table.phi_left
        assert x == pytest.approx(143.74, abs=1e-9)
        assert diagram.strip_at(x).index == 3

    def test_query_40(self, diagram):
        q = query_angle(diagram, 40.0)
        assert q.case == "B"
        assert [s.locale_index for s in q.solutions] == [2, 4]
        assert [s.abscissa for s in q.solutions] == pytest.approx(
            [103.74, 183.74], abs=1e-9)

    def test_query_135(self, diagram):
        q = query_angle(diagram, 135.0)
        assert q.case == "C"
        assert len(q.solutions) == 1
        assert q.solutions[0].abscissa == pytest.approx(8.74, abs=1e-9)
        assert q.solutions[0].locale_index == 1

    def test_query_150(self, diagram):
        q = query_angle(diagram, 150.0)
        assert q.case == "D"
        assert q.solutions == ()

    def test_case_thresholds(self, diagram):
        lo, hi = 127.83, 143.74
        assert query_angle(diagram, lo - 1e-6).case == "B"
        assert query_angle(diagram, lo).case == "B"        # within eps slack
        assert query_angle(diagram, lo + 1e-6).case == "C"
        assert query_angle(diagram, hi - 1e-6).case == "C"
        assert query_angle(diagram, hi).case == "C"
        assert query_angle(diagram, hi + 1e-6).case == "D"


def _threshold_case(table, phi):
    """The case read off the aspect angles alone, without solving."""
    lo = min(table.phi_left, -table.phi_right)
    hi = max(table.phi_left, -table.phi_right)
    if phi == 0.0:
        return "A"
    if phi <= lo + DEFAULT_EPS_ANGLE:
        return "B"
    if phi <= hi + DEFAULT_EPS_ANGLE:
        return "C"
    return "D"


def _probe_angles(table):
    """0 and each threshold, nudged by the angle band, 1e-6 and one ulp."""
    phis = [0.0]
    for t in (table.phi_left, -table.phi_right):
        phis.append(t)
        for d in (DEFAULT_EPS_ANGLE, 1e-6):
            phis += [t - d, t + d]
        phis += [math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        phis += [math.nextafter(t + DEFAULT_EPS_ANGLE, s)
                 for s in (-math.inf, math.inf)]
    return [phi for phi in phis if 0.0 <= phi < 180.0]


class TestCaseIsTheSolutionCount:
    """The case read off the solutions equals the case read off the
    thresholds, right at the float edges of the angle band."""

    @staticmethod
    def _check(table):
        diagram = build_schematic(table)
        for phi in _probe_angles(table):
            q = query_angle(diagram, phi)
            assert q.case == _threshold_case(table, phi), phi
            assert len(q.solutions) == {"A": 1, "B": 2, "C": 1, "D": 0}[q.case]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_generated_arcs(self, strategy):
        for n in range(5, 51):
            self._check(analyze_arc(generate_arc(n, 31000 + n, strategy)).table)

    def test_reference_table(self, reference_tilts):
        self._check(TiltTable.from_tilts(reference_tilts))
