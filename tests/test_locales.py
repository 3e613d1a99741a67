"""Tests for the locale decomposition and the tilt/span table.

Expected tilts are computed inline from atan2 so the checks are independent
of the angle helpers under test.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from helpers import interior_angle, jittered_grid_nodes

from arcsupport.arcgen import STRATEGIES, generate_arc
from arcsupport.arcio import PolygonalArc
from arcsupport.errors import (DegenerateHullError, InvalidArcError,
                               StructuralViolationError)
from arcsupport.guidepath import build_guide_path
from arcsupport.hull import convex_hull
from arcsupport.locales import TiltTable, decompose_locales, tilt_table
from arcsupport.solver import analyze_arc

DEG_ATAN_1_1 = math.degrees(math.atan2(1, 1))   # 45
DEG_ATAN_1_2 = math.degrees(math.atan2(1, 2))   # 26.565...


def _decompose(arc):
    return decompose_locales(build_guide_path(convex_hull(arc.nodes)))


class TestPentagonLocales:
    def test_three_locales(self, pentagon_arc):
        decomp = _decompose(pentagon_arc)
        assert decomp.count == 3
        hull = decomp.guide.hull

        def nodes(hs):
            return tuple(hull.node_ids[h] for h in hs)

        assert [nodes(loc.base) for loc in decomp.locales] == [
            (0, 2), (1, 3), (2, 4)]
        assert [nodes(loc.cap) for loc in decomp.locales] == [
            (1,), (2,), (3,)]
        assert [loc.base_side for loc in decomp.locales] == [
            "lower", "upper", "lower"]
        assert [loc.cap_sign for loc in decomp.locales] == [1, -1, 1]
        assert [loc.index for loc in decomp.locales] == [1, 2, 3]

    def test_tilts_and_spans(self, pentagon_arc):
        table = tilt_table(_decompose(pentagon_arc))
        assert table.tilts == pytest.approx(
            (DEG_ATAN_1_1, -DEG_ATAN_1_2, 0.0, DEG_ATAN_1_2, -DEG_ATAN_1_1),
            abs=1e-12)
        assert table.spans == pytest.approx(
            (-DEG_ATAN_1_1, 2 * DEG_ATAN_1_2, -DEG_ATAN_1_1), abs=1e-12)

    def test_table(self, pentagon_arc):
        table = tilt_table(_decompose(pentagon_arc))
        assert len(table.spans) == 3
        assert table.phi_left == pytest.approx(DEG_ATAN_1_1 + DEG_ATAN_1_2,
                                               abs=1e-12)
        assert table.phi_right == pytest.approx(-(DEG_ATAN_1_1 + DEG_ATAN_1_2),
                                                abs=1e-12)
        assert table.delta_total == pytest.approx(
            2 * DEG_ATAN_1_1 + 2 * DEG_ATAN_1_2, abs=1e-12)


class TestSingleLocale:
    def test_square_cup(self, square_arc):
        decomp = _decompose(square_arc)
        assert decomp.count == 1
        loc = decomp.locales[0]
        hull = decomp.guide.hull
        assert (hull.node_ids[loc.base[0]], hull.node_ids[loc.base[1]]) == (0, 3)
        assert tuple(hull.node_ids[h] for h in loc.cap) == (1, 2)
        assert loc.base_side == "lower"

        table = tilt_table(decomp)
        assert table.tilts == pytest.approx((90.0, 0.0, -90.0), abs=1e-12)
        # The zero tilt must be a clean +0.0 even though sigma is -1.
        assert math.copysign(1.0, table.tilts[1]) == 1.0
        assert table.spans == pytest.approx((-180.0,), abs=1e-12)
        assert table.phi_left == pytest.approx(90.0)
        assert table.phi_right == pytest.approx(-90.0)

    def test_triangle(self, triangle_arc):
        table = tilt_table(_decompose(triangle_arc))
        assert table.tilts == pytest.approx((45.0, 0.0, -45.0), abs=1e-12)
        assert table.spans == pytest.approx((-90.0,), abs=1e-12)


class TestReferenceTable:
    def test_spans_and_aspects(self, reference_tilts):
        table = TiltTable.from_tilts(reference_tilts)
        t = reference_tilts
        expected_spans = tuple(t[j + 1] - t[j - 1] for j in range(1, 7))
        assert table.spans == pytest.approx(expected_spans, abs=1e-12)
        assert table.phi_left == pytest.approx(t[0] - t[1], abs=1e-12)
        # Six locales: the right aspect reads the last pair in even order.
        assert table.phi_right == pytest.approx(t[6] - t[7], abs=1e-12)
        assert table.delta_total == pytest.approx(
            sum(abs(s) for s in expected_spans), abs=1e-12)


class TestTableValidation:
    def test_too_few_tilts(self):
        with pytest.raises(StructuralViolationError):
            TiltTable.from_tilts((10.0, 5.0))

    def test_even_chain_must_decrease(self):
        with pytest.raises(StructuralViolationError):
            TiltTable.from_tilts((10.0, -5.0, 20.0))

    def test_odd_chain_must_increase(self):
        with pytest.raises(StructuralViolationError):
            TiltTable.from_tilts((50.0, -5.0, 30.0, -10.0, 20.0))

    def test_left_aspect_range(self):
        with pytest.raises(StructuralViolationError):
            TiltTable.from_tilts((100.0, -90.0, 95.0))

    def test_right_aspect_range(self):
        with pytest.raises(StructuralViolationError):
            TiltTable.from_tilts((50.0, 40.0, 45.0))


class TestAspectAnglesAreHullAngles:
    """The aspect angles equal the hull's interior angles at the two arc
    endpoints, computed from the hull's points."""

    def test_pentagon(self, pentagon_arc):
        hull = convex_hull(pentagon_arc.nodes)
        guide = build_guide_path(hull)
        table = tilt_table(decompose_locales(guide))
        assert table.phi_left == pytest.approx(
            interior_angle(hull, guide.head), abs=1e-9)
        assert -table.phi_right == pytest.approx(
            interior_angle(hull, guide.tail), abs=1e-9)

    def test_fuzzed(self):
        for i in range(40):
            arc = generate_arc(5 + i % 16, seed=7000 + i,
                               strategy="uncross" if i % 2 else "zigzag")
            hull = convex_hull(arc.nodes)
            guide = build_guide_path(hull)
            table = tilt_table(decompose_locales(guide))
            assert table.phi_left == pytest.approx(
                interior_angle(hull, guide.head), abs=1e-6)
            assert -table.phi_right == pytest.approx(
                interior_angle(hull, guide.tail), abs=1e-6)


class TestReversal:
    def test_aspect_angles_swap(self):
        nodes = ((0, 0), (1, 1.5), (2, -1), (3, 1), (4, 0))
        fwd = tilt_table(_decompose(PolygonalArc(nodes)))
        rev = tilt_table(_decompose(PolygonalArc(nodes[::-1])))
        assert rev.phi_left == pytest.approx(-fwd.phi_right, abs=1e-9)
        assert rev.phi_right == pytest.approx(-fwd.phi_left, abs=1e-9)
        assert rev.delta_total == pytest.approx(fwd.delta_total, abs=1e-9)
        assert len(rev.spans) == len(fwd.spans)


class TestFuzzedInvariants:
    def test_chains_alternation_and_total(self):
        for i in range(50):
            arc = generate_arc(5 + (i * 7) % 40, seed=5000 + i,
                               strategy="zigzag" if i % 3 == 0 else "uncross")
            table = tilt_table(_decompose(arc))
            t = table.tilts
            evens, odds = t[0::2], t[1::2]
            assert all(a > b for a, b in zip(evens, evens[1:]))
            assert all(a < b for a, b in zip(odds, odds[1:]))
            for j, span in enumerate(table.spans, start=1):
                assert (span < 0) if j % 2 == 1 else (span > 0)
            assert abs(table.delta_total
                       - (table.phi_left - table.phi_right)) <= 1e-9
            assert table.delta_total < 360.0 + 1e-7


class TestBasesAreTheUnwalkedEdges:
    """The bases read off the visit ranks equal the hull edges missing
    from the guide path's edge links, oriented and ordered by visit."""

    @staticmethod
    def _check(decomp):
        guide = decomp.guide
        k = len(guide.hull)
        rank = {h: r for r, h in enumerate(guide.visit)}
        walked = {frozenset((l.start, l.end))
                  for l in guide.links if l.kind == "edge"}
        bases = [tuple(sorted((i, (i + 1) % k), key=lambda h: rank[h]))
                 for i in range(k)
                 if frozenset((i, (i + 1) % k)) not in walked]
        bases.sort(key=lambda b: rank[b[0]])
        assert [loc.base for loc in decomp.locales] == bases
        # what the construction guarantees without a check of its own
        crossings = sum(1 for l in guide.links if l.kind == "crossing")
        assert len(bases) == crossings + 1
        assert bases[0][0] == guide.head
        assert guide.sides[guide.head] == guide.sides[guide.tail] == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_generated_arcs(self, strategy):
        for n in range(5, 51):
            arc = generate_arc(n, 31000 + n, strategy)
            self._check(analyze_arc(arc).decomposition)

    @settings(max_examples=200, deadline=None)
    @given(jittered_grid_nodes())
    def test_jittered_grid_arcs(self, nodes):
        try:
            analysis = analyze_arc(PolygonalArc(nodes))
        except (InvalidArcError, DegenerateHullError):
            return
        self._check(analysis.decomposition)
