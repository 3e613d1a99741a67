"""Tests for deterministic SVG rendering."""

from __future__ import annotations

import math
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from arcsupport import svg
from arcsupport.arcgen import generate_arc
from arcsupport.arcio import PolygonalArc
from arcsupport.geom import Line, Point
from arcsupport.locales import TiltTable
from arcsupport.schematic import build_schematic, query_angle
from arcsupport.solver import analyze_arc, solve_at_angle
from arcsupport.svg import (
    _fmt,
    clip_line_to_box,
    render_scene,
    render_scene_for,
    render_schematic,
)

NUM = r"(-?\d+\.\d{6})"


def _delta_endpoints(svg_text):
    m = re.search(r'<polyline class="delta-profile" points="([^"]+)"', svg_text)
    assert m is not None
    pts = []
    for token in m.group(1).split():
        xs, ys = token.split(",")
        pts.append((float(xs), -float(ys)))    # undo the y negation
    return pts


class TestDeterminism:
    def test_scene_bytes_stable(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        solution = solve_at_angle(analysis, 30.0)
        a = render_scene_for(analysis, solution)
        b = render_scene_for(analyze_arc(pentagon_arc),
                             solve_at_angle(analyze_arc(pentagon_arc), 30.0))
        assert a == b

    def test_schematic_bytes_stable(self, reference_tilts):
        d1 = build_schematic(TiltTable.from_tilts(reference_tilts))
        d2 = build_schematic(TiltTable.from_tilts(reference_tilts))
        assert render_schematic(d1, query_angle(d1, 40.0)) == \
            render_schematic(d2, query_angle(d2, 40.0))


class TestWellFormed:
    def test_parses_as_xml(self, pentagon_arc, reference_tilts):
        analysis = analyze_arc(pentagon_arc)
        scene = render_scene_for(analysis, solve_at_angle(analysis, 30.0))
        ET.fromstring(scene)
        diagram = build_schematic(TiltTable.from_tilts(reference_tilts))
        ET.fromstring(render_schematic(diagram, query_angle(diagram, 40.0)))

    def test_number_format_six_decimals(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        svg = render_scene_for(analysis, solve_at_angle(analysis, 30.0))
        for attr_val in re.findall(r'(?:x1|y1|x2|y2|cx|cy|r)="([^"]+)"', svg):
            assert re.fullmatch(NUM, attr_val), attr_val
        for points in re.findall(r'points="([^"]+)"', svg):
            for token in points.split():
                assert re.fullmatch(NUM + "," + NUM, token), token

    def test_no_negative_zero(self, pentagon_arc, triangle_arc):
        for arc in (pentagon_arc, triangle_arc):
            analysis = analyze_arc(arc)
            svg = render_scene_for(analysis, solve_at_angle(analysis, 0.0))
            assert "-0.000000" not in svg


def _round_fmt(v: float) -> str:
    """The six-decimal rule as first written: round, then drop the sign
    of a zero."""
    r = round(v, 6)
    if r == 0:
        r = 0.0
    return f"{r:.6f}"


class TestNumberFormat:
    EDGES = (0.0, -0.0, 2.5e-7, -2.5e-7, 5e-7, -5e-7, 4.9999999e-7,
             -4.9999999e-7, 0.0078125, -0.0078125, 0.5, 1.0000005, 2.0000025,
             1e300, -1e300, 1e16 + 0.5, 123456789012.1234567, math.inf,
             -math.inf, math.nan, 5e-324, -5e-324)

    def test_edge_values_match_round(self):
        values = [w for v in self.EDGES
                  for w in (v, math.nextafter(v, math.inf),
                            math.nextafter(v, -math.inf))]
        for v in values:
            assert _fmt(v) == _round_fmt(v), v

    def test_random_values_match_round(self):
        rng = random.Random(15)
        for _ in range(20000):
            v = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-9.0, 12.0)
            assert _fmt(v) == _round_fmt(v), v
        for _ in range(5000):   # odd multiples of 2**-7: exact ties
            v = (2 * rng.randrange(-10**9, 10**9) + 1) / 128
            assert _fmt(v) == _round_fmt(v), v


class TestSceneContent:
    def test_view_box(self, pentagon_arc):
        svg = render_scene(pentagon_arc)
        m = re.search(r'viewBox="([^"]+)"', svg)
        vals = [float(v) for v in m.group(1).split()]
        diag = math.hypot(4.0, 2.0)
        pad = 0.05 * diag
        assert vals[0] == pytest.approx(-pad, abs=1e-6)
        assert vals[1] == pytest.approx(-(1.0 + pad), abs=1e-6)
        assert vals[2] == pytest.approx(4.0 + 2 * pad, abs=1e-6)
        assert vals[3] == pytest.approx(2.0 + 2 * pad, abs=1e-6)

    def test_layers_present(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        svg = render_scene_for(analysis, solve_at_angle(analysis, 30.0))
        for cls in ("arc", "node", "hull", "guide", "axis",
                    "m-line", "n-line", "contact-m", "contact-n"):
            assert f'class="{cls}"' in svg

    def test_bare_scene_has_no_hull_layers(self, pentagon_arc):
        svg = render_scene(pentagon_arc)
        assert 'class="arc"' in svg
        for cls in ("hull", "guide", "axis", "m-line"):
            assert f'class="{cls}"' not in svg

    def test_apex_marker_only_inside_view(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        # At 30 degrees both apexes fall outside the padded box.
        far = render_scene_for(analysis, solve_at_angle(analysis, 30.0))
        assert 'class="apex"' not in far
        # At the left aspect angle they sit exactly on head and tail.
        phi = analysis.table.phi_left
        near = render_scene_for(analysis, solve_at_angle(analysis, phi))
        assert near.count('class="apex"') == 2

    def test_node_count(self, pentagon_arc):
        svg = render_scene(pentagon_arc)
        assert svg.count('class="node"') == len(pentagon_arc)


def _per_number_arc_and_nodes(nodes, r):
    """The arc polyline and node dots written one number at a time, as
    _polyline and _circle write them."""
    pts = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in nodes)
    dots = "".join(f'<circle class="node" cx="{_fmt(x)}" cy="{_fmt(-y)}" '
                   f'r="{_fmt(r)}"/>\n' for x, y in nodes)
    return f'<polyline class="arc" points="{pts}"/>\n' + dots


class TestSceneWriter:
    """render_scene's one-format arc and node writer against the
    per-number one."""

    @staticmethod
    def _both(monkeypatch, render):
        fast = render()
        with monkeypatch.context() as m:
            m.setattr(svg, "_arc_and_nodes", _per_number_arc_and_nodes)
            slow = render()
        return fast, slow

    @pytest.mark.parametrize("nodes", [
        # y of 0.0 and +-4e-7 give -0.000000 before the sign is dropped
        [(0.0, 0.0), (1.0, 4e-7), (2.0, -4e-7), (-4e-7, 1.0), (4e-7, -0.0),
         (-0.0, 2.0)],
        [(1e15, 1e15), (1e15 + 0.5, -1e15 + 0.125), (-1e15, 9.99e14),
         (123456789012.1234567, -5e-7)],
        [(5e-324, -5e-324), (2.2250738585072014e-308, 0.0),
         (-1e-310, 1e-310), (1.0, 1.0)],
    ])
    def test_edge_coordinates(self, monkeypatch, nodes):
        arc = PolygonalArc(nodes)
        fast, slow = self._both(monkeypatch, lambda: render_scene(arc))
        assert fast == slow
        assert "-0.000000" not in fast

    @pytest.mark.parametrize("which", ["zigzag 3000", "fan 700"])
    def test_big_scenes(self, monkeypatch, star_fan_700, which):
        arc = (generate_arc(3000, 18, "zigzag") if which == "zigzag 3000"
               else star_fan_700)
        analysis = analyze_arc(arc)
        solution = solve_at_angle(analysis, 30.0)
        fast, slow = self._both(
            monkeypatch, lambda: render_scene_for(analysis, solution))
        assert fast == slow
        assert fast.count('class="node"') == len(arc)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e16, 1e16), st.floats(-1e-5, 1e-5)),
                    min_size=2, max_size=30))
    def test_drawn_coordinates(self, nodes):
        arc = PolygonalArc(nodes)
        r = 0.008 * 3.5
        assert (svg._arc_and_nodes(arc.nodes, r)
                == _per_number_arc_and_nodes(arc.nodes, r))


class TestSchematicContent:
    @pytest.fixture
    def diagram(self, reference_tilts):
        return build_schematic(TiltTable.from_tilts(reference_tilts))

    def test_delta_profile_endpoints(self, diagram):
        svg = render_schematic(diagram)
        (x0, y0), (x1, y1) = _delta_endpoints(svg)
        assert (x0, y0) == pytest.approx((0.0, 143.74), abs=1e-5)
        assert (x1, y1) == pytest.approx((271.57, -127.83), abs=1e-5)

    def test_strip_rectangles(self, diagram):
        svg = render_schematic(diagram)
        assert svg.count('class="strip-odd"') == 3
        assert svg.count('class="strip-even"') == 3
        assert svg.count('class="strip-edge"') == 7

    def test_crossing_marker(self, diagram):
        svg = render_schematic(diagram)
        m = re.search(r'<circle class="crossing" cx="([^"]+)" cy="([^"]+)"',
                      svg)
        assert float(m.group(1)) == pytest.approx(143.74, abs=1e-5)
        assert float(m.group(2)) == pytest.approx(0.0, abs=1e-9)

    def test_query_markers(self, diagram):
        bare = render_schematic(diagram)
        assert 'class="query-rule"' not in bare
        assert 'class="query-point"' not in bare
        with_query = render_schematic(diagram, query_angle(diagram, 40.0))
        assert with_query.count('class="query-rule"') == 2
        assert with_query.count('class="query-point"') == 2

    def test_profiles_present(self, diagram):
        svg = render_schematic(diagram)
        for cls in ("upper-profile", "lower-profile", "delta-profile",
                    "zero-axis"):
            assert f'class="{cls}"' in svg


class TestClipLineToBox:
    def test_horizontal(self):
        seg = clip_line_to_box(Line(-5.0, 0.5, 0.0), 0, 0, 1, 1)
        assert seg == (Point(0.0, 0.5), Point(1.0, 0.5))

    def test_vertical(self):
        seg = clip_line_to_box(Line(0.5, -3.0, 90.0), 0, 0, 1, 1)
        assert seg[0] == pytest.approx(Point(0.5, 0.0), abs=1e-9)
        assert seg[1] == pytest.approx(Point(0.5, 1.0), abs=1e-9)

    def test_diagonal(self):
        seg = clip_line_to_box(Line(0.0, 0.0, 45.0), 0, 0, 1, 1)
        assert seg[0] == pytest.approx(Point(0.0, 0.0), abs=1e-9)
        assert seg[1] == pytest.approx(Point(1.0, 1.0), abs=1e-9)

    def test_ordered_along_direction(self):
        seg = clip_line_to_box(Line(0.5, 0.5, 180.0), 0, 0, 1, 1)
        assert seg[0] == pytest.approx(Point(1.0, 0.5), abs=1e-9)
        assert seg[1] == pytest.approx(Point(0.0, 0.5), abs=1e-9)

    def test_miss(self):
        assert clip_line_to_box(Line(0.0, 5.0, 0.0), 0, 0, 1, 1) is None
        assert clip_line_to_box(Line(-2.0, 0.0, 90.0), 0, 0, 1, 1) is None

    def test_corner_crossing(self):
        seg = clip_line_to_box(Line(0.0, 1.5, -45.0), 0, 0, 1, 1)
        assert seg[0] == pytest.approx(Point(0.5, 1.0), abs=1e-9)
        assert seg[1] == pytest.approx(Point(1.0, 0.5), abs=1e-9)
