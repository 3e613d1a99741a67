"""Tests for deterministic SVG rendering."""

from __future__ import annotations

import math
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st
from helpers import delta_profile_points

from arcsupport import svg
from arcsupport.arcgen import generate_arc
from arcsupport.arcio import PolygonalArc
from arcsupport.geom import Line, Point, bbox
from arcsupport.locales import TiltTable
from arcsupport.schematic import build_schematic, query_angle
from arcsupport.solver import (analyze_arc, simple_hull, solve_at_angle,
                               solve_closed_hull)
from arcsupport.svg import (
    _fmt,
    clip_line_to_box,
    render_scene,
    render_scene_for,
    render_schematic,
)

NUM = r"(-?\d+\.\d{6})"


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
            assert _fmt("%.6f", v) == _round_fmt(v), v

    def test_random_values_match_round(self):
        rng = random.Random(15)
        for _ in range(20000):
            v = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-9.0, 12.0)
            assert _fmt("%.6f", v) == _round_fmt(v), v
        for _ in range(5000):   # odd multiples of 2**-7: exact ties
            v = (2 * rng.randrange(-10**9, 10**9) + 1) / 128
            assert _fmt("%.6f", v) == _round_fmt(v), v


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

    def test_closed_arc_is_drawn_closed(self):
        # the edge from (0, 4) back to (1, 1) is no hull edge, so only
        # the arc's own outline can draw it
        arc = PolygonalArc([(1, 1), (0, 0), (4, 0), (4, 4), (0, 4)],
                           closed=True)
        drawn = render_scene(arc, simple_hull(arc))
        assert ('<polygon class="arc" points="1.000000,-1.000000 '
                '0.000000,0.000000 4.000000,0.000000 4.000000,-4.000000 '
                '0.000000,-4.000000"/>\n') in drawn
        assert '<polyline class="arc"' not in drawn


def _num(v):
    """One number as the writer must print it: six decimals, no sign on
    a zero."""
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _per_number_fmt(template, *values):
    pieces = template.split("%.6f")
    assert len(pieces) == len(values) + 1
    return pieces[0] + "".join(_num(v) + p for v, p in zip(values, pieces[1:]))


def _per_number_header(xmin, ymin, xmax, ymax, style):
    vb = f"{_num(xmin)} {_num(-ymax)} {_num(xmax - xmin)} {_num(ymax - ymin)}"
    return (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{vb}">\n<style>\n{style}</style>\n')


def _per_number_poly(xy, cls, tag="polyline"):
    pts = " ".join(f"{_num(x)},{_num(y)}" for x, y in zip(xy[::2], xy[1::2]))
    return f'<{tag} class="{cls}" points="{pts}"/>\n'


def _per_number_dot(p, r, cls):
    return (f'<circle class="{cls}" cx="{_num(p[0])}" cy="{_num(-p[1])}" '
            f'r="{_num(r)}"/>\n')


def _per_number_segment(a, b, cls):
    return (f'<line class="{cls}" x1="{_num(a.x)}" y1="{_num(-a.y)}" '
            f'x2="{_num(b.x)}" y2="{_num(-b.y)}"/>\n')


PER_NUMBER = {"_fmt": _per_number_fmt, "_header": _per_number_header,
              "_poly": _per_number_poly, "_dot": _per_number_dot,
              "_segment": _per_number_segment}

# +-0, +-4e-7 (which prints as -0.000000 before the sign is dropped),
# subnormals and +-1e15, beside any finite value in that range
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 5e-324, -5e-324,
                     1e-310, -1e-310, 1e15, -1e15, 1e15 + 0.5]),
    st.floats(-1e15, 1e15))


class TestSceneWriter:
    """Every element the one-template writer emits against a reference
    that prints one number at a time."""

    @staticmethod
    def _both(monkeypatch, render):
        fast = render()
        with monkeypatch.context() as m:
            for name, ref in PER_NUMBER.items():
                m.setattr(svg, name, ref)
            slow = render()
        assert "-0.000000" not in fast
        return fast, slow

    @staticmethod
    def _assert_node_dots(text, arc):
        """The node dots, which the writer builds from the polyline's text,
        match the reference that prints each number on its own."""
        xmin, ymin, xmax, ymax = bbox(arc.nodes)
        diag = max(((xmax - xmin) ** 2 + (ymax - ymin) ** 2) ** 0.5, 1e-12)
        dots = "".join(line + "\n" for line in text.splitlines()
                       if line.startswith('<circle class="node"'))
        assert dots == "".join(_per_number_dot(p, 0.008 * diag, "node")
                               for p in arc.nodes)

    @pytest.mark.parametrize("nodes", [
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
        self._assert_node_dots(fast, arc)

    @pytest.mark.parametrize("phi", [None, 0.0, 30.0, "left"])
    def test_pentagon_scene(self, monkeypatch, pentagon_arc, phi):
        analysis = analyze_arc(pentagon_arc)
        if phi == "left":   # apexes sit on head and tail: apex dots drawn
            phi = analysis.table.phi_left
        solution = None if phi is None else solve_at_angle(analysis, phi)
        fast, slow = self._both(
            monkeypatch, lambda: render_scene_for(analysis, solution))
        assert fast == slow

    def test_closed_scene(self, monkeypatch):
        arc = PolygonalArc([(0, 0), (3, 0), (3, 2), (1.5, 3), (0, 2)],
                           closed=True)
        hull = simple_hull(arc)
        solution = solve_closed_hull(hull)
        for sol in (None, solution):
            fast, slow = self._both(
                monkeypatch, lambda: render_scene(arc, hull, None, sol))
            assert fast == slow
            assert 'class="hull"' in fast and 'class="guide"' not in fast

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
        self._assert_node_dots(fast, arc)

    @pytest.mark.parametrize("phi", [None, 0.0, 40.0, 150.0])
    def test_schematic(self, monkeypatch, reference_tilts, phi):
        diagram = build_schematic(TiltTable.from_tilts(reference_tilts))
        query = None if phi is None else query_angle(diagram, phi)
        fast, slow = self._both(
            monkeypatch, lambda: render_schematic(diagram, query))
        assert fast == slow

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_schematics(self, monkeypatch, seed):
        diagram = analyze_arc(generate_arc(12, seed, "zigzag")).diagram
        for query in (None, query_angle(diagram, 20.0)):
            fast, slow = self._both(
                monkeypatch, lambda: render_schematic(diagram, query))
            assert fast == slow

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(COORD, COORD), min_size=2, max_size=30),
           st.floats(1e-12, 1e15))
    def test_drawn_coordinates(self, nodes, r):
        xy = [v for x, y in nodes for v in (x, -y)]
        a, b = Point(*nodes[0]), Point(*nodes[-1])
        (x0, y0), (x1, y1) = nodes[0], nodes[-1]
        drawn = {
            "polyline": (svg._poly(xy, "arc"), _per_number_poly(xy, "arc")),
            "polygon": (svg._poly(xy, "hull", "polygon"),
                        _per_number_poly(xy, "hull", "polygon")),
            "dots": ("".join(svg._dot(p, r, "node") for p in nodes),
                     "".join(_per_number_dot(p, r, "node") for p in nodes)),
            "line": (svg._segment(a, b, "axis"),
                     _per_number_segment(a, b, "axis")),
            "header": (svg._header(x0, y0, x1, y1, ".arc{}\n"),
                       _per_number_header(x0, y0, x1, y1, ".arc{}\n")),
            "width": (_fmt("%.6f %.6f", x0, y1), f"{_num(x0)} {_num(y1)}"),
        }
        for kind, (fast, slow) in drawn.items():
            assert fast == slow, kind
            assert "-0.000000" not in fast, kind


class TestSchematicContent:
    @pytest.fixture
    def diagram(self, reference_tilts):
        return build_schematic(TiltTable.from_tilts(reference_tilts))

    def test_delta_profile_endpoints(self, diagram):
        svg = render_schematic(diagram)
        (x0, y0), (x1, y1) = delta_profile_points(svg)
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

    def test_oblique_miss(self):
        # y = x + 5 passes above the box: the x slab gives t in [0, 1]
        # times sqrt(2) and the y slab [-5, -4] times sqrt(2), which are
        # disjoint, so the second slab returns None
        assert clip_line_to_box(Line(0.0, 5.0, 45.0), 0, 0, 1, 1) is None
        assert clip_line_to_box(Line(5.0, 0.0, 135.0), 0, 0, 1, 1) is None

    def test_corner_crossing(self):
        seg = clip_line_to_box(Line(0.0, 1.5, -45.0), 0, 0, 1, 1)
        assert seg[0] == pytest.approx(Point(0.5, 1.0), abs=1e-9)
        assert seg[1] == pytest.approx(Point(1.0, 0.5), abs=1e-9)
