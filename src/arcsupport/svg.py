"""Deterministic SVG rendering of scenes and strip diagrams.

Output is plain SVG 1.1 with a single style block and classed elements.
Coordinates are the data coordinates with the y axis negated (SVG grows
downward), every number is printed with six decimals, and nothing in the
pipeline depends on iteration order or environment, so rendering the same
input twice yields byte-identical files.
"""

from __future__ import annotations

from collections.abc import Iterable

from .arcio import PolygonalArc
from .geom import Line, Point, unit_vector
from .guidepath import GuidePath
from .hull import ConvexHull
from .schematic import AngleQuery, SchematicDiagram
from .solver import Analysis, SolutionSet

PAD_FRACTION = 0.05


def _fmt(template: str, *values: float) -> str:
    """template % values, with every number a "%.6f" placeholder.

    "%.6f" rounds the exact binary value half-even, as round(v, 6) does,
    and in SVG text a '-' before "0.000000" can only be the sign of a
    zero, so one replace drops it.
    """
    return (template % values).replace("-0.000000", "0.000000")


def _flip(points: Iterable[tuple[float, float]]) -> list[float]:
    """Flat x, -y coordinates of (x, y) points: SVG grows downward."""
    return [v for x, y in points for v in (x, -y)]


def clip_line_to_box(line: Line, xmin: float, ymin: float,
                     xmax: float, ymax: float) -> tuple[Point, Point] | None:
    """Segment of an infinite line inside an axis-aligned box, or None.

    Standard parametric (Liang-Barsky style) clipping against the four
    box edges.
    """
    u = unit_vector(line.dir_deg)
    px, py = line.px, line.py
    t0, t1 = float("-inf"), float("inf")
    for p, q_lo, q_hi in ((u.x, xmin - px, xmax - px),
                          (u.y, ymin - py, ymax - py)):
        if abs(p) < 1e-15:
            if q_lo > 0 or q_hi < 0:
                return None
            continue
        ta, tb = q_lo / p, q_hi / p
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None
    return (Point(px + t0 * u.x, py + t0 * u.y),
            Point(px + t1 * u.x, py + t1 * u.y))


def _header(xmin: float, ymin: float, xmax: float, ymax: float,
            style: str) -> str:
    # y is negated at emit time, so the viewBox flips too
    return _fmt('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'viewBox="%.6f %.6f %.6f %.6f">\n<style>\n',
                xmin, -ymax, xmax - xmin, ymax - ymin) + style + "</style>\n"


def _points(xy: list[float]) -> str:
    """The "x,y x,y ..." text of the flat SVG coordinates xy."""
    return _fmt(" ".join(["%.6f,%.6f"] * (len(xy) // 2)), *xy)


def _poly(xy: list[float], cls: str, tag: str = "polyline") -> str:
    """A polyline or polygon through the flat SVG coordinates xy."""
    return f'<{tag} class="{cls}" points="{_points(xy)}"/>\n'


def _dot(p: tuple[float, float], r: float, cls: str) -> str:
    """A dot of radius r at the point p."""
    return _fmt(f'<circle class="{cls}" cx="%.6f" cy="%.6f" r="%.6f"/>\n',
                p[0], -p[1], r)


def _segment(a: Point, b: Point, cls: str) -> str:
    return _fmt(f'<line class="{cls}" x1="%.6f" y1="%.6f" '
                f'x2="%.6f" y2="%.6f"/>\n', a.x, -a.y, b.x, -b.y)


def render_scene(arc: PolygonalArc, hull: ConvexHull | None = None,
                 guide: GuidePath | None = None,
                 solution: SolutionSet | None = None) -> str:
    """Scene drawing: the arc, optionally its hull, guide path, and the
    solved support-line pairs clipped to the padded view."""
    xmin, ymin, xmax, ymax = arc.bbox
    diag = max(((xmax - xmin) ** 2 + (ymax - ymin) ** 2) ** 0.5, 1e-12)
    pad = PAD_FRACTION * diag
    xmin, ymin, xmax, ymax = xmin - pad, ymin - pad, xmax + pad, ymax + pad

    w1 = _fmt("%.6f", 0.006 * diag)
    w2 = _fmt("%.6f", 0.003 * diag)
    dash = _fmt("%.6f %.6f", 0.02 * diag, 0.012 * diag)
    r_node = 0.008 * diag
    r_mark = 0.014 * diag
    style = (
        f".arc{{fill:none;stroke:#1f77b4;stroke-width:{w1}}}\n"
        f".node{{fill:#1f77b4;stroke:none}}\n"
        f".hull{{fill:none;stroke:#999999;stroke-width:{w2};"
        f"stroke-dasharray:{dash}}}\n"
        f".guide{{fill:none;stroke:#2ca02c;stroke-width:{w2}}}\n"
        f".axis{{stroke:#555555;stroke-width:{w2};stroke-dasharray:{dash}}}\n"
        f".m-line{{stroke:#d62728;stroke-width:{w2}}}\n"
        f".n-line{{stroke:#9467bd;stroke-width:{w2}}}\n"
        f".contact-m{{fill:#d62728;stroke:none}}\n"
        f".contact-n{{fill:#9467bd;stroke:none}}\n"
        f".apex{{fill:#000000;stroke:none}}\n"
    )

    parts = [_header(xmin, ymin, xmax, ymax, style)]
    if hull is not None:
        parts.append(_poly(_flip(hull.points), "hull", "polygon"))
    if guide is not None and hull is not None:
        head = hull.points[guide.head]
        tail = hull.points[guide.tail]
        parts.append(_segment(head, tail, "axis"))
        parts.append(_poly(_flip(hull.points[h] for h in guide.visit),
                           "guide"))
    # the node dots reuse the arc's number text: spaces first, as their
    # replacement holds no comma
    points = _points(_flip(arc.nodes))
    dot = '<circle class="node" cx="'
    end = f'" r="{_fmt("%.6f", r_node)}"/>\n'
    tag = "polygon" if arc.closed else "polyline"
    parts.append(f'<{tag} class="arc" points="{points}"/>\n')
    parts.append(dot + points.replace(" ", end + dot).replace(",", '" cy="')
                 + end)
    if solution is not None:
        for pair in solution.pairs:
            for line, cls in ((pair.m, "m-line"), (pair.n, "n-line")):
                seg = clip_line_to_box(line, xmin, ymin, xmax, ymax)
                if seg is not None:
                    parts.append(_segment(seg[0], seg[1], cls))
            for node, cls in ((pair.u, "contact-m"), (pair.w, "contact-m"),
                              (pair.v, "contact-n")):
                parts.append(_dot(arc.nodes[node], r_mark, cls))
            if pair.apex is not None and (xmin <= pair.apex.x <= xmax
                                          and ymin <= pair.apex.y <= ymax):
                parts.append(_dot(pair.apex, r_mark, "apex"))
    parts.append("</svg>\n")
    return "".join(parts)


def render_scene_for(analysis: Analysis,
                     solution: SolutionSet | None = None) -> str:
    return render_scene(analysis.arc, analysis.hull, analysis.guide, solution)


def render_schematic(diagram: SchematicDiagram,
                     query: AngleQuery | None = None) -> str:
    """Strip diagram: shaded strips, the two contact profiles, their
    difference, and any queried solutions."""
    table = diagram.table
    width = diagram.width
    ys = list(table.tilts) + [table.phi_left, table.phi_right, 0.0]
    ymin_d, ymax_d = min(ys), max(ys)
    diag = max(((width) ** 2 + (ymax_d - ymin_d) ** 2) ** 0.5, 1e-12)
    pad = PAD_FRACTION * diag
    xmin, ymin = 0.0 - pad, ymin_d - pad
    xmax, ymax = width + pad, ymax_d + pad

    w2 = _fmt("%.6f", 0.003 * diag)
    w1 = _fmt("%.6f", 0.005 * diag)
    dash = _fmt("%.6f %.6f", 0.015 * diag, 0.01 * diag)
    r_mark = 0.012 * diag
    style = (
        f".strip-odd{{fill:#eef3fa;stroke:none}}\n"
        f".strip-even{{fill:#f7f1ea;stroke:none}}\n"
        f".strip-edge{{stroke:#bbbbbb;stroke-width:{w2}}}\n"
        f".zero-axis{{stroke:#888888;stroke-width:{w2};"
        f"stroke-dasharray:{dash}}}\n"
        f".upper-profile{{fill:none;stroke:#d62728;stroke-width:{w1}}}\n"
        f".lower-profile{{fill:none;stroke:#1f77b4;stroke-width:{w1}}}\n"
        f".delta-profile{{fill:none;stroke:#2ca02c;stroke-width:{w1}}}\n"
        f".crossing{{fill:#2ca02c;stroke:none}}\n"
        f".query-rule{{stroke:#ff7f0e;stroke-width:{w2};"
        f"stroke-dasharray:{dash}}}\n"
        f".query-point{{fill:#ff7f0e;stroke:none}}\n"
    )

    parts = [_header(xmin, ymin, xmax, ymax, style)]
    for strip in diagram.strips:
        cls = "strip-odd" if strip.index % 2 == 1 else "strip-even"
        x0, x1 = strip.x_left, strip.x_right
        parts.append(_poly(_flip([(x0, ymin_d), (x1, ymin_d), (x1, ymax_d),
                                  (x0, ymax_d)]), cls, "polygon"))
    edges = [0.0] + [s.x_right for s in diagram.strips]
    for x in edges:
        parts.append(_segment(Point(x, ymin_d), Point(x, ymax_d), "strip-edge"))
    parts.append(_segment(Point(0.0, 0.0), Point(width, 0.0), "zero-axis"))

    upper = [(x, diagram.upper_value(x)) for x in edges]
    lower = [(x, diagram.lower_value(x)) for x in edges]
    parts.append(_poly(_flip(upper), "upper-profile"))
    parts.append(_poly(_flip(lower), "lower-profile"))
    parts.append(_poly(_flip([(0.0, table.phi_left),
                              (width, table.phi_right)]), "delta-profile"))
    parts.append(_dot((table.phi_left, 0.0), r_mark, "crossing"))

    if query is not None:
        for sol in query.solutions:
            parts.append(_segment(Point(sol.abscissa, ymin_d),
                                  Point(sol.abscissa, ymax_d), "query-rule"))
            parts.append(_dot((sol.abscissa, sol.ordinate), r_mark,
                              "query-point"))
    parts.append("</svg>\n")
    return "".join(parts)
