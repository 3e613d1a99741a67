"""Planar geometry kernel.

Points are float pairs, directions are degrees counterclockwise from +x and
every angle-valued function returns a value normalized into (-180, 180].
Length comparisons go through a Tolerance (absolute eps_len, angular eps);
``arcio.PolygonalArc.tolerance`` alone derives its default and checks given
values, so that one policy governs the whole pipeline.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

DEFAULT_EPS_REL = 1e-9     # eps_len as a fraction of the bounding-box diagonal
DEFAULT_EPS_ANGLE = 1e-7   # degrees


class Point(NamedTuple):
    x: float
    y: float


Segment = tuple[Point, Point]


class Line(NamedTuple):
    """Directed line through (px, py) heading dir_deg degrees ccw from +x."""

    px: float
    py: float
    dir_deg: float


class Tolerance(NamedTuple):
    """Absolute thresholds: eps_len in plane units, eps_angle in degrees."""

    eps_len: float
    eps_angle: float = DEFAULT_EPS_ANGLE


def normalize_angle(a: float) -> float:
    """Reduce a degree value into (-180, 180]."""
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    r = math.fmod(a, 360.0)
    if r <= -180.0:
        r += 360.0
    elif r > 180.0:
        r -= 360.0
    return r


def angle_dist_mod180(a: float, b: float) -> float:
    """Distance between two line directions, orientation ignored; in [0, 90]."""
    d = abs(normalize_angle(a - b))
    return min(d, 180.0 - d)


def direction_deg(a: Point, b: Point) -> float:
    """Direction of the vector a -> b in degrees."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx == 0.0 and dy == 0.0:
        raise ValueError("direction of a zero vector is undefined")
    return normalize_angle(math.degrees(math.atan2(dy, dx)))


def unit_vector(dir_deg: float) -> Point:
    r = math.radians(dir_deg)
    return Point(math.cos(r), math.sin(r))


def dist(a: Point, b: Point) -> float:
    return math.hypot(b[0] - a[0], b[1] - a[1])


def orient(a: Point, b: Point, c: Point, tol: Tolerance | None = None) -> int:
    """Sign of the turn a->b->c: +1 ccw, -1 cw, 0 collinear.

    Without a tolerance the sign is exact, computed in Fractions, so it is the
    same under any cyclic permutation of the points; a nan coordinate raises
    ValueError and an infinite one OverflowError. With a tolerance,
    |cross| <= eps_len * max(|ab|, |ac|) counts as collinear, so the
    collinearity band scales with the arm lengths; it is measured from a and
    so can differ between the rotations of a near-collinear triple.
    """
    if tol is None:
        ax, ay, bx, by, cx, cy = map(Fraction, (*a, *b, *c))
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        return (det > 0) - (det < 0)
    abx, aby = b[0] - a[0], b[1] - a[1]
    acx, acy = c[0] - a[0], c[1] - a[1]
    cross = abx * acy - aby * acx
    arm = max(math.hypot(abx, aby), math.hypot(acx, acy))
    if abs(cross) <= tol.eps_len * arm:
        return 0
    if cross > 0.0:
        return 1
    if cross < 0.0:
        return -1
    return 0


def _on_segment(a: Point, b: Point, p: Point, eps: float) -> bool:
    # p assumed collinear with a-b; bounding-box membership with slack
    return (min(a[0], b[0]) - eps <= p[0] <= max(a[0], b[0]) + eps
            and min(a[1], b[1]) - eps <= p[1] <= max(a[1], b[1]) + eps)


def segments_intersect(s1: Segment, s2: Segment,
                       tol: Tolerance | None = None) -> bool:
    """Whether two segments meet: an interior crossing, an endpoint touch
    or a collinear overlap."""
    (p1, p2), (q1, q2) = s1, s2
    eps = tol.eps_len if tol is not None else 0.0
    if dist(p1, p2) <= eps or dist(q1, q2) <= eps:
        raise ValueError("degenerate (zero-length) segment")
    o1 = orient(p1, p2, q1, tol)
    o2 = orient(p1, p2, q2, tol)
    o3 = orient(q1, q2, p1, tol)
    o4 = orient(q1, q2, p2, tol)
    if 0 not in (o1, o2, o3, o4):
        return o1 != o2 and o3 != o4
    if o1 == 0 and _on_segment(p1, p2, q1, eps):
        return True
    if o2 == 0 and _on_segment(p1, p2, q2, eps):
        return True
    if o3 == 0 and _on_segment(q1, q2, p1, eps):
        return True
    if o4 == 0 and _on_segment(q1, q2, p2, eps):
        return True
    return False


def line_offset(line: Line, p: Point) -> float:
    """Signed perpendicular offset of p from the line; positive on its left."""
    ux, uy = unit_vector(line.dir_deg)
    return ux * (p[1] - line.py) - uy * (p[0] - line.px)


def lines_parallel(l1: Line, l2: Line, eps_angle: float = DEFAULT_EPS_ANGLE) -> bool:
    return angle_dist_mod180(l1.dir_deg, l2.dir_deg) <= eps_angle


def lines_equal(l1: Line, l2: Line, tol: Tolerance) -> bool:
    """Same undirected line: parallel within eps_angle, coincident within eps_len."""
    return (lines_parallel(l1, l2, tol.eps_angle)
            and abs(line_offset(l1, Point(l2.px, l2.py))) <= tol.eps_len)


def same_line_pair(m1: Line, n1: Line, m2: Line, n2: Line,
                   tol: Tolerance) -> bool:
    """Whether {m1, n1} and {m2, n2} are the same unordered pair of lines."""
    return ((lines_equal(m1, m2, tol) and lines_equal(n1, n2, tol))
            or (lines_equal(m1, n2, tol) and lines_equal(n1, m2, tol)))


def lines_intersection(l1: Line, l2: Line,
                       eps_angle: float = DEFAULT_EPS_ANGLE) -> Point | None:
    """Intersection point, or None for (anti)parallel lines."""
    if lines_parallel(l1, l2, eps_angle):
        return None
    u1x, u1y = unit_vector(l1.dir_deg)
    u2x, u2y = unit_vector(l2.dir_deg)
    denom = u1x * u2y - u1y * u2x
    wx, wy = l2.px - l1.px, l2.py - l1.py
    t = (wx * u2y - wy * u2x) / denom
    return Point(l1.px + t * u1x, l1.py + t * u1y)


def bbox(points: Iterable[Point]) -> tuple[float, float, float, float]:
    xs = []
    ys = []
    for p in points:
        xs.append(p[0])
        ys.append(p[1])
    if not xs:
        raise ValueError("bbox of an empty point set")
    return min(xs), min(ys), max(xs), max(ys)


def bbox_diagonal(points: Iterable[Point]) -> float:
    x0, y0, x1, y1 = bbox(points)
    return math.hypot(x1 - x0, y1 - y0)
