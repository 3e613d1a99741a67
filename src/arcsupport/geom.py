"""Planar geometry kernel.

Points are float pairs, directions are degrees counterclockwise from +x and
every angle-valued function returns a value normalized into (-180, 180].
Length comparisons and turn signs go through a Tolerance, one eps_len checked
when built, and ``arcio.PolygonalArc.tolerance`` alone derives an arc's; the
angle bands only absorb float noise, so they are constants.  One policy governs
all stages, and no predicate here has an exact mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, NamedTuple

DEFAULT_EPS_REL = 1e-9     # eps_len as a fraction of the bounding-box diagonal
DEFAULT_EPS_ANGLE = 1e-7   # degrees
DIRECTION_AGREE_DEG = 1e-6  # degrees: two routes to one direction agree


class Point(NamedTuple):
    x: float
    y: float


Segment = tuple[Point, Point]


class Line(NamedTuple):
    """Directed line through (px, py) heading dir_deg degrees ccw from +x."""

    px: float
    py: float
    dir_deg: float


def angle_problem(phi_deg: float) -> str | None:
    """Why ``phi_deg`` is not a prescribed angle, or None.  A positive angle
    below DEFAULT_EPS_ANGLE lies in the angle band of 0, which cannot tell
    the pairs at +phi and -phi apart."""
    if not 0.0 <= phi_deg < 180.0:
        return "must lie in [0, 180)"
    if 0.0 < phi_deg < DEFAULT_EPS_ANGLE:
        return f"must be 0 or at least {DEFAULT_EPS_ANGLE:g}"
    return None


@dataclass(frozen=True)
class Tolerance:
    """eps_len in plane units, finite and > 0; eps_angle in degrees, fixed.
    An arc's one tolerance comes from ``PolygonalArc.tolerance``, which
    checks the arc's float range; only ``orient``, ``segments_intersect``
    and ``convex_hull`` take one, and they check nothing more."""

    eps_len: float
    eps_angle: ClassVar[float] = DEFAULT_EPS_ANGLE

    def __post_init__(self):
        if not 0 < self.eps_len < math.inf:
            raise ValueError(
                f"eps_len must be a finite number > 0, got {self.eps_len!r}")


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


def orient(a: Point, b: Point, c: Point, tol: Tolerance) -> int:
    """Sign of the turn a->b->c: +1 ccw, -1 cw, and 0 (collinear) when
    |cross| <= eps_len * max(|ab|, |ac|), a band that scales with the arm
    lengths; it is measured from a and so can differ between the rotations
    of a near-collinear triple."""
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


def segments_intersect(s1: Segment, s2: Segment, tol: Tolerance) -> bool:
    """Whether two segments meet: an interior crossing, an endpoint touch
    or a collinear overlap.  ``tol`` sets both the collinearity band of
    ``orient`` and the slack of an endpoint on the other segment.  Both
    segments must be longer than ``tol.eps_len``, as ``validate_simple``
    checks before it compares any pair."""
    (p1, p2), (q1, q2) = s1, s2
    eps = tol.eps_len
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


def lines_equal(l1: Line, l2: Line, eps_len: float, eps_angle: float) -> bool:
    """Same undirected line: parallel within eps_angle, coincident within
    eps_len.  The angle gap and the offset are written out inline (fmod
    is exact), as the oracle calls this per candidate and angle."""
    d = abs(math.fmod(l1.dir_deg - l2.dir_deg, 180.0))
    if d > eps_angle and 180.0 - d > eps_angle:
        return False
    r = math.radians(l1.dir_deg)
    return abs(math.cos(r) * (l2.py - l1.py)
               - math.sin(r) * (l2.px - l1.px)) <= eps_len


def same_line_pair(m1: Line, n1: Line, m2: Line, n2: Line,
                   eps_len: float, eps_angle: float) -> bool:
    """Whether {m1, n1} and {m2, n2} are the same unordered pair of lines."""
    return ((lines_equal(m1, m2, eps_len, eps_angle)
             and lines_equal(n1, n2, eps_len, eps_angle))
            or (lines_equal(m1, n2, eps_len, eps_angle)
                and lines_equal(n1, m2, eps_len, eps_angle)))


def lines_intersection(l1: Line, l2: Line) -> Point | None:
    """Intersection point, or None for lines within ``DEFAULT_EPS_ANGLE``
    of (anti)parallel; written out as ``lines_equal`` is."""
    d = abs(math.fmod(l1.dir_deg - l2.dir_deg, 180.0))
    if d <= DEFAULT_EPS_ANGLE or 180.0 - d <= DEFAULT_EPS_ANGLE:
        return None
    r1, r2 = math.radians(l1.dir_deg), math.radians(l2.dir_deg)
    u1x, u1y = math.cos(r1), math.sin(r1)
    u2x, u2y = math.cos(r2), math.sin(r2)
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
