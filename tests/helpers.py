"""Functions and values that only the tests use: seeded polygon and
star-fan generators, a jittered-grid hypothesis strategy, an exact
orientation sign, angle, offset and bounding-box measures, the check of a
support-line pair against its definition, a reader of the schematic's
delta profile, the angles around the angle band of 0, and a CLI child
process.  The polygon generators draw from ``arcgen``'s own seeded
stream, so a polygon depends on its two integers alone."""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from arcsupport.arcgen import ATTEMPTS, _rng
from arcsupport.arcio import PolygonalArc, validate_simple
from arcsupport.errors import DegenerateHullError, GenerationError
from arcsupport.geom import (DEFAULT_EPS_ANGLE, Line, Point, bbox,
                             normalize_angle, unit_vector)
from arcsupport.hull import convex_hull

CONVEX_ATTEMPTS = 50        # seeds tried per convex polygon

# positive angles inside the angle band of 0, which every per-angle function
# refuses with BAND_REFUSAL, and angles at and just above the band's edge
TINY_ANGLES = (1e-320, 1e-9, DEFAULT_EPS_ANGLE / 2, 0.9 * DEFAULT_EPS_ANGLE)
BAND_EDGE_ANGLES = (DEFAULT_EPS_ANGLE, 1.5 * DEFAULT_EPS_ANGLE)
BAND_REFUSAL = f"must be 0 or at least {DEFAULT_EPS_ANGLE:g}"


def angle_dist_mod180(a: float, b: float) -> float:
    """Distance between two line directions, orientation ignored; in [0, 90]."""
    d = abs(normalize_angle(a - b))
    return min(d, 180.0 - d)


def bbox_diagonal(points) -> float:
    """Length of the diagonal of the bounding box of ``points``."""
    x0, y0, x1, y1 = bbox(points)
    return math.hypot(x1 - x0, y1 - y0)


def exact_orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a->b->c: +1 ccw, -1 cw, 0 collinear, computed in
    Fractions, so it is the same under any cyclic permutation of the points;
    a nan coordinate raises ValueError and an infinite one OverflowError.
    The referee for ``geom.orient``, whose sign has a collinearity band."""
    ax, ay, bx, by, cx, cy = map(Fraction, (*a, *b, *c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def line_offset(line: Line, p: Point) -> float:
    """Signed perpendicular offset of p from the line; positive on its left."""
    ux, uy = unit_vector(line.dir_deg)
    return ux * (p[1] - line.py) - uy * (p[0] - line.px)


@st.composite
def jittered_grid_nodes(draw):
    """4-9 nodes on a G x G grid (G in 3..6), each coordinate moved by up
    to J = 10**U(-11, -8)."""
    g = draw(st.integers(3, 6))
    jitter = 10.0 ** draw(st.floats(-11.0, -8.0))
    count = draw(st.integers(4, 9))
    cell = st.integers(0, g - 1)
    shift = st.floats(-jitter, jitter)
    return [(draw(cell) + draw(shift), draw(cell) + draw(shift))
            for _ in range(count)]


def interior_angle(hull, i):
    """Interior angle in degrees at hull vertex i, from the points."""
    k = len(hull)
    a, v, c = (hull.points[(i + d) % k] for d in (-1, 0, 1))
    ux, uy, wx, wy = v.x - a.x, v.y - a.y, c.x - v.x, c.y - v.y
    turn = math.degrees(math.atan2(ux * wy - uy * wx, ux * wx + uy * wy))
    return 180.0 - turn


def assert_pair_definition(arc: PolygonalArc, pair, phi: float,
                           eps_len: float) -> None:
    """The defining property, checked from scratch: the lines meet at phi,
    line m touches the arc at nodes u and w and line n at node v, both lines
    support the whole arc, and on an open arc v lies strictly between u and
    w."""
    if not arc.closed:
        assert 0 <= pair.u < pair.v < pair.w < len(arc.nodes)
    gap = abs((pair.m.dir_deg - pair.n.dir_deg + 180.0) % 360.0 - 180.0)
    assert gap == pytest.approx(phi, abs=1e-6)

    for line, on_line in ((pair.m, (pair.u, pair.w)), (pair.n, (pair.v,))):
        offsets = [line_offset(line, p) for p in arc.nodes]
        assert min(offsets) >= -eps_len or max(offsets) <= eps_len
        for node in on_line:
            assert abs(offsets[node]) <= eps_len


def delta_profile_points(svg_text: str) -> list[Point]:
    """Points of the schematic's delta-profile polyline, with the
    renderer's y flip undone so positive angles are positive."""
    m = re.search(r'<polyline class="delta-profile" points="([^"]+)"', svg_text)
    assert m is not None
    pts = []
    for token in m.group(1).split():
        xs, ys = token.split(",")
        pts.append(Point(float(xs), -float(ys)))
    return pts


def star_fan(n: int, seed: int) -> list[tuple[float, float]]:
    """Nodes of an open arc whose radius alternates 1 and about 0.05 over
    0.95 of a turn, polar angles jittered by under half a step and so
    strictly increasing: simple, with dense overlapping boxes, and every
    outer node a hull vertex."""
    rng = random.Random(seed)
    step = 0.95 * 2.0 * math.pi / (n - 1)
    nodes = []
    for i in range(n):
        theta = (i + rng.uniform(-0.25, 0.25)) * step
        radius = 1.0 if i % 2 == 0 else 0.05 * rng.uniform(0.9, 1.1)
        nodes.append((radius * math.cos(theta), radius * math.sin(theta)))
    return nodes


def random_convex_polygon(nodes: int, seed: int) -> tuple[Point, ...]:
    """Strictly convex polygon with exactly ``nodes`` vertices, in
    counterclockwise order starting at the lowest-leftmost vertex."""
    if nodes < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    for attempt in range(CONVEX_ATTEMPTS):
        rng = _rng(seed, attempt)
        xs = np.sort(rng.random(nodes))
        ys = np.sort(rng.random(nodes))

        def edge_vectors(vals: np.ndarray) -> np.ndarray:
            mask = rng.random(nodes - 2) < 0.5
            mid = vals[1:-1]
            up = np.concatenate(([vals[0]], mid[mask], [vals[-1]]))
            down = np.concatenate(([vals[0]], mid[~mask], [vals[-1]]))
            return np.concatenate((np.diff(up), -np.diff(down)))

        dx = edge_vectors(xs)
        dy = edge_vectors(ys)
        rng.shuffle(dy)
        order = np.argsort(np.arctan2(dy, dx), kind="stable")
        vx, vy = dx[order], dy[order]
        px = np.concatenate(([0.0], np.cumsum(vx)[:-1]))
        py = np.concatenate(([0.0], np.cumsum(vy)[:-1]))
        poly = tuple(Point(float(x), float(y)) for x, y in zip(px, py))
        try:
            hull = convex_hull(poly)
        except DegenerateHullError:
            continue
        if len(hull) == nodes:
            return hull.points
    raise GenerationError(
        f"no strictly convex {nodes}-gon after {CONVEX_ATTEMPTS} attempts")


def random_star_polygon(nodes: int, seed: int) -> PolygonalArc:
    """Simple closed arc built by angle-sorting random points around
    their centroid."""
    if nodes < 3:
        raise ValueError("a closed arc needs at least 3 nodes")
    for attempt in range(ATTEMPTS):
        rng = _rng(seed, attempt)
        pts = rng.random((nodes, 2))
        center = pts.mean(axis=0)
        ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
        rad = np.hypot(pts[:, 1] - center[1], pts[:, 0] - center[0])
        order = np.lexsort((rad, ang))
        ring = pts[order]
        arc = PolygonalArc(ring.tolist(), closed=True)
        if validate_simple(arc).ok:
            return arc
    raise GenerationError(
        f"no simple closed arc with {nodes} nodes after {ATTEMPTS} attempts "
        f"(seed {seed})")


def cli_child(*argv: str, **popen_args) -> subprocess.Popen:
    """``python -m arcsupport.cli`` in a child process, with stdout and
    stderr piped and this checkout's src ahead of the PYTHONPATH, so that a
    child run in another directory still finds it; ``popen_args`` go to
    ``subprocess.Popen``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    return subprocess.Popen([sys.executable, "-m", "arcsupport.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **popen_args)
