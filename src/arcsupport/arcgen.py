"""Seeded random generation of simple arcs and polygons for fuzzing.

All randomness flows through numpy's PCG64 generator seeded with a
(seed, attempt) sequence, so every artifact is reproducible from the two
integers alone.  Strategies:

* ``uncross``: i.i.d. uniform nodes whose path is repeatedly 2-opt
  reversed until no two segments properly cross.  Each reversal strictly
  shortens the path, so the loop terminates.
* ``zigzag``: strictly increasing x with alternating-sign y, which is
  simple by construction and tends to produce many locales.
"""

from __future__ import annotations

import numpy as np

from .arcio import PolygonalArc, is_segment_arc, validate_simple
from .errors import DegenerateHullError, GenerationError, InvalidArcError
from .geom import Point
from .hull import convex_hull

RNG_ALGORITHM = "pcg64"
STRATEGIES = ("uncross", "zigzag")
ATTEMPTS = 20               # seeds tried per open arc or star polygon
CONVEX_ATTEMPTS = 50        # seeds tried per convex polygon


def _rng(seed: int, attempt: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, attempt])))


def _first_proper_crossing(pts: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically first pair of non-adjacent properly crossing
    segments of the open path ``pts``, or None."""
    m = len(pts) - 1
    if m < 3:
        return None
    a = pts[:-1]
    d = pts[1:] - a

    # cross1[i, j] = d_i x (a_j - a_i); crossing uses the four orientation
    # signs of each segment pair
    diff_x = a[None, :, 0] - a[:, None, 0]
    diff_y = a[None, :, 1] - a[:, None, 1]
    c_start = d[:, None, 0] * diff_y - d[:, None, 1] * diff_x
    end_x = diff_x + d[None, :, 0]
    end_y = diff_y + d[None, :, 1]
    c_end = d[:, None, 0] * end_y - d[:, None, 1] * end_x

    straddle = (c_start * c_end) < 0
    proper = straddle & straddle.T
    idx = np.triu_indices(m, k=2)
    hits = np.nonzero(proper[idx])[0]
    if hits.size == 0:
        return None
    h = int(hits[0])
    return int(idx[0][h]), int(idx[1][h])


def _uncross(rng: np.random.Generator, nodes: int) -> np.ndarray | None:
    pts = rng.random((nodes, 2))
    for _ in range(10 * nodes * nodes):
        hit = _first_proper_crossing(pts)
        if hit is None:
            return pts
        i, j = hit
        pts[i + 1:j + 1] = pts[i + 1:j + 1][::-1]
    return None


def _zigzag(rng: np.random.Generator, nodes: int) -> np.ndarray:
    dx = rng.uniform(0.5, 1.5, nodes - 1)
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    mag = rng.uniform(0.3, 1.3, nodes)
    signs = np.where(np.arange(nodes) % 2 == 0, 1.0, -1.0)
    ys = signs * mag + rng.uniform(-0.2, 0.2, nodes)
    return np.column_stack((xs, ys))


def generate_arc(nodes: int, seed: int,
                 strategy: str = "uncross") -> PolygonalArc:
    """A validated simple open arc with ``nodes`` nodes."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of "
                         f"{', '.join(STRATEGIES)}")
    if nodes < 3:
        raise ValueError("need at least 3 nodes for a non-degenerate arc")
    for attempt in range(ATTEMPTS):
        rng = _rng(seed, attempt)
        raw = _uncross(rng, nodes) if strategy == "uncross" else _zigzag(rng, nodes)
        if raw is None:
            continue
        try:
            arc = PolygonalArc(tuple(Point(float(x), float(y)) for x, y in raw))
        except InvalidArcError:
            continue
        if validate_simple(arc).ok and not is_segment_arc(arc):
            return arc
    raise GenerationError(
        f"no simple arc with {nodes} nodes after {ATTEMPTS} attempts "
        f"(seed {seed}, strategy {strategy})")


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
        try:
            arc = PolygonalArc(tuple(Point(float(x), float(y)) for x, y in ring),
                               closed=True)
        except InvalidArcError:
            continue
        if validate_simple(arc).ok:
            return arc
    raise GenerationError(
        f"no simple closed arc with {nodes} nodes after {ATTEMPTS} attempts "
        f"(seed {seed})")
