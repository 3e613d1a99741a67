"""Seeded random generation of simple arcs and polygons for fuzzing.

All randomness flows through numpy's PCG64 generator seeded with a
(seed, attempt) sequence, so every artifact is reproducible from the two
integers alone.  Strategies:

* ``uncross``: i.i.d. uniform nodes whose path is repeatedly 2-opt
  reversed until no two segments properly cross.  Each reversal strictly
  shortens the path, so the loop terminates.  A run builds once an
  (n - 1) x n float matrix of the turn of every node against every
  segment's line; each step reverses its columns i+1..j, recomputes rows
  i..j and finds the first crossing with a few n x n passes over it.
  That peaks at about 25 n^2 bytes (tracemalloc, n = 300 and 1000), and
  n is capped at ``UNCROSS_MAX_NODES``.
* ``zigzag``: strictly increasing x with alternating-sign y, which is
  simple by construction and tends to produce many locales.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .arcio import PolygonalArc, validate_simple
from .errors import DegenerateHullError, GenerationError
from .geom import Point
from .hull import convex_hull

RNG_ALGORITHM = "pcg64"
STRATEGIES = ("uncross", "zigzag")
ATTEMPTS = 20               # seeds tried per open arc or star polygon
CONVEX_ATTEMPTS = 50        # seeds tried per convex polygon
UNCROSS_MAX_NODES = 1000    # nodes of the largest uncross arc


def _rng(seed: int, attempt: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, attempt])))


@lru_cache(maxsize=1)
def _upper(m: int) -> np.ndarray:
    """Where segment j comes at least two after segment i, as an (m, m)
    mask: the pairs that are neither the same nor adjacent.  Every step of
    one uncross run has the same m, so the run builds it once."""
    upper = np.triu(np.ones((m, m), dtype=bool), k=2)
    upper.flags.writeable = False       # shared by every caller
    return upper


def _sides(pts: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Turn of every node of the open path ``pts`` against the line of each
    segment in ``rows``: entry [r, k] is d_i x (p_k - a_i) for segment
    i = rows[r] from a_i along d_i.  An entry depends only on its own
    segment and its own node, so it never changes while both keep their
    coordinates."""
    a = pts[:-1][rows]
    d = pts[1:][rows] - a
    rx = pts[:, 0] - a[:, 0, None]
    ry = pts[:, 1] - a[:, 1, None]
    ry *= d[:, 0, None]             # in place: two (m, n) planes at most
    rx *= d[:, 1, None]
    ry -= rx
    return ry


def _first_crossing(side: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically first pair of non-adjacent properly crossing
    segments, from the (m, m + 1) matrix of ``_sides``: segment j straddles
    the line of segment i when nodes j and j + 1 turn opposite ways."""
    m = len(side)
    straddle = (side[:, :-1] * side[:, 1:]) < 0
    proper = straddle & straddle.T & _upper(m)
    h = int(proper.argmax())        # row-major: the first (i, j)
    return divmod(h, m) if proper.flat[h] else None


def _first_proper_crossing(pts: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically first pair of non-adjacent properly crossing
    segments of the open path ``pts``, or None."""
    return _first_crossing(_sides(pts)) if len(pts) > 3 else None


def _reverse(pts: np.ndarray, side: np.ndarray, i: int, j: int) -> None:
    """Reverse nodes i+1..j of ``pts`` in place, and bring ``side`` up to
    date with it: the reversal permutes the columns of every segment it
    leaves alone, and segments i..j are new or reversed."""
    pts[i + 1:j + 1] = pts[j:i:-1]
    side[:, i + 1:j + 1] = side[:, j:i:-1]
    side[i:j + 1] = _sides(pts, slice(i, j + 1))


def _uncross(rng: np.random.Generator, nodes: int) -> np.ndarray | None:
    pts = rng.random((nodes, 2))
    side = _sides(pts)
    for _ in range(10 * nodes * nodes):
        hit = _first_crossing(side)
        if hit is None:
            return pts
        _reverse(pts, side, *hit)
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
    if strategy == "uncross" and nodes > UNCROSS_MAX_NODES:
        raise GenerationError(
            f"uncross arcs have at most {UNCROSS_MAX_NODES} nodes, got {nodes}"
            f"; zigzag has no limit")
    for attempt in range(ATTEMPTS):
        rng = _rng(seed, attempt)
        raw = _uncross(rng, nodes) if strategy == "uncross" else _zigzag(rng, nodes)
        if raw is None:
            continue
        arc = PolygonalArc(raw.tolist())
        if validate_simple(arc).ok:
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
        arc = PolygonalArc(ring.tolist(), closed=True)
        if validate_simple(arc).ok:
            return arc
    raise GenerationError(
        f"no simple closed arc with {nodes} nodes after {ATTEMPTS} attempts "
        f"(seed {seed})")
