"""Strict convex hull of an arc's nodes, plus support-line contact queries."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .arcio import PolygonalArc
from .errors import DegenerateHullError
from .geom import (Line, Point, Tolerance, angle_dist_mod180, direction_deg,
                   normalize_angle, orient, unit_vector)


@dataclass(frozen=True)
class ConvexHull:
    """Strictly convex hull, counterclockwise from the lexicographically
    smallest vertex.  ``node_ids[i]`` is the arc node index of ``points[i]``,
    ``edge_dirs[i]`` the ``direction_deg`` of edge i -> i+1, and
    ``unwrapped`` those directions made increasing from ``edge_dirs[0]``."""

    points: tuple[Point, ...]
    node_ids: tuple[int, ...]
    tol: Tolerance
    edge_dirs: tuple[float, ...]
    unwrapped: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.points)

    def edge_dir(self, i: int, j: int) -> float:
        """``direction_deg`` of vertex i -> j, from the table when j follows i."""
        if j == (i + 1) % len(self.points):
            return self.edge_dirs[i]
        return direction_deg(self.points[i], self.points[j])


def convex_hull(points: tuple[Point, ...] | list[Point],
                tol: Tolerance | None = None) -> ConvexHull:
    """Monotone-chain hull keeping corner vertices only (collinear points
    on an edge are dropped); ``tol`` defaults to ``PolygonalArc.tolerance``.
    Its DegenerateHullError is the analysis' one collinearity verdict."""
    if tol is None:
        tol = PolygonalArc(points).tolerance()
    tagged = sorted((Point(float(p[0]), float(p[1])), i)
                    for i, p in enumerate(points))

    def build(seq: list[tuple[Point, int]]) -> list[tuple[Point, int]]:
        chain: list[tuple[Point, int]] = []
        for item in seq:
            while (len(chain) >= 2
                   and orient(chain[-2][0], chain[-1][0], item[0], tol) <= 0):
                chain.pop()
            chain.append(item)
        return chain

    lower = build(tagged)
    upper = build(tagged[::-1])
    ring = lower[:-1] + upper[:-1]
    # The chain never pops its first and last sorted points: delete ring
    # vertices inside their neighbours' band until every turn is left.
    i = 0
    while i < len(ring) and len(ring) >= 3:
        if orient(ring[i - 1][0], ring[i][0], ring[(i + 1) % len(ring)][0],
                  tol) > 0:
            i += 1
        else:
            del ring[i]
            i = 0
    if len(ring) < 3:
        raise DegenerateHullError("all nodes are collinear")
    start = ring.index(min(ring))
    ring = ring[start:] + ring[:start]
    points = tuple(p for p, _ in ring)
    dirs = tuple(direction_deg(p, q)
                 for p, q in zip(points, points[1:] + points[:1]))
    turns = (normalize_angle(b - a) for a, b in zip(dirs, dirs[1:]))
    return ConvexHull(points=points, node_ids=tuple(i for _, i in ring),
                      tol=tol, edge_dirs=dirs,
                      unwrapped=tuple(accumulate(turns, initial=dirs[0])))


class SupportContact(NamedTuple):
    """A support line and the hull vertices it touches, listed in order
    along the line's direction."""

    line: Line
    hull_indices: tuple[int, ...]
    node_ids: tuple[int, ...]
    points: tuple[Point, ...]
    is_edge: bool


def support_contact(hull: ConvexHull, dir_deg: float,
                    side: str) -> SupportContact:
    """Support line of ``hull`` with direction ``dir_deg``.

    ``side`` names the side of the directed line the hull lies on: 'left'
    anchors the line so every hull point sits at non-negative leftward
    offset, 'right' the opposite.  When an incident hull edge runs parallel
    to the line within the angle tolerance the contact is that whole edge
    (two vertices); otherwise it is the single extreme vertex.  The
    edge-or-vertex decision is purely angular so that it transitions at
    exactly the same prescribed angles as the strip-diagram queries,
    regardless of how short the grazed edge is.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    # Vertex i is extreme for the directions from edge i-1's to edge i's
    # (hull on the left); the right side is the left side of the reverse.
    first = hull.unwrapped[0]
    back = 0.0 if side == "left" else 180.0
    k = len(hull)
    extreme = bisect_left(hull.unwrapped,
                          first + (dir_deg + back - first) % 360.0) % k
    ids = [extreme]
    for e, j in ((hull.edge_dirs[extreme - 1], (extreme - 1) % k),
                 (hull.edge_dirs[extreme], (extreme + 1) % k)):
        if angle_dist_mod180(e, dir_deg) <= hull.tol.eps_angle:
            ids.append(j)
    if len(ids) > 1:
        u = unit_vector(dir_deg)
        ids.sort(key=lambda i: (hull.points[i].x * u.x
                                + hull.points[i].y * u.y, i))
    pts = tuple([hull.points[i] for i in ids])
    return SupportContact(line=Line(pts[0].x, pts[0].y, dir_deg),
                          hull_indices=tuple(ids),
                          node_ids=tuple([hull.node_ids[i] for i in ids]),
                          points=pts,
                          is_edge=len(ids) > 1)
