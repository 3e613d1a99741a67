"""Strict convex hull of an arc's nodes, plus support-line contact queries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arcio import PolygonalArc
from .errors import DegenerateHullError
from .geom import (Line, Point, Tolerance, angle_dist_mod180, direction_deg,
                   orient, unit_vector)


@dataclass(frozen=True)
class ConvexHull:
    """Strictly convex hull, counterclockwise from the lexicographically
    smallest vertex.  ``node_ids[i]`` is the arc node index of ``points[i]``."""

    points: tuple[Point, ...]
    node_ids: tuple[int, ...]
    tol: Tolerance

    def __len__(self) -> int:
        return len(self.points)


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
    if len(ring) < 3:
        raise DegenerateHullError("all nodes are collinear")
    return ConvexHull(points=tuple(p for p, _ in ring),
                      node_ids=tuple(i for _, i in ring),
                      tol=tol)


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
    u = unit_vector(dir_deg)
    k = len(hull)
    vals = [p.x * (-u.y) + p.y * u.x for p in hull.points]
    extreme = vals.index(min(vals) if side == "left" else max(vals))
    ids = {extreme}
    for j in ((extreme - 1) % k, (extreme + 1) % k):
        edge_dir = direction_deg(hull.points[extreme], hull.points[j])
        if angle_dist_mod180(edge_dir, dir_deg) <= hull.tol.eps_angle:
            ids.add(j)
    ordered = sorted(ids, key=lambda i: (hull.points[i].x * u.x
                                         + hull.points[i].y * u.y, i))
    pts = tuple(hull.points[i] for i in ordered)
    anchor = pts[0]
    return SupportContact(line=Line(anchor.x, anchor.y, dir_deg),
                          hull_indices=tuple(ordered),
                          node_ids=tuple(hull.node_ids[i] for i in ordered),
                          points=pts,
                          is_edge=len(ordered) > 1)
