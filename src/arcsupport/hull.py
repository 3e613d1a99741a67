"""Strict convex hull of an arc's nodes, plus support-line contact queries."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .arcio import PolygonalArc
from .errors import DegenerateHullError
from .geom import (Line, Point, Tolerance, direction_deg, normalize_angle,
                   orient, unit_vector)


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
    # Flat (x, y, i) tuples sort as (Point, i) pairs do and unpack faster
    # in the pop test.
    tagged = sorted([(float(p[0]), float(p[1]), i)
                     for i, p in enumerate(points)])

    def build(seq: list[tuple[float, float, int]]
              ) -> list[tuple[float, float, int]]:
        # Pops on the float sign alone: a tolerant pop could drop a far end
        # of a near-vertical run, whose x order is arbitrary.
        chain: list[tuple[float, float, int]] = []
        for item in seq:
            cx, cy, _ = item
            while len(chain) >= 2:
                ax, ay, _ = chain[-2]
                bx, by, _ = chain[-1]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0:
                    break
                chain.pop()
            chain.append(item)
        return chain

    ring = [(Point(x, y), i)
            for x, y, i in build(tagged)[:-1] + build(tagged[::-1])[:-1]]
    # The chain never pops its first and last sorted points: delete ring
    # vertices inside their neighbours' band until every turn is left.  A
    # deletion changes only the turns at i - 1 and i (and at 0 after the
    # last vertex goes), so the scan steps back one vertex.
    i = 0
    while i < len(ring) and len(ring) >= 3:
        if orient(ring[i - 1][0], ring[i][0], ring[(i + 1) % len(ring)][0],
                  tol) > 0:
            i += 1
        else:
            del ring[i]
            i = 0 if i == len(ring) else max(i - 1, 0)
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
    """A support line and the arc nodes of the hull vertices it touches,
    in order along the line's direction."""

    line: Line
    node_ids: tuple[int, ...]


def support_vertices(hull: ConvexHull, dir_deg: float,
                     side: str) -> list[int]:
    """Hull indices of the vertices that ``support_contact``'s line
    touches, the extreme vertex first.  A bisection of ``unwrapped`` finds
    the extreme vertex, and the parallel test reads the turns to its two
    neighbouring entries of that table: an edge joins when its turn mod
    180 is within ``eps_angle`` of 0.  The test is purely angular so that
    it transitions at exactly the same prescribed angles as the
    strip-diagram queries, regardless of how short the grazed edge is.
    A non-finite direction raises ValueError."""
    # Vertex i is extreme for the directions from edge i-1's to edge i's
    # (hull on the left); the right side is the left side of the reverse.
    if side == "right":
        back = 180.0
    elif side == "left":
        back = 0.0
    else:
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if not math.isfinite(dir_deg):
        raise ValueError(f"direction must be finite, got {dir_deg!r}")
    table = hull.unwrapped
    first = table[0]
    k = len(table)
    target = first + (dir_deg + back - first) % 360.0
    pos = bisect_left(table, target)
    extreme = pos % k
    # Turns from the incoming edge to the target and from the target to
    # the outgoing edge, both in [0, 180); the table wraps by 360 at its
    # ends.  An edge is parallel to the line when its turn is 0 or 180.
    before = target - (table[pos - 1] if pos else table[-1] - 360.0)
    after = (table[pos] if pos < k else first + 360.0) - target
    eps = hull.tol.eps_angle
    ids = [extreme]
    if before <= eps or before >= 180.0 - eps:
        ids.append((extreme - 1) % k)
    if after <= eps or after >= 180.0 - eps:
        ids.append((extreme + 1) % k)
    return ids


def support_contact(hull: ConvexHull, dir_deg: float,
                    side: str) -> SupportContact:
    """Support line of ``hull`` with direction ``dir_deg``.

    ``side`` names the side of the directed line the hull lies on: 'left'
    anchors the line so every hull point sits at non-negative leftward
    offset, 'right' the opposite.  When an incident hull edge runs parallel
    to the line within the angle tolerance the contact is that whole edge
    (two vertices); otherwise it is the single extreme vertex.  The test is
    staged: ``support_vertices`` finds the vertices, and ``anchor_contact``
    orders them along the line and anchors the line.
    """
    return anchor_contact(hull, support_vertices(hull, dir_deg, side), dir_deg)


def anchor_contact(hull: ConvexHull, ids: list[int],
                   dir_deg: float) -> SupportContact:
    """The support line with direction ``dir_deg`` through the hull
    vertices ``ids``, as ``support_vertices`` returns them: the vertices
    ordered along the line, which is anchored at the first.  Sorts ``ids``
    in place."""
    if len(ids) == 1:
        x, y = hull.points[ids[0]]
        return SupportContact(Line(x, y, dir_deg), (hull.node_ids[ids[0]],))
    u = unit_vector(dir_deg)
    ids.sort(key=lambda i: (hull.points[i].x * u.x
                            + hull.points[i].y * u.y, i))
    anchor = hull.points[ids[0]]
    return SupportContact(line=Line(anchor.x, anchor.y, dir_deg),
                          node_ids=tuple([hull.node_ids[i] for i in ids]))
