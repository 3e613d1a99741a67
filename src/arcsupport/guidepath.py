"""Guide path over the hull: visit order, axis, side split, and link kinds.

The guide path visits the hull vertices in the order the arc reaches them
(increasing arc node index).  Its first-to-last chord is the axis; every
other visited vertex falls strictly on one side of it.  Consecutive visits
are joined by links that are either hull edges or chords crossing the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ensure
from .geom import direction_deg, orient
from .hull import ConvexHull

ENUMERATION_CAP = 12        # enumerate_admissible_paths refuses larger n


class Link(NamedTuple):
    """Connection between consecutive guide-path visits (hull indices)."""

    start: int
    end: int
    kind: str  # 'edge' or 'crossing'


@dataclass(frozen=True)
class GuidePath:
    hull: ConvexHull
    visit: tuple[int, ...]      # hull indices in visit order
    sigma: int                  # +1: upper side is left of the axis
    sides: tuple[int, ...]      # per hull index: +1 upper, -1 lower, 0 on axis
    axis_deg: float             # direction head -> tail
    links: tuple[Link, ...]
    axis_on_boundary: bool

    @property
    def head(self) -> int:
        return self.visit[0]

    @property
    def tail(self) -> int:
        return self.visit[-1]


def build_guide_path(hull: ConvexHull) -> GuidePath:
    """Construct the guide path and verify its structure.

    The checks hold for every hull of a simple open arc; a failure raises
    StructuralViolationError and indicates a bug rather than bad input.
    """
    k = len(hull)
    visit = tuple(sorted(range(k), key=lambda h: hull.node_ids[h]))
    head, tail = visit[0], visit[-1]
    a, b = hull.points[head], hull.points[tail]
    # one tolerant orient per vertex; head and tail repeat a point, so 0
    turns = [orient(a, b, p, hull.tol) for p in hull.points]
    sigma = turns[visit[1]]
    ensure(sigma != 0,
           "second visited hull vertex lies on the axis")
    side = tuple(sigma * t for t in turns)
    links = tuple(Link(i, j, "edge" if (j - i) % k in (1, k - 1)
                       else "crossing")
                  for i, j in zip(visit, visit[1:]))
    guide = GuidePath(hull=hull, visit=visit, sigma=sigma, sides=side,
                      axis_deg=direction_deg(a, b), links=links,
                      axis_on_boundary=(tail - head) % k in (1, k - 1))

    ensure(guide.links[0].kind == "edge",
           "the link out of the first visit is not a hull edge")
    for link in guide.links:
        s1, s2 = side[link.start], side[link.end]
        if s1 != 0 and s1 == s2:
            ensure(link.kind == "edge",
                   "same-side consecutive visits are not hull-adjacent")
        if link.kind == "crossing":
            ensure(s1 * s2 < 0,
                   "crossing link does not join strictly opposite sides")

    # Walking counterclockwise from the head first traverses the lower side
    # when sigma is +1 (the upper side when -1), so visit order on each side
    # is monotone in hull position.
    for sign, expect_increasing in ((-1, sigma > 0), (1, sigma < 0)):
        run = [(h - head) % k for h in visit if side[h] == sign]
        ordered = sorted(run) if expect_increasing else sorted(run, reverse=True)
        ensure(run == ordered, "side visits are not boundary-monotone")
    return guide


def enumerate_admissible_paths(n: int) -> list[tuple[int, ...]]:
    """All admissible visit orders of an n-cycle (vertices 0..n-1 in
    cyclic order).  Each path starts anywhere and repeatedly takes either
    end of the remaining contiguous unvisited stretch, which gives
    n * 2**(n-2) orders."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration of {n * 2 ** (n - 2)} paths exceeds cap")
    paths: list[tuple[int, ...]] = []
    for start in range(n):
        for bits in range(1 << (n - 2)):
            seq = [start]
            lo, hi = 1, n - 1
            b = bits
            for _ in range(n - 2):
                if b & 1:
                    seq.append((start + hi) % n)
                    hi -= 1
                else:
                    seq.append((start + lo) % n)
                    lo += 1
                b >>= 1
            seq.append((start + lo) % n)
            paths.append(tuple(seq))
    return paths
