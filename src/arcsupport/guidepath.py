"""Guide path over the hull: visit order, axis, side split, and link kinds.

The guide path visits the hull vertices in the order the arc reaches them
(increasing arc node index).  Its first-to-last chord is the axis; every
other visited vertex falls strictly on one side of it.  Consecutive visits
are joined by links that are either hull edges or chords crossing the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import TooLargeError, ensure
from .geom import direction_deg, orient
from .hull import ConvexHull


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
    axis_deg: float             # direction head -> tail
    links: tuple[Link, ...]
    axis_on_boundary: bool

    @property
    def head(self) -> int:
        return self.visit[0]

    @property
    def second(self) -> int:
        return self.visit[1]

    @property
    def penultimate(self) -> int:
        return self.visit[-2]

    @property
    def tail(self) -> int:
        return self.visit[-1]

    @cached_property
    def rank(self) -> dict[int, int]:
        """Visit position of each hull index."""
        return {h: r for r, h in enumerate(self.visit)}

    @property
    def visit_nodes(self) -> tuple[int, ...]:
        """The visit order as arc node indices."""
        return tuple(self.hull.node_ids[h] for h in self.visit)

    def side_of(self, hull_index: int) -> int:
        """+1 for the upper side, -1 for the lower, 0 for head and tail."""
        if hull_index in (self.head, self.tail):
            return 0
        a = self.hull.points[self.head]
        b = self.hull.points[self.tail]
        return self.sigma * orient(a, b, self.hull.points[hull_index],
                                   self.hull.tol)


def classify_links(hull: ConvexHull, visit: tuple[int, ...]) -> tuple[Link, ...]:
    """Label each consecutive visit pair 'edge' (hull-adjacent) or 'crossing'."""
    k = len(hull)
    links = []
    for a, b in zip(visit, visit[1:]):
        adjacent = (b - a) % k in (1, k - 1)
        links.append(Link(a, b, "edge" if adjacent else "crossing"))
    return tuple(links)


def build_guide_path(hull: ConvexHull) -> GuidePath:
    """Construct the guide path and verify its structure.

    The checks hold for every hull of a simple open arc; a failure raises
    StructuralViolationError and indicates a bug rather than bad input.
    """
    k = len(hull)
    visit = tuple(sorted(range(k), key=lambda h: hull.node_ids[h]))
    head, tail = visit[0], visit[-1]
    a, b = hull.points[head], hull.points[tail]
    sigma = orient(a, b, hull.points[visit[1]], hull.tol)
    ensure(sigma != 0,
           "second visited hull vertex lies on the axis")
    guide = GuidePath(hull=hull, visit=visit, sigma=sigma,
                      axis_deg=direction_deg(a, b),
                      links=classify_links(hull, visit),
                      axis_on_boundary=(tail - head) % k in (1, k - 1))
    side = guide.side_of

    ensure(guide.links[0].kind == "edge",
           "the link out of the first visit is not a hull edge")
    for link in guide.links:
        s1, s2 = side(link.start), side(link.end)
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
        run = [(h - head) % k for h in visit if side(h) == sign]
        ordered = sorted(run) if expect_increasing else sorted(run, reverse=True)
        ensure(run == ordered, "side visits are not boundary-monotone")
    return guide


def count_admissible_paths(n: int) -> int:
    """Number of hull-vertex visit orders whose every prefix leaves the
    unvisited vertices contiguous on the cycle: n * 2**(n-2)."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    return n * 2 ** (n - 2)


def enumerate_admissible_paths(n: int, cap: int = 12) -> list[tuple[int, ...]]:
    """All admissible visit orders of an n-cycle (vertices 0..n-1 in
    cyclic order).  Each path starts anywhere and repeatedly takes either
    end of the remaining contiguous unvisited stretch."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > cap:
        raise TooLargeError(
            f"enumeration of {count_admissible_paths(n)} paths exceeds cap")
    paths: list[tuple[int, ...]] = []
    for start in range(n):
        if n == 2:
            paths.append((start, (start + 1) % n))
            continue
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
