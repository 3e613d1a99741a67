"""Tests for the guide path: visit order, sides, links, and the
admissible-order enumeration.

The enumeration is cross-checked against a brute-force permutation filter
that tests geometric simplicity on a regular polygon, implemented inline.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from arcsupport import guidepath
from arcsupport.arcgen import generate_arc
from arcsupport.errors import TooLargeError
from arcsupport.guidepath import (
    build_guide_path,
    classify_links,
    count_admissible_paths,
    enumerate_admissible_paths,
)
from arcsupport.geom import orient
from arcsupport.hull import convex_hull
from arcsupport.solver import analyze_arc


def _visit_nodes(guide):
    """The visit order as arc node indices."""
    return tuple(guide.hull.node_ids[h] for h in guide.visit)


class TestPentagonGuidePath:
    def test_structure(self, pentagon_arc):
        guide = build_guide_path(convex_hull(pentagon_arc.nodes))
        assert guide.visit == (0, 4, 1, 3, 2)
        assert _visit_nodes(guide) == (0, 1, 2, 3, 4)
        assert guide.sigma == 1
        assert guide.axis_deg == pytest.approx(0.0)
        assert not guide.axis_on_boundary

    def test_endpoints(self, pentagon_arc):
        guide = build_guide_path(convex_hull(pentagon_arc.nodes))
        assert guide.head == 0 and guide.tail == 2
        assert guide.visit[1] == 4 and guide.visit[-2] == 3

    def test_links(self, pentagon_arc):
        guide = build_guide_path(convex_hull(pentagon_arc.nodes))
        kinds = tuple(l.kind for l in guide.links)
        assert kinds == ("edge", "crossing", "crossing", "edge")
        assert guide.links[0].start == 0 and guide.links[0].end == 4

    def test_sides(self, pentagon_arc):
        guide = build_guide_path(convex_hull(pentagon_arc.nodes))
        # visit (0, 4, 1, 3, 2): nodes 1 and 3 above the axis, node 2 below
        assert [guide.sides[h] for h in guide.visit] == [0, 1, -1, 1, 0]

    def test_rank(self, pentagon_arc):
        guide = build_guide_path(convex_hull(pentagon_arc.nodes))
        assert guide.rank == {0: 0, 4: 1, 1: 2, 3: 3, 2: 4}


class TestSides:
    def test_one_orient_per_hull_vertex(self, monkeypatch, star_fan_700):
        # the checks in build_guide_path and decompose_locales read each
        # side several times; sigma and every one of them come from the
        # sides table
        calls = []

        def counting(*args, **kwargs):
            if len(args) > 3 or "tol" in kwargs:
                calls.append(args)
            return orient(*args, **kwargs)

        monkeypatch.setattr(guidepath, "orient", counting)
        analysis = analyze_arc(star_fan_700)
        k = len(analysis.hull)
        assert k > 300
        assert len(calls) == k

    def test_sides_match_orient(self, star_fan_700):
        guide = analyze_arc(star_fan_700).guide
        points, tol = guide.hull.points, guide.hull.tol
        head, tail = points[guide.head], points[guide.tail]
        for h in guide.visit[1:-1]:
            assert guide.sides[h] == guide.sigma * orient(head, tail,
                                                          points[h], tol)
        assert guide.sides[guide.head] == guide.sides[guide.tail] == 0


class TestAxisOnBoundary:
    def test_square_cup(self, square_arc):
        guide = build_guide_path(convex_hull(square_arc.nodes))
        assert guide.sigma == -1
        assert guide.axis_on_boundary
        assert guide.visit == (3, 0, 1, 2)
        assert _visit_nodes(guide) == (0, 1, 2, 3)
        assert guide.axis_deg == pytest.approx(0.0)
        assert tuple(l.kind for l in guide.links) == ("edge",) * 3

    def test_triangle(self, triangle_arc):
        guide = build_guide_path(convex_hull(triangle_arc.nodes))
        assert guide.axis_on_boundary
        assert _visit_nodes(guide) == (0, 1, 2)

    def test_pentagon_not_on_boundary(self, pentagon_arc):
        guide = build_guide_path(convex_hull(pentagon_arc.nodes))
        assert not guide.axis_on_boundary


class TestInteriorStart:
    def test_same_shape_shifted(self, pentagon_interior_start):
        guide = build_guide_path(convex_hull(pentagon_interior_start.nodes))
        assert _visit_nodes(guide) == (1, 2, 3, 4, 5)
        assert guide.sigma == 1
        assert tuple(l.kind for l in guide.links) == (
            "edge", "crossing", "crossing", "edge")


class TestClassifyLinks:
    def test_wraparound_adjacency(self):
        hull = convex_hull(
            [(math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5))
             for i in range(5)])
        links = classify_links(hull, (4, 0, 2))
        assert links[0].kind == "edge"       # 4 -> 0 wraps around the ring
        assert links[1].kind == "crossing"   # 0 -> 2 skips vertex 1


class TestAdmissibleCounts:
    def test_reference_counts(self):
        assert [count_admissible_paths(n) for n in range(3, 9)] == [
            6, 16, 40, 96, 224, 512]

    def test_two_vertices(self):
        assert count_admissible_paths(2) == 2

    def test_too_small(self):
        with pytest.raises(ValueError):
            count_admissible_paths(1)


class TestEnumeration:
    def test_matches_count_and_distinct(self):
        for n in range(2, 9):
            paths = enumerate_admissible_paths(n)
            assert len(paths) == count_admissible_paths(n)
            assert len(set(paths)) == len(paths)

    def test_cap(self, monkeypatch):
        assert guidepath.ENUMERATION_CAP == 12
        assert len(enumerate_admissible_paths(12)) == 12 * 2 ** 10
        with pytest.raises(TooLargeError):
            enumerate_admissible_paths(13)
        monkeypatch.setattr(guidepath, "ENUMERATION_CAP", 13)
        assert len(enumerate_admissible_paths(13)) == 13 * 2 ** 11

    def test_prefixes_leave_contiguous_stretch(self):
        for n in range(3, 9):
            for path in enumerate_admissible_paths(n):
                assert sorted(path) == list(range(n))
                for cut in range(1, n):
                    rest = sorted(path[cut:])
                    # Contiguous on the cycle: at most one gap > 1 between
                    # cyclically consecutive members.
                    gaps = sum(1 for a, b in zip(rest, rest[1:] + [rest[0] + n])
                               if b - a != 1)
                    assert gaps <= 1

    @staticmethod
    def _chords_cross(a: int, b: int, c: int, d: int, n: int) -> bool:
        """Whether chords (a,b) and (c,d) of a convex n-gon properly cross:
        exactly one of c, d lies strictly inside the cyclic arc a -> b."""
        if len({a, b, c, d}) < 4:
            return False

        def inside(x):
            return (x - a) % n < (b - a) % n and x != a

        return inside(c) != inside(d)

    def test_permutation_oracle(self):
        """Independent brute force: a visit order is admissible exactly when
        the polyline it traces on a convex polygon is non-self-crossing."""
        for n in range(3, 8):
            simple = set()
            for perm in itertools.permutations(range(n)):
                chords = list(zip(perm, perm[1:]))
                ok = all(not self._chords_cross(*e1, *e2, n)
                         for e1, e2 in itertools.combinations(chords, 2))
                if ok:
                    simple.add(perm)
            assert simple == set(enumerate_admissible_paths(n))


class TestFuzzedGuidePaths:
    def test_visit_order_is_admissible(self):
        rng = random.Random(5)
        checked = 0
        i = 0
        while checked < 40:
            i += 1
            n = rng.randint(5, 14)
            arc = generate_arc(n, seed=900 + i,
                               strategy="uncross" if i % 2 else "zigzag")
            hull = convex_hull(arc.nodes)
            if len(hull) > 12:
                continue
            guide = build_guide_path(hull)
            assert guide.visit in set(enumerate_admissible_paths(len(hull)))
            checked += 1

    def test_first_link_is_edge_and_crossings_alternate_sides(self):
        for i in range(30):
            arc = generate_arc(5 + i % 20, seed=3000 + i)
            guide = build_guide_path(convex_hull(arc.nodes))
            assert guide.links[0].kind == "edge"
            for link in guide.links:
                if link.kind == "crossing":
                    assert (guide.sides[link.start]
                            * guide.sides[link.end] < 0)
