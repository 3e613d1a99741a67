"""Tests for the seeded random arc and polygon generators."""

from __future__ import annotations

import numpy as np
import pytest

from arcsupport import arcgen, arcio
from arcsupport.arcgen import (
    RNG_ALGORITHM,
    STRATEGIES,
    UNCROSS_MAX_NODES,
    _first_proper_crossing,
    generate_arc,
    random_convex_polygon,
    random_star_polygon,
)
from arcsupport.arcio import is_segment_arc, validate_simple
from arcsupport.errors import GenerationError


class TestGenerateArc:
    def test_deterministic(self):
        a = generate_arc(12, seed=42)
        b = generate_arc(12, seed=42)
        assert a.nodes == b.nodes

    def test_different_seeds_differ(self):
        a = generate_arc(12, seed=1)
        b = generate_arc(12, seed=2)
        assert a.nodes != b.nodes

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [3, 5, 10, 25, 50])
    def test_valid_simple_open(self, strategy, n):
        arc = generate_arc(n, seed=n * 7 + 1, strategy=strategy)
        assert len(arc) == n
        assert not arc.closed
        assert validate_simple(arc).ok
        assert not is_segment_arc(arc)

    def test_simplicity_is_the_only_check(self, monkeypatch):
        # collinear output would be refused by the strict hull downstream,
        # so the generator leaves that verdict to it
        calls = []

        def spy(*args):
            calls.append(args)
            return False

        monkeypatch.setattr(arcio, "is_segment_arc", spy)
        monkeypatch.setattr(arcgen, "is_segment_arc", spy, raising=False)
        for strategy in STRATEGIES:
            generate_arc(6, seed=3, strategy=strategy)
        assert calls == []

    def test_zigzag_monotone_x(self):
        arc = generate_arc(20, seed=9, strategy="zigzag")
        xs = [p.x for p in arc.nodes]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            generate_arc(5, seed=0, strategy="spiral")

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            generate_arc(2, seed=0)

    def test_zero_attempts_fails(self, monkeypatch):
        monkeypatch.setattr("arcsupport.arcgen.ATTEMPTS", 0)
        with pytest.raises(GenerationError):
            generate_arc(5, seed=0)

    def test_uncross_node_cap(self, monkeypatch):
        # a generation that starts fails at once instead of allocating
        # its n x n arrays
        def no_rng(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr("arcsupport.arcgen._rng", no_rng)
        with pytest.raises(GenerationError, match="uncross"):
            generate_arc(UNCROSS_MAX_NODES + 1, seed=0, strategy="uncross")
        with pytest.raises(AssertionError, match="generation started"):
            generate_arc(UNCROSS_MAX_NODES, seed=0, strategy="uncross")

    def test_zigzag_has_no_node_cap(self):
        assert len(generate_arc(UNCROSS_MAX_NODES + 1, seed=0,
                                strategy="zigzag")) == UNCROSS_MAX_NODES + 1

    def test_rng_algorithm_label(self):
        assert RNG_ALGORITHM == "pcg64"


class TestFirstProperCrossing:
    def test_finds_crossing(self):
        pts = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
        assert _first_proper_crossing(pts) == (0, 2)

    def test_straight_path_clean(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
        assert _first_proper_crossing(pts) is None

    def test_lexicographically_first(self):
        # Two crossings: (0, 2) and (2, 4); the first must win.
        pts = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0],
                        [4.0, 2.0], [4.0, 0.0], [2.5, 1.5]])
        hit = _first_proper_crossing(pts)
        assert hit is not None
        assert hit == min(hit, (2, 4))


class TestRandomConvexPolygon:
    @pytest.mark.parametrize("n", [3, 4, 7, 12, 20])
    def test_exact_vertex_count_and_convex(self, n):
        poly = random_convex_polygon(n, seed=n)
        assert len(poly) == n
        for i in range(n):
            a, b, c = poly[i], poly[(i + 1) % n], poly[(i + 2) % n]
            cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
            assert cross > 0.0

    def test_starts_lex_smallest(self):
        poly = random_convex_polygon(9, seed=17)
        assert poly[0] == min(poly)

    def test_deterministic(self):
        assert random_convex_polygon(8, seed=3) == random_convex_polygon(8, seed=3)

    def test_too_few(self):
        with pytest.raises(ValueError):
            random_convex_polygon(2, seed=0)


class TestRandomStarPolygon:
    @pytest.mark.parametrize("n", [3, 5, 9, 15, 30])
    def test_simple_closed(self, n):
        arc = random_star_polygon(n, seed=n + 100)
        assert arc.closed
        assert len(arc) == n
        assert validate_simple(arc).ok

    def test_deterministic(self):
        a = random_star_polygon(10, seed=5)
        b = random_star_polygon(10, seed=5)
        assert a.nodes == b.nodes
