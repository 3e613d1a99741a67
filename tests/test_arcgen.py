"""Tests for the seeded random arc and polygon generators."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from helpers import random_convex_polygon, random_star_polygon

from arcsupport import arcgen, arcio
from arcsupport.arcgen import (
    ATTEMPTS,
    RNG_ALGORITHM,
    STRATEGIES,
    UNCROSS_MAX_NODES,
    _first_crossing,
    _reverse,
    _rng,
    _sides,
    generate_arc,
)
from arcsupport.arcio import PolygonalArc, is_segment_arc, validate_simple
from arcsupport.errors import GenerationError


class TestGenerateArc:
    def test_deterministic(self):
        a = generate_arc(12, seed=42, strategy="uncross")
        b = generate_arc(12, seed=42, strategy="uncross")
        assert a.nodes == b.nodes

    def test_different_seeds_differ(self):
        a = generate_arc(12, seed=1, strategy="uncross")
        b = generate_arc(12, seed=2, strategy="uncross")
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
            generate_arc(2, seed=0, strategy="uncross")

    def test_zero_attempts_fails(self, monkeypatch):
        monkeypatch.setattr("arcsupport.arcgen.ATTEMPTS", 0)
        with pytest.raises(GenerationError):
            generate_arc(5, seed=0, strategy="uncross")

    def test_next_attempt_after_uncross_gives_up(self, monkeypatch):
        uncross = arcgen._uncross
        calls = []

        def first_gives_up(rng, nodes):
            calls.append(nodes)
            return None if len(calls) == 1 else uncross(rng, nodes)

        monkeypatch.setattr(arcgen, "_uncross", first_gives_up)
        arc = generate_arc(12, seed=4, strategy="uncross")
        assert len(calls) == 2
        assert arc == PolygonalArc(uncross(_rng(4, 1), 12).tolist())

    def test_uncross_giving_up_every_attempt_fails(self, monkeypatch):
        # a crossing that never goes away: the real _uncross spends its
        # 10 n^2 steps on every attempt and gives up
        calls = []

        def always_crossing(side, apart):
            calls.append(len(side))
            return (0, 2)

        monkeypatch.setattr(arcgen, "_first_crossing", always_crossing)
        with pytest.raises(GenerationError, match=f"after {ATTEMPTS} attempts"):
            generate_arc(4, seed=4, strategy="uncross")
        assert calls == [3] * (ATTEMPTS * 10 * 4 * 4)

    def test_uncross_node_cap(self, monkeypatch):
        # a generation that starts fails at once instead of allocating
        # the crossing search's arrays, about 25 n^2 bytes at their peak
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
        assert _first_crossing(*_matrices(pts)) == (0, 2)

    def test_straight_path_clean(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
        assert _first_crossing(*_matrices(pts)) is None

    def test_lexicographically_first(self):
        # crossings (0, 4), (1, 3) and (1, 4): the first row wins even
        # though (1, 3) has the smaller second index
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 4.0],
                        [8.0, 3.0], [12.0, 1.0], [5.0, -2.0]])
        assert _all_proper_crossings(pts) == [(0, 4), (1, 3), (1, 4)]
        assert _first_crossing(*_matrices(pts)) == (0, 4)

    @pytest.mark.parametrize("nodes, zero", [
        # segment 4 overlaps segment 0 on [1, 2] and touches segment 1's
        # start; segment 3 ends on segment 0's interior
        ([[0, 0], [2, 0], [2, 1], [1, 1], [1, 0], [3, 0]], [(0, 4), (0, 3)]),
        # node 4 is node 1: segments 0, 1, 3 and 4 share it
        ([[0, 0], [1, 1], [2, 0], [2, 2], [1, 1], [0, 2]], [(0, 3), (1, 4)]),
    ])
    def test_contacts_are_not_crossings(self, nodes, zero):
        pts = np.array(nodes, dtype=float)
        for i, j in zero:
            assert _straddle_product(pts.tolist(), i, j) == 0.0
        assert _all_proper_crossings(pts) == []
        assert _first_crossing(*_matrices(pts)) is None

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_double_loop_on_random_paths(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((int(rng.integers(4, 31)), 2))
        assert _first_crossing(*_matrices(pts)) == _reference_crossing(pts)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_double_loop_on_grid_paths(self, seed):
        # a 4 x 4 grid makes collinear overlaps, touching endpoints and
        # shared vertices common
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, (int(rng.integers(4, 31)), 2)).astype(float)
        assert _first_crossing(*_matrices(pts)) == _reference_crossing(pts)

    @pytest.mark.parametrize("n, seed", [(n, s) for n in (60, 200)
                                         for s in range(3)])
    def test_kept_matrix_equals_fresh_pass_on_random_paths(self, n, seed):
        pts = np.random.default_rng(seed).random((n, 2))
        assert _uncross_checking_every_step(pts) > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_kept_matrix_equals_fresh_pass_on_grid_paths(self, seed):
        # exact zero turns and tied products, where an entry computed
        # another way would show first
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, (int(rng.integers(4, 31)), 2)).astype(float)
        _uncross_checking_every_step(pts)

    def test_generated_arcs_have_none(self):
        for n in (4, 9, 30):
            pts = np.array(generate_arc(n, seed=n, strategy="uncross").nodes)
            assert _reference_crossing(pts) is None
            assert _first_crossing(*_matrices(pts)) is None


def _straddle_product(p: list, i: int, j: int) -> float:
    """The product of the two turns of segment j's ends against segment
    i's line, in the generator's operation order: negative exactly when
    segment j straddles that line."""
    ax, ay = p[i]
    dx, dy = p[i + 1][0] - ax, p[i + 1][1] - ay
    sx, sy = p[j][0] - ax, p[j][1] - ay
    ex, ey = p[j + 1][0] - ax, p[j + 1][1] - ay
    return (dx * sy - dy * sx) * (dx * ey - dy * ex)


def _matrices(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_first_crossing``'s two arguments for the path ``pts``, fresh."""
    return _sides(pts), np.triu(np.ones((len(pts) - 1,) * 2, dtype=bool), k=2)


def _uncross_checking_every_step(pts: np.ndarray) -> int:
    """Run the generator's 2-opt loop on ``pts`` and check the kept side
    matrix against a fresh pass after every reversal; the step count."""
    side, apart = _matrices(pts)
    for step in range(10 * len(pts) ** 2):
        hit = _first_crossing(side, apart)
        assert hit == _first_crossing(*_matrices(pts))
        if hit is None:
            return step
        _reverse(pts, side, *hit)
        assert np.array_equal(side, _sides(pts))
    raise AssertionError("the 2-opt loop did not end")


def _all_proper_crossings(pts: np.ndarray) -> list[tuple[int, int]]:
    p = pts.tolist()
    m = len(p) - 1
    return [(i, j) for i in range(m) for j in range(i + 2, m)
            if _straddle_product(p, i, j) < 0 and _straddle_product(p, j, i) < 0]


def _reference_crossing(pts: np.ndarray) -> tuple[int, int] | None:
    hits = _all_proper_crossings(pts)
    return hits[0] if hits else None


# SHA-256 over the exact node floats of the generators' output; every
# fuzz and sweep input comes from them, so it changes only when a change
# to the generated arcs is intended
GENERATOR_DIGEST = \
    "979efcdd12f5037f212f9871563760d4cc81591453744d895170a9c7b2430241"


def test_generator_output_digest():
    arcs = [generate_arc(n, seed, "uncross")
            for n in range(5, 51) for seed in range(3)]
    arcs += [generate_arc(100, 1, "uncross"), generate_arc(200, 1, "uncross")]
    arcs += [generate_arc(n, n, "zigzag") for n in (3, 10, 50, 1000)]
    arcs += [random_star_polygon(n, n) for n in (3, 10, 50, 500)]
    assert _digest(arcs) == GENERATOR_DIGEST


# the same digest over larger uncross arcs, each of them hundreds of
# reversals on the kept side matrix
UNCROSS_LARGE_DIGEST = \
    "53632927ca4754269881c3f6d079722251f66bef452e3780ac363a423517b332"


def test_large_uncross_output_digest():
    arcs = [generate_arc(n, seed, "uncross")
            for n, seed in ((300, 1), (400, 1), (400, 2))]
    assert _digest(arcs) == UNCROSS_LARGE_DIGEST


# the same digest over the polygons of the acceptance criteria's seeds:
# convex corners (criteria 5 and 7) and star polygons (criterion 8)
POLYGON_DIGEST = \
    "07f9504d4d544912547f8b56913095831adb2208f6cf141f0bdbe500f7b4a20f"


def test_polygon_generator_output_digest():
    convex = [random_convex_polygon(n, 1_234 + n) for n in range(3, 9)]
    convex += [random_convex_polygon(3 + i % 10, 400_000 + i)
               for i in range(500)]
    arcs = [arcio.PolygonalArc(poly, closed=True) for poly in convex]
    arcs += [random_star_polygon(4 + i % 17, 500_000 + i) for i in range(1000)]
    assert _digest(arcs) == POLYGON_DIGEST


def _digest(arcs: list) -> str:
    h = hashlib.sha256()
    for arc in arcs:
        h.update(struct.pack(f"<?q{2 * len(arc)}d", arc.closed, len(arc),
                             *(c for p in arc.nodes for c in p)))
    return h.hexdigest()


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
