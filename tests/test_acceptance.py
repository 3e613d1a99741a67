"""Acceptance suite: nine end-to-end criteria with frozen tolerances.

Every expected value here is recomputed inline (plain arithmetic and
trigonometry) or frozen from the published reference table; none come
from the library helpers under test.  Each criterion prints exactly one
``ACCEPTANCE <n> <slug>: PASS`` (or ``FAIL``) line straight to the
terminal, bypassing pytest's capture, so the teed log always shows the
verdicts.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import pytest
from helpers import (assert_pair_definition, delta_profile_points,
                     line_offset, random_convex_polygon, random_star_polygon)

from arcsupport import Point, PolygonalArc
from arcsupport.arcgen import STRATEGIES, generate_arc
from arcsupport.errors import DegenerateHullError
from arcsupport.guidepath import enumerate_admissible_paths
from arcsupport.locales import TiltTable
from arcsupport.oracle import brute_force_pairs
from arcsupport.schematic import build_schematic, query_angle
from arcsupport.solver import analyze_arc, solve_at_angle, solve_closed
from arcsupport.svg import render_scene_for, render_schematic

# Published six-locale reference data (tilts exact; spans as printed to
# two decimals -- the recomputed fifth span is -37.11, 0.01 off the print).
REFERENCE_TILTS = (73.76, -69.98, 25.70, 6.34, -23.90, 25.07, -61.01, 66.82)
PRINTED_SPANS = (-48.06, 76.32, -49.60, 18.73, -37.10, 41.75)
PRINTED_PHI_LEFT = 143.74
PRINTED_PHI_RIGHT_ABS = 127.83

PENTAGON = (Point(0, 0), Point(1, 1), Point(2, -1), Point(3, 1), Point(4, 0))
SQUARE = (Point(0, 1), Point(0, 0), Point(1, 0), Point(1, 1))
TRIANGLE = (Point(0, 0), Point(1, 1), Point(2, 0))

EXPECTED_COUNT_BY_CASE = {"A": 1, "B": 2, "C": 1, "D": 0}


# --------------------------------------------------------------- verdict line

@contextmanager
def _verdict(capfd, number: int, slug: str):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE {number} {slug}: FAIL", flush=True)
        raise
    with capfd.disabled():
        print(f"ACCEPTANCE {number} {slug}: PASS", flush=True)


# ------------------------------------------------------- inline geometry kit

def _dir_gap_mod180(a: float, b: float) -> float:
    return abs((a - b + 90.0) % 180.0 - 90.0)


def _assert_pair_definition(arc: PolygonalArc, pair, phi: float,
                            eps: float) -> None:
    """The defining property (``helpers.assert_pair_definition``), and
    the apex: none at phi = 0, else a point on both lines."""
    assert_pair_definition(arc, pair, phi, eps)
    if phi == 0.0:
        assert pair.apex is None
        assert pair.apex_side == "none"
    else:
        assert pair.apex is not None
        assert pair.apex_side in ("left", "right")
        assert abs(line_offset(pair.m, pair.apex)) <= eps
        assert abs(line_offset(pair.n, pair.apex)) <= eps


def _diagonal(arc: PolygonalArc) -> float:
    xs = [p[0] for p in arc.nodes]
    ys = [p[1] for p in arc.nodes]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def _cycle_nodes(i: int, lo: int = 5, hi: int = 50) -> int:
    return lo + i % (hi - lo + 1)


def _cycle_strategy(i: int) -> str:
    return STRATEGIES[i % len(STRATEGIES)]


# ---------------------------------------------------------------- criteria

def test_criterion_1_reference_tilt_table(capfd):
    with _verdict(capfd, 1, "reference-tilt-table"):
        table = TiltTable.from_tilts(REFERENCE_TILTS)
        assert len(table.spans) == 6
        for got, printed in zip(table.spans, PRINTED_SPANS):
            assert got == pytest.approx(printed, abs=0.02)

        left, right = table.phi_left, table.phi_right
        assert left == pytest.approx(PRINTED_PHI_LEFT, abs=0.01)
        assert abs(right) == pytest.approx(PRINTED_PHI_RIGHT_ABS, abs=0.01)
        assert right < 0 < left

        TiltTable.from_tilts(REFERENCE_TILTS)  # warm-up
        best = min(_timed(lambda: TiltTable.from_tilts(REFERENCE_TILTS))
                   for _ in range(7))
        assert best < 1e-3, f"tilt-table run took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_reference_schematic(capfd):
    with _verdict(capfd, 2, "reference-schematic"):
        diagram = build_schematic(TiltTable.from_tilts(REFERENCE_TILTS))

        x = diagram.table.phi_left
        assert diagram.strip_at(x).index == 3
        assert x == pytest.approx(PRINTED_PHI_LEFT, abs=0.01)

        q40 = query_angle(diagram, 40.0)
        assert len(q40.solutions) == 2
        assert q40.case == "B"

        q135 = query_angle(diagram, 135.0)
        assert len(q135.solutions) == 1
        assert q135.case == "C"
        sol = q135.solutions[0]
        # The +135 contact sits at phi_left - 135 = 8.74 into the diagram.
        assert sol.abscissa == pytest.approx(143.74 - 135.0, abs=1e-9)
        assert diagram.strip_at(sol.abscissa).index == 1

        q150 = query_angle(diagram, 150.0)
        assert len(q150.solutions) == 0
        assert q150.case == "D"

        def run_queries():
            diagram.strip_at(diagram.table.phi_left)
            query_angle(diagram, 40.0)
            query_angle(diagram, 135.0)
            query_angle(diagram, 150.0)

        run_queries()  # warm-up
        best = min(_timed(run_queries) for _ in range(7))
        assert best < 1e-3, f"schematic queries took {best * 1e3:.3f} ms"


def test_criterion_3_parallel_uniqueness(capfd):
    with _verdict(capfd, 3, "parallel-uniqueness"):
        start = time.monotonic()
        total = 10_000
        for i in range(total):
            arc = generate_arc(_cycle_nodes(i), 100_000 + i,
                               _cycle_strategy(i))
            analysis = analyze_arc(arc)
            solution = solve_at_angle(analysis, 0.0)
            assert solution.case == "A"
            assert len(solution.pairs) == 1
            pair = solution.pairs[0]
            eps = analysis.tol.eps_len
            _assert_pair_definition(arc, pair, 0.0, eps)
            assert pair.locale is not None
            assert 1 <= pair.locale <= len(analysis.table.spans)

            oracle = brute_force_pairs(analysis, 0.0)
            assert len(oracle) == 1
            other = oracle[0]
            assert {other.u, other.w} == {pair.u, pair.w}
            assert other.v == pair.v
            bound = 1e-9 * _diagonal(arc)
            assert _dir_gap_mod180(other.m.dir_deg, pair.m.dir_deg) <= 1e-6
            assert _dir_gap_mod180(other.n.dir_deg, pair.n.dir_deg) <= 1e-6
            assert abs(line_offset(pair.m, (other.m.px, other.m.py))) <= bound
            assert abs(line_offset(pair.n, (other.n.px, other.n.py))) <= bound
        elapsed = time.monotonic() - start
        assert elapsed <= 300.0, f"{total} arcs took {elapsed:.1f} s"


def test_criterion_4_angle_counting(capfd):
    with _verdict(capfd, 4, "angle-counting"):
        start = time.monotonic()
        total = 1_000
        for i in range(total):
            arc = generate_arc(_cycle_nodes(i), 200_000 + i,
                               _cycle_strategy(i))
            analysis = analyze_arc(arc)
            table = analysis.table
            lo = min(table.phi_left, -table.phi_right)
            hi = max(table.phi_left, -table.phi_right)
            eps_angle = analysis.tol.eps_angle

            angles = [float(g) for g in range(180)]
            angles += [table.phi_left, -table.phi_right]
            for threshold in (lo, hi):
                for probe in (threshold - 1e-6, threshold + 1e-6):
                    if 0.0 <= probe < 180.0:
                        angles.append(probe)

            for phi in angles:
                solution = solve_at_angle(analysis, phi)
                if phi == 0.0:
                    expected_case = "A"
                elif phi <= lo + eps_angle:
                    expected_case = "B"
                elif phi <= hi + eps_angle:
                    expected_case = "C"
                else:
                    expected_case = "D"
                assert solution.case == expected_case, (
                    f"seed {200_000 + i} phi {phi!r}")
                assert (len(solution.pairs)
                        == EXPECTED_COUNT_BY_CASE[solution.case])
                oracle_count = len(brute_force_pairs(analysis, phi))
                assert oracle_count == len(solution.pairs), (
                    f"seed {200_000 + i} phi {phi!r}: solver "
                    f"{len(solution.pairs)} vs oracle {oracle_count}")
                if solution.case == "B":
                    sides = {p.apex_side for p in solution.pairs}
                    assert sides == {"left", "right"}
        elapsed = time.monotonic() - start
        assert elapsed <= 600.0, f"{total} arcs took {elapsed:.1f} s"


def _orient_value(a, b, c) -> float:
    return ((b[0] - a[0]) * (c[1] - a[1])
            - (b[1] - a[1]) * (c[0] - a[0]))


def _segments_cross_properly(p, q, r, s) -> bool:
    d1 = _orient_value(p, q, r)
    d2 = _orient_value(p, q, s)
    d3 = _orient_value(r, s, p)
    d4 = _orient_value(r, s, q)
    return d1 * d2 < 0 and d3 * d4 < 0


def test_criterion_5_admissible_path_enumeration(capfd):
    with _verdict(capfd, 5, "admissible-path-enumeration"):
        expected_counts = {n: n * 2 ** (n - 2) for n in range(3, 9)}
        assert list(expected_counts.values()) == [6, 16, 40, 96, 224, 512]

        for n, expected in expected_counts.items():
            paths = enumerate_admissible_paths(n)
            assert len(paths) == expected
            assert len(set(paths)) == expected

            corners = random_convex_polygon(n, seed=1_234 + n)
            for path in paths:
                assert sorted(path) == list(range(n))  # spanning
                pts = [corners[k] for k in path]
                segments = list(zip(pts, pts[1:]))
                for a in range(len(segments)):
                    for b in range(a + 2, len(segments)):
                        assert not _segments_cross_properly(
                            *segments[a], *segments[b]), (n, path, a, b)

        for i in range(100):
            arc = generate_arc(5 + i % 5, 600_000 + i, _cycle_strategy(i))
            analysis = analyze_arc(arc)
            h = len(analysis.hull.points)
            assert analysis.guide.visit in set(enumerate_admissible_paths(h))


def test_criterion_6_tilt_table_invariants(capfd):
    with _verdict(capfd, 6, "tilt-table-invariants"):
        for i in range(2_000):
            arc = generate_arc(_cycle_nodes(i), 300_000 + i,
                               _cycle_strategy(i))
            table = analyze_arc(arc).table
            tilts = table.tilts
            j_count = len(tilts) - 2

            evens = tilts[0::2]
            odds = tilts[1::2]
            assert all(a > b for a, b in zip(evens, evens[1:]))
            assert all(a < b for a, b in zip(odds, odds[1:]))

            spans = tuple(tilts[j + 1] - tilts[j - 1]
                          for j in range(1, j_count + 1))
            assert table.spans == pytest.approx(spans, abs=1e-12)
            for j, span in enumerate(spans, start=1):
                assert (span < 0) if j % 2 == 1 else (span > 0)

            phi_left = tilts[0] - tilts[1]
            if j_count % 2 == 0:
                phi_right = tilts[j_count] - tilts[j_count + 1]
            else:
                phi_right = tilts[j_count + 1] - tilts[j_count]
            delta_total = sum(abs(s) for s in spans)
            assert table.phi_left == pytest.approx(phi_left, abs=1e-12)
            assert table.phi_right == pytest.approx(phi_right, abs=1e-12)
            assert abs(delta_total - (phi_left - phi_right)) <= 1e-9
            assert delta_total <= 360.0 + 1e-7


def _convex_chain_arc(i: int) -> PolygonalArc:
    """Open arc walking a strictly convex polygon's boundary, optionally
    with an edge midpoint inserted; its axis is the skipped hull edge."""
    k = 3 + i % 10
    corners = list(random_convex_polygon(k, seed=400_000 + i))
    r = i % k
    chain = corners[r:] + corners[:r]
    if i % 2 == 1:
        at = 1 + (i // 2) % (k - 1)
        a, b = chain[at - 1], chain[at]
        chain.insert(at, Point((a.x + b.x) / 2, (a.y + b.y) / 2))
    return PolygonalArc(tuple(chain))


def _assert_single_locale_with_oracle(arc: PolygonalArc) -> None:
    analysis = analyze_arc(arc)
    assert analysis.guide.axis_on_boundary is True
    assert len(analysis.table.spans) == 1
    assert len(analysis.decomposition.locales) == 1

    table = analysis.table
    lo = min(table.phi_left, -table.phi_right)
    hi = max(table.phi_left, -table.phi_right)
    for phi in (0.0, 0.5 * lo, 0.5 * (lo + hi), lo, hi):
        solution = solve_at_angle(analysis, phi)
        assert (len(solution.pairs)
                == EXPECTED_COUNT_BY_CASE[solution.case])
        oracle_count = len(brute_force_pairs(analysis, phi))
        assert oracle_count == len(solution.pairs), (arc.nodes[:2], phi)
        for pair in solution.pairs:
            _assert_pair_definition(arc, pair, phi, analysis.tol.eps_len)


def test_criterion_7_single_locale_degenerate(capfd):
    with _verdict(capfd, 7, "single-locale-degenerate"):
        _assert_single_locale_with_oracle(PolygonalArc(SQUARE))
        _assert_single_locale_with_oracle(PolygonalArc(TRIANGLE))
        for i in range(500):
            _assert_single_locale_with_oracle(_convex_chain_arc(i))

        for nodes in (((0, 0), (1, 0), (2, 0)),
                      ((0, 0), (1, 1), (2, 2), (3, 3)),
                      ((0, 0), (1, 1))):
            with pytest.raises(DegenerateHullError):
                analyze_arc(PolygonalArc(nodes))


def test_criterion_8_closed_arcs(capfd):
    with _verdict(capfd, 8, "closed-arcs"):
        for i in range(1_000):
            arc = random_star_polygon(4 + i % 17, 500_000 + i)
            assert arc.closed
            solution = solve_closed(arc)
            assert solution.case == "A"
            assert len(solution.pairs) == 1
            pair = solution.pairs[0]
            eps = arc.tolerance().eps_len

            nodes = arc.nodes
            count = len(nodes)
            assert len({pair.u, pair.v, pair.w}) == 3
            assert all(0 <= idx < count
                       for idx in (pair.u, pair.v, pair.w))
            # Parallel support pair: same direction mod 180, distinct lines.
            assert _dir_gap_mod180(pair.m.dir_deg, pair.n.dir_deg) <= 1e-9
            assert abs(line_offset(pair.m, (pair.n.px, pair.n.py))) > eps
            # Contacts lie on their lines, both lines support the arc, and
            # they meet at 0.
            assert_pair_definition(arc, pair, 0.0, eps)
            # v is strictly inside one of the two cyclic stretches u..w,
            # so some parametrization of the cycle orders them u < v < w.
            forward = (pair.v - pair.u) % count < (pair.w - pair.u) % count
            backward = (pair.v - pair.w) % count < (pair.u - pair.w) % count
            assert forward or backward


def test_criterion_9_rendering_determinism(capfd):
    with _verdict(capfd, 9, "rendering-determinism"):
        def pentagon_scene() -> str:
            analysis = analyze_arc(PolygonalArc(PENTAGON))
            return render_scene_for(analysis,
                                    solve_at_angle(analysis, 30.0))

        def reference_schematic() -> str:
            table = TiltTable.from_tilts(REFERENCE_TILTS)
            return render_schematic(build_schematic(table))

        scene_a, scene_b = pentagon_scene(), pentagon_scene()
        assert scene_a.encode() == scene_b.encode()
        schem_a, schem_b = reference_schematic(), reference_schematic()
        assert schem_a.encode() == schem_b.encode()

        points = delta_profile_points(schem_a)
        (x0, y0), (x1, y1) = points[0], points[-1]
        assert x0 == pytest.approx(0.0, abs=1e-6)
        assert y0 == pytest.approx(143.74, abs=0.005)
        assert x1 == pytest.approx(271.57, abs=0.005)
        assert y1 == pytest.approx(-127.83, abs=0.005)
