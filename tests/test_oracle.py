"""Tests for the brute-force reference and its solver comparison."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from test_hull import jittered_grid_nodes

from arcsupport.arcgen import STRATEGIES, generate_arc
from arcsupport.arcio import PolygonalArc, validate_simple
from arcsupport.errors import (DegenerateHullError, InvalidArcError,
                               UnsupportedArcError)
from arcsupport.geom import Line, Tolerance, angle_dist_mod180
from arcsupport.hull import convex_hull, support_contact
from arcsupport.oracle import (
    OraclePair,
    _hull,
    brute_force_configs,
    brute_force_pairs,
    compare_with_solver,
)
from arcsupport.solver import analyze_arc

DEG_ATAN_1_2 = math.degrees(math.atan2(1, 2))
PHI_LEFT_PENTAGON = 45.0 + DEG_ATAN_1_2


def _all_edges_configs(hull, phi_deg):
    """Reference search: every hull edge tried as m, with no skipping."""
    k = len(hull)
    found = []
    for i in range(k):
        a = hull.points[i]
        edge_dir = hull.edge_dirs[i]
        node_a = hull.node_ids[i]
        node_b = hull.node_ids[(i + 1) % k]
        lo, hi = min(node_a, node_b), max(node_a, node_b)
        m = Line(a.x, a.y, edge_dir)
        cands = [edge_dir] if phi_deg == 0.0 else [edge_dir + phi_deg,
                                                   edge_dir - phi_deg]
        for d in cands:
            contact = support_contact(hull, d, "right")
            between = [c for c in contact.node_ids if lo < c < hi]
            if not between:
                continue
            found.append(OraclePair(m=m, n=contact.line, u=node_a,
                                    v=min(between), w=node_b))
    return found


class TestBruteForceCounts:
    @pytest.mark.parametrize("phi, expected", [
        (0.0, 1),
        (30.0, 2),
        (PHI_LEFT_PENTAGON, 2),
        (100.0, 0),
    ])
    def test_pentagon(self, pentagon_arc, phi, expected):
        assert len(brute_force_pairs(pentagon_arc, phi)) == expected

    def test_parallel_pair_values(self, pentagon_arc):
        (pair,) = brute_force_pairs(pentagon_arc, 0.0)
        assert {pair.u, pair.w} == {1, 3}
        assert pair.v == 2

    def test_square(self, square_arc):
        assert len(brute_force_pairs(square_arc, 0.0)) == 1
        assert len(brute_force_pairs(square_arc, 90.0)) == 2
        assert len(brute_force_pairs(square_arc, 120.0)) == 0

    def test_coincidence_angle_dedupes(self, pentagon_arc):
        configs = brute_force_configs(convex_hull(pentagon_arc.nodes), DEG_ATAN_1_2)
        pairs = brute_force_pairs(pentagon_arc, DEG_ATAN_1_2)
        assert len(configs) == 4      # each pair found in both roles
        assert len(pairs) == 2

    def test_generic_angle_no_duplicates(self, pentagon_arc):
        configs = brute_force_configs(convex_hull(pentagon_arc.nodes), 30.0)
        pairs = brute_force_pairs(pentagon_arc, 30.0)
        assert len(configs) == len(pairs) == 2


class TestEdgeSkip:
    """The search skips edges whose nodes bracket no other hull vertex;
    it must find exactly what trying every edge finds, in order."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_generated_arcs_at_grid_and_thresholds(self, strategy):
        for n in range(5, 51):
            analysis = analyze_arc(generate_arc(n, 31000 + n, strategy))
            table = analysis.table
            phis = [float(g) for g in range(180)]
            for threshold in (table.phi_left, -table.phi_right):
                phis += [threshold, threshold - 1e-6, threshold + 1e-6]
            for phi in phis:
                if 0.0 <= phi < 180.0:
                    assert (brute_force_configs(analysis.hull, phi)
                            == _all_edges_configs(analysis.hull, phi)), (
                        n, phi)

    @settings(max_examples=200, deadline=None)
    @given(jittered_grid_nodes())
    def test_jittered_grid_arcs(self, nodes):
        try:
            arc = PolygonalArc(nodes)
            if not validate_simple(arc, arc.tolerance()).ok:
                return
            hull = convex_hull(arc.nodes)
        except (InvalidArcError, DegenerateHullError):
            return
        # Configurations change where n turns parallel to a hull edge:
        # probe the angles between edge directions and either side of them.
        phis = [float(g) for g in range(0, 180, 15)]
        for a in hull.edge_dirs:
            for b in hull.edge_dirs:
                gap = angle_dist_mod180(a, b)
                phis += [gap, gap + 1e-6, 180.0 - gap, 180.0 - gap - 1e-6]
        for phi in phis:
            if 0.0 <= phi < 180.0:
                assert (brute_force_configs(hull, phi)
                        == _all_edges_configs(hull, phi)), phi


class TestBruteForceValidity:
    def test_rejects_closed(self):
        arc = PolygonalArc(((0, 0), (1, 0), (0, 1)), closed=True)
        with pytest.raises(UnsupportedArcError):
            brute_force_pairs(arc, 0.0)

    def test_rejects_out_of_range_angle(self, pentagon_arc):
        with pytest.raises(ValueError):
            brute_force_pairs(pentagon_arc, 180.0)
        with pytest.raises(ValueError):
            brute_force_pairs(pentagon_arc, -1.0)

    def test_betweenness_holds(self, pentagon_arc):
        for phi in (0.0, 15.0, 30.0, 45.0, 60.0):
            for pair in brute_force_configs(convex_hull(pentagon_arc.nodes), phi):
                assert min(pair.u, pair.w) < pair.v < max(pair.u, pair.w)

    def test_angle_between_lines(self, pentagon_arc):
        for phi in (0.0, 15.0, 30.0, 60.0):
            for pair in brute_force_configs(convex_hull(pentagon_arc.nodes), phi):
                gap = abs((pair.m.dir_deg - pair.n.dir_deg + 180.0) % 360.0
                          - 180.0)
                gap = min(gap, 360.0 - gap)
                assert gap == pytest.approx(phi, abs=1e-9)


class TestAgreement:
    def test_pentagon_probe_angles(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        for phi in (0.0, 30.0, DEG_ATAN_1_2, PHI_LEFT_PENTAGON, 100.0,
                    179.0):
            report = compare_with_solver(pentagon_arc, phi, analysis=analysis)
            assert report.ok, report.message

    def test_report_fields(self, pentagon_arc):
        report = compare_with_solver(pentagon_arc, 30.0)
        assert report.phi == 30.0
        assert report.case == "B"
        assert report.solver_count == report.oracle_count == 2
        assert report.message == ""

    def test_square_and_triangle(self, square_arc, triangle_arc):
        for arc in (square_arc, triangle_arc):
            for phi in (0.0, 20.0, 45.0, 90.0, 135.0):
                report = compare_with_solver(arc, phi)
                assert report.ok, report.message

    def test_fuzzed_agreement(self):
        for i in range(40):
            arc = generate_arc(5 + (i * 3) % 30, seed=12000 + i,
                               strategy="uncross" if i % 2 else "zigzag")
            analysis = analyze_arc(arc)
            phis = [0.0, 45.0,
                    analysis.table.phi_left,
                    -analysis.table.phi_right]
            for phi in phis:
                if not 0.0 <= phi < 180.0:
                    continue
                report = compare_with_solver(arc, phi, analysis=analysis)
                assert report.ok, (i, phi, report.message)

    def test_grid_agreement_small(self):
        arc = generate_arc(12, seed=12345)
        analysis = analyze_arc(arc)
        for phi10 in range(0, 1800, 75):
            report = compare_with_solver(arc, phi10 / 10.0, analysis=analysis)
            assert report.ok, report.message

    def test_given_analysis_builds_no_hull(self, pentagon_arc, monkeypatch):
        analysis = analyze_arc(pentagon_arc)

        def no_hull(*args, **kwargs):
            raise AssertionError("the oracle rebuilt the hull")

        monkeypatch.setattr("arcsupport.oracle.convex_hull", no_hull)
        for phi in (0.0, 30.0, 100.0):
            report = compare_with_solver(pentagon_arc, phi, analysis=analysis)
            assert report.ok, report.message

    def test_analysis_of_another_arc_rejected(self, pentagon_arc, square_arc):
        with pytest.raises(ValueError, match="different arc"):
            compare_with_solver(square_arc, 30.0,
                                analysis=analyze_arc(pentagon_arc))

    def test_tolerance_other_than_the_analysis_rejected(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        other = Tolerance(2 * analysis.tol.eps_len)
        with pytest.raises(ValueError, match="different arc or tolerance"):
            compare_with_solver(pentagon_arc, 30.0, other, analysis=analysis)
        report = compare_with_solver(pentagon_arc, 30.0, analysis.tol,
                                     analysis=analysis)
        assert report.ok, report.message


class TestHullCache:
    def test_angle_sweep_builds_one_hull(self, monkeypatch):
        # each call derives a fresh Tolerance; the cache must key on its
        # value, not its identity, or every angle rebuilds the hull
        arc = generate_arc(30, 7, "zigzag")
        assert arc.tolerance() is not arc.tolerance()
        assert hash(arc.tolerance()) == hash(arc.tolerance())
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return convex_hull(*args, **kwargs)

        # the default tolerance is derived on a cache miss only
        tolerance = PolygonalArc.tolerance
        derived = []

        def counting_tolerance(self, *args, **kwargs):
            derived.append(self)
            return tolerance(self, *args, **kwargs)

        monkeypatch.setattr("arcsupport.oracle.convex_hull", counting)
        monkeypatch.setattr(PolygonalArc, "tolerance", counting_tolerance)
        _hull.cache_clear()
        for phi in (0.0, 10.0, 30.0, 45.0, 90.0, 135.0):
            brute_force_pairs(arc, phi)
        assert len(calls) == 1
        assert len(derived) == 1
