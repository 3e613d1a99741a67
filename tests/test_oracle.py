"""Tests for the brute-force reference and its solver comparison."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from helpers import (BAND_EDGE_ANGLES, BAND_REFUSAL, TINY_ANGLES,
                     angle_dist_mod180, jittered_grid_nodes)

from arcsupport import oracle
from arcsupport.arcgen import STRATEGIES, generate_arc
from arcsupport.arcio import PolygonalArc, validate_simple
from arcsupport.errors import (DegenerateHullError, InvalidArcError,
                               UnsupportedArcError)
from arcsupport.geom import Line, Tolerance, angle_problem
from arcsupport.hull import convex_hull, support_contact
from arcsupport.oracle import (
    AgreementReport,
    OraclePair,
    brute_force_configs,
    brute_force_pairs,
    compare_with_solver,
)
from arcsupport.solver import analyze_arc, solve_at_angle

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


def _forbid_hulls(monkeypatch):
    """Make every module that can build a hull raise instead."""
    def no_hull(*args, **kwargs):
        raise AssertionError("a hull was built")

    for module in ("hull", "solver", "oracle"):
        monkeypatch.setattr(f"arcsupport.{module}.convex_hull", no_hull)


class TestBruteForceCounts:
    @pytest.mark.parametrize("phi, expected", [
        (0.0, 1),
        (30.0, 2),
        (PHI_LEFT_PENTAGON, 2),
        (100.0, 0),
    ])
    def test_pentagon(self, pentagon_arc, phi, expected):
        analysis = analyze_arc(pentagon_arc)
        assert len(brute_force_pairs(analysis, phi)) == expected

    def test_parallel_pair_values(self, pentagon_arc):
        (pair,) = brute_force_pairs(analyze_arc(pentagon_arc), 0.0)
        assert {pair.u, pair.w} == {1, 3}
        assert pair.v == 2

    def test_square(self, square_arc):
        analysis = analyze_arc(square_arc)
        assert len(brute_force_pairs(analysis, 0.0)) == 1
        assert len(brute_force_pairs(analysis, 90.0)) == 2
        assert len(brute_force_pairs(analysis, 120.0)) == 0

    def test_coincidence_angle_dedupes(self, pentagon_arc):
        configs = brute_force_configs(convex_hull(pentagon_arc.nodes), DEG_ATAN_1_2)
        pairs = brute_force_pairs(analyze_arc(pentagon_arc), DEG_ATAN_1_2)
        assert len(configs) == 4      # each pair found in both roles
        assert len(pairs) == 2

    def test_generic_angle_no_duplicates(self, pentagon_arc):
        configs = brute_force_configs(convex_hull(pentagon_arc.nodes), 30.0)
        pairs = brute_force_pairs(analyze_arc(pentagon_arc), 30.0)
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
                if angle_problem(phi) is None:
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
            if angle_problem(phi) is None:
                assert (brute_force_configs(hull, phi)
                        == _all_edges_configs(hull, phi)), phi


class TestBruteForceValidity:
    def test_rejects_closed(self):
        # a closed arc cannot reach the oracle: brute_force_pairs takes an
        # Analysis, and only an open arc has one
        arc = PolygonalArc(((0, 0), (1, 0), (0, 1)), closed=True)
        with pytest.raises(UnsupportedArcError):
            analyze_arc(arc)

    def test_rejects_out_of_range_angle(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        with pytest.raises(ValueError):
            brute_force_pairs(analysis, 180.0)
        with pytest.raises(ValueError):
            brute_force_pairs(analysis, -1.0)

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
                if angle_problem(phi) is not None:
                    continue
                report = compare_with_solver(arc, phi, analysis=analysis)
                assert report.ok, (i, phi, report.message)

    def test_grid_agreement_small(self):
        arc = generate_arc(12, seed=12345, strategy="uncross")
        analysis = analyze_arc(arc)
        for phi10 in range(0, 1800, 75):
            report = compare_with_solver(arc, phi10 / 10.0, analysis=analysis)
            assert report.ok, report.message

    def test_given_analysis_builds_no_hull(self, pentagon_arc, monkeypatch):
        analysis = analyze_arc(pentagon_arc)
        _forbid_hulls(monkeypatch)
        for phi in (0.0, 30.0, 100.0):
            report = compare_with_solver(pentagon_arc, phi, analysis=analysis)
            assert report.ok, report.message

    def test_analysis_of_another_arc_rejected(self, pentagon_arc, square_arc):
        with pytest.raises(ValueError, match="different arc"):
            compare_with_solver(square_arc, 30.0,
                                analysis=analyze_arc(pentagon_arc))

    def test_analysis_of_an_equal_arc_accepted(self, pentagon_arc):
        # the arc is compared by value: an equal copy is the same arc
        analysis = analyze_arc(pentagon_arc)
        report = compare_with_solver(PolygonalArc(pentagon_arc.nodes), 30.0,
                                     analysis=analysis)
        assert report.ok, report.message

    def test_tolerance_other_than_the_analysis_rejected(self, pentagon_arc):
        analysis = analyze_arc(pentagon_arc)
        other = Tolerance(2 * analysis.tol.eps_len)
        with pytest.raises(ValueError, match="different arc or tolerance"):
            compare_with_solver(pentagon_arc, 30.0, other, analysis=analysis)
        report = compare_with_solver(pentagon_arc, 30.0, analysis.tol,
                                     analysis=analysis)
        assert report.ok, report.message

    # Jittered grid arcs that validate and whose hull keeps a vertex within
    # a few eps_len of its neighbours' line; both sides disagree at 0.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the oracle "
                       "finds a second pair where the solver finds one")
    def test_near_collinear_far_corner_agrees(self):
        arc = PolygonalArc([
            (1.9999999990024584, 1.0000000009812862),
            (1.9999999999538567, -5.438553401730275e-10),
            (0.9999999995376644, 4.1957918860748365e-10),
            (1.9999999998217555, 2.999999999466927),
            (1.0000000008430991, 0.9999999992441041)])
        report = compare_with_solver(arc, 0.0)
        assert report.ok, report.message

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the solver pair "
                       "of a sliver hull has no brute-force match")
    def test_sliver_hull_agrees(self):
        arc = PolygonalArc([
            (4.9999999945961235, 5.000000002174351),
            (3.9999999941325726, 4.000000009893777),
            (2.9999999917272717, 2.9999999972123157),
            (-1.6183397882444143e-09, -9.316618314308862e-09)])
        report = compare_with_solver(arc, 0.0)
        assert report.ok, report.message


def _shifted(line, dy):
    return Line(line.px, line.py + dy, line.dir_deg)


def _swapped(config):
    return config._replace(m=config.n, n=config.m)


class TestFailureMessages:
    """Each verdict of compare_with_solver on crafted raw configurations
    for the pentagon at 30 degrees, whose two solver pairs the oracle
    finds as configs a and b, in that order."""

    @pytest.fixture
    def judge(self, pentagon_arc, monkeypatch):
        analysis = analyze_arc(pentagon_arc)
        a, b = brute_force_configs(analysis.hull, 30.0)

        def judge(make):
            monkeypatch.setattr(oracle, "brute_force_configs",
                                lambda hull, phi: make(a, b))
            return compare_with_solver(pentagon_arc, 30.0,
                                       analysis=analysis)
        return judge

    @pytest.mark.parametrize("make", [
        lambda a, b: [a, b],
        # m's contacts are an unordered pair
        lambda a, b: [a._replace(u=a.w, w=a.u), b],
        # the unordered match is the swapped config, the role-preserving
        # find the later one, whose nodes are the ones checked
        lambda a, b: [_swapped(a), a, b],
        lambda a, b: [_swapped(a)._replace(v=99), a, b],
        # only the first role-preserving config is read
        lambda a, b: [a, a._replace(v=99), b],
        lambda a, b: [a, b, b._replace(v=99)],
        # the first pair's hit is not configs[0]: the role scan passes
        # over another pair's config to reach it
        lambda a, b: [b, a],
    ])
    def test_agreement(self, judge, make):
        report = judge(make)
        assert report.ok, report.message
        assert report.message == ""

    @pytest.mark.parametrize("make, message", [
        (lambda a, b: [], "pair counts differ"),
        (lambda a, b: [a], "pair counts differ"),
        (lambda a, b: [a, b, a._replace(n=_shifted(a.n, 1.0))],
         "pair counts differ"),
        (lambda a, b: [a._replace(n=_shifted(a.n, 1.0)), b],
         "solver pair has no brute-force match at 30.0"),
        (lambda a, b: [a, b._replace(m=_shifted(b.m, 1.0))],
         "solver pair has no brute-force match at 30.0"),
        (lambda a, b: [_swapped(a), _swapped(b)],
         "no role-preserving brute-force find at 30.0"),
        (lambda a, b: [a, _swapped(b)],
         "no role-preserving brute-force find at 30.0"),
        # the pairs are judged in turn, each through all its checks
        (lambda a, b: [_swapped(a), b._replace(n=_shifted(b.n, 1.0))],
         "no role-preserving brute-force find at 30.0"),
        (lambda a, b: [a._replace(u=7), b],
         "contact nodes of m differ at angle 30.0"),
        (lambda a, b: [a, b._replace(w=a.u)],
         "contact nodes of m differ at angle 30.0"),
        (lambda a, b: [a._replace(u=7, v=99), b],
         "contact nodes of m differ at angle 30.0"),
        (lambda a, b: [a._replace(v=99), b],
         "contact node of n differs at angle 30.0"),
        (lambda a, b: [a, b._replace(v=a.v)],
         "contact node of n differs at angle 30.0"),
        # a later config with the right nodes does not rescue the first
        (lambda a, b: [a._replace(v=99), a, b],
         "contact node of n differs at angle 30.0"),
        (lambda a, b: [a, b._replace(u=7), b],
         "contact nodes of m differ at angle 30.0"),
    ])
    def test_failure(self, judge, make, message):
        report = judge(make)
        assert not report.ok
        assert report.message == message
        assert (report.phi, report.case, report.solver_count) == (30.0, "B",
                                                                  2)

    def test_failure_reports_the_deduplicated_count(self, judge):
        report = judge(lambda a, b: [a, _swapped(a), a])
        assert report._asdict() == {
            "phi": 30.0, "case": "B", "solver_count": 2, "oracle_count": 1,
            "ok": False, "message": "pair counts differ"}


def test_pairs_read_only_the_given_hull_and_tolerance(monkeypatch):
    analysis = analyze_arc(generate_arc(30, 7, "zigzag"))
    stand_in = SimpleNamespace(hull=analysis.hull, tol=analysis.tol)
    _forbid_hulls(monkeypatch)
    for phi in (0.0, 10.0, 30.0, 45.0, 90.0, 135.0):
        pairs = brute_force_pairs(analysis, phi)
        assert len(pairs) == len(solve_at_angle(analysis, phi).pairs)
        assert brute_force_pairs(stand_in, phi) == pairs


# SHA-256 over every per-angle output on the criterion-4 arcs: the
# agreement report, the solve JSON, the raw configurations and each pair's
# apex; it changes only when a change to those outputs is intended
PER_ANGLE_DIGEST = \
    "ce66e216661100cacf950773a6d5046069dac12afe86b4c64fd6882c40f4e518"


def test_per_angle_output_digest():
    h = hashlib.sha256()
    for i, n in enumerate(range(5, 51)):
        arc = generate_arc(n, n, STRATEGIES[i % 2])
        analysis = analyze_arc(arc)
        table = analysis.table
        for phi in ([float(g) for g in range(180)]
                    + [table.phi_left, -table.phi_right]):
            report = compare_with_solver(arc, phi, analysis=analysis)
            solved = solve_at_angle(analysis, phi)
            configs = brute_force_configs(analysis.hull, phi)
            apexes = [(p.apex, p.apex_side) for p in solved.pairs]
            h.update(repr((report._asdict(), solved.to_json_dict(),
                           configs, apexes)).encode())
    assert h.hexdigest() == PER_ANGLE_DIGEST


class TestRecords:
    """Oracle results are immutable NamedTuples."""

    def test_oracle_pair(self, pentagon_arc):
        hull = convex_hull(pentagon_arc.nodes)
        config = brute_force_configs(hull, 30.0)[0]
        assert OraclePair(*config) == config
        assert OraclePair(m=config.m, n=config.n, u=config.u, v=config.v,
                          w=config.w) == config
        assert config._replace(v=99) == (config.m, config.n, config.u, 99,
                                         config.w)
        with pytest.raises(AttributeError):
            config.v = 99

    def test_agreement_report(self, pentagon_arc):
        report = compare_with_solver(pentagon_arc, 30.0)
        assert AgreementReport(*report) == report
        assert AgreementReport(phi=30.0, case="B", solver_count=2,
                               oracle_count=2, ok=True, message="") == report
        failed = report._replace(ok=False, message="pair counts differ")
        assert (failed.ok, failed.message, failed.phi) == (
            False, "pair counts differ", 30.0)
        with pytest.raises(AttributeError):
            report.ok = False

    def test_report_fields_in_cli_order(self, pentagon_arc):
        golden = Path(__file__).parent / "data/readme/oracle/stdout"
        report = compare_with_solver(pentagon_arc, 30.0)
        assert list(report._asdict()) == list(json.loads(golden.read_text()))
        assert json.dumps(report._asdict(), indent=2) + "\n" == \
            golden.read_text()


class TestTinyAngles:
    """The oracle refuses the angles the solver refuses."""

    @pytest.mark.parametrize("phi", TINY_ANGLES)
    def test_refused(self, pentagon_arc, phi):
        analysis = analyze_arc(pentagon_arc)
        with pytest.raises(ValueError, match=BAND_REFUSAL):
            brute_force_configs(analysis.hull, phi)
        with pytest.raises(ValueError, match=BAND_REFUSAL):
            compare_with_solver(pentagon_arc, phi, analysis=analysis)

    @pytest.mark.parametrize("phi", BAND_EDGE_ANGLES)
    def test_band_edge_agrees(self, pentagon_arc, phi):
        report = compare_with_solver(pentagon_arc, phi)
        assert report.ok, report.message
        assert (report.case, report.solver_count) == ("B", 2)
