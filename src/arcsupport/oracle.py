"""Independent brute-force reference for support-line pairs.

Instead of the guide-path machinery, this module tries the hull edges as
the two-contact line m.  For a prescribed angle it takes both rotated
candidate directions and finds the hull vertices that the far-side support
line n of each touches, with one bisection per direction.  Only when one of
those vertices is a node strictly between m's contact nodes is n built, from
the same vertices and by the anchor rule that ``support_contact`` applies.
Contacts are hull vertices, so the search skips the edges whose two nodes
bracket no other hull vertex in arc order: they yield no configuration at
any angle; the bracketing edges are worked out once per hull.  Distinct
configurations can describe one unordered pair of lines (exactly at
strip-boundary angles), so the deduplicated pair list is reported
alongside the raw finds.
The search shares only the geometry and hull modules, and the hull itself,
with the solver: of an ``Analysis`` it reads ``hull`` and ``tol`` and never
the guide path, locales or strip diagram.
"""

from __future__ import annotations

from typing import NamedTuple

from .arcio import PolygonalArc
from .geom import (DIRECTION_AGREE_DEG, Line, Tolerance, angle_problem,
                   lines_equal, same_line_pair)
# unused here, but bench/test_bench.py checks the tracer wraps it here too
from .hull import (ConvexHull, anchor_contact, convex_hull,  # noqa: F401
                   support_vertices)
from .solver import Analysis, analyze_arc, solve_at_angle


class OraclePair(NamedTuple):
    m: Line
    n: Line
    u: int
    v: int
    w: int


class AgreementReport(NamedTuple):
    phi: float
    case: str
    solver_count: int
    oracle_count: int
    ok: bool
    message: str


def brute_force_configs(hull: ConvexHull, phi_deg: float) -> list[OraclePair]:
    """Every raw (m, n) configuration realizing ``phi_deg`` on the hull of
    an open arc, before merging duplicates; u and w follow the hull's
    counterclockwise edge orientation."""
    if (problem := angle_problem(phi_deg)) is not None:
        raise ValueError(f"angle {problem}, got {phi_deg}")
    found: list[OraclePair] = []
    node_ids = hull.node_ids
    for m, node_a, node_b, lo, hi in _bracketing_edges(hull):
        for d in ((m.dir_deg,) if phi_deg == 0.0
                  else (m.dir_deg + phi_deg, m.dir_deg - phi_deg)):
            ids = support_vertices(hull, d, "right")
            v = hi      # the smallest contact node strictly between lo and hi
            for i in ids:
                if lo < (c := node_ids[i]) < v:
                    v = c
            if v != hi:
                n = anchor_contact(hull, ids, d).line
                found.append(OraclePair(m, n, node_a, v, node_b))
    return found


_last_brackets: tuple = (None, ())


def _bracketing_edges(hull: ConvexHull) -> tuple:
    """(m, node_a, node_b, lo, hi) per hull edge whose nodes bracket
    another hull vertex in arc order, kept for the last hull by identity:
    a sweep asks one hull at every angle, and hashing it is not cheap."""
    global _last_brackets
    last, edges = _last_brackets
    if last is not hull:
        ids = hull.node_ids
        rank = {node: r for r, node in enumerate(sorted(ids))}
        edges = tuple((Line(a.x, a.y, d), u, w, min(u, w), max(u, w))
                      for a, d, u, w in zip(hull.points, hull.edge_dirs,
                                            ids, ids[1:] + ids[:1])
                      if abs(rank[u] - rank[w]) != 1)
        _last_brackets = (hull, edges)
    return edges


def brute_force_pairs(analysis: Analysis, phi_deg: float) -> list[OraclePair]:
    """Deduplicated unordered support-line pairs realizing ``phi_deg``."""
    return _dedupe(brute_force_configs(analysis.hull, phi_deg), analysis.tol)


def _dedupe(configs: list[OraclePair], tol: Tolerance) -> list[OraclePair]:
    """The first configuration of each unordered pair of lines."""
    if len(configs) < 2:
        return configs
    kept: list[OraclePair] = []
    for c in configs:
        if not any(same_line_pair(c.m, c.n, k.m, k.n, tol.eps_len,
                                  tol.eps_angle) for k in kept):
            kept.append(c)
    return kept


def compare_with_solver(arc: PolygonalArc, phi_deg: float,
                        tol: Tolerance | None = None,
                        analysis=None) -> AgreementReport:
    """Solve the same instance both ways and check the results coincide.

    Checks three things: the unordered pair counts are equal; each solver
    pair matches a distinct brute-force pair up to role swap; and each
    solver pair appears among the raw configurations with the same roles
    and the same contact nodes.  Line agreement means directions within
    ``DIRECTION_AGREE_DEG`` degrees (mod 180) and anchor offset within the
    length tolerance.  A given ``analysis`` must be that of ``arc``, and a
    given ``tol`` must equal ``arc.tolerance()`` (else ValueError).
    """
    if analysis is None:
        analysis = analyze_arc(arc)
    own_tol = analysis.hull.tol
    if ((analysis.arc is not arc and analysis.arc != arc)
            or tol not in (None, own_tol)):
        raise ValueError("analysis or tol is for a different arc or tolerance")
    solved = solve_at_angle(analysis, phi_deg)
    configs = brute_force_configs(analysis.hull, phi_deg)
    eps, agree = own_tol.eps_len, DIRECTION_AGREE_DEG
    deduped = _dedupe(configs, own_tol)
    if len(solved.pairs) != len(deduped):
        return AgreementReport(phi_deg, solved.case, len(solved.pairs),
                               len(deduped), False, "pair counts differ")

    message = ""
    unmatched = list(deduped)
    for pair in solved.pairs:
        # same_line_pair written out, keeping whether the roles matched
        for hit in unmatched:
            same_roles = (lines_equal(pair.m, hit.m, eps, agree)
                          and lines_equal(pair.n, hit.n, eps, agree))
            if same_roles or (lines_equal(pair.m, hit.n, eps, agree)
                              and lines_equal(pair.n, hit.m, eps, agree)):
                break
        else:
            message = f"solver pair has no brute-force match at {phi_deg}"
            break
        unmatched.remove(hit)

        # the first config with the pair's roles; the hit's were tested above
        for role_hit in configs:
            if role_hit is hit:
                if same_roles:
                    break
            elif (lines_equal(pair.m, role_hit.m, eps, agree)
                  and lines_equal(pair.n, role_hit.n, eps, agree)):
                break
        else:
            message = f"no role-preserving brute-force find at {phi_deg}"
            break
        if {pair.u, pair.w} != {role_hit.u, role_hit.w}:
            message = f"contact nodes of m differ at angle {phi_deg}"
            break
        if pair.v != role_hit.v:
            message = f"contact node of n differs at angle {phi_deg}"
            break

    return AgreementReport(phi_deg, solved.case, len(solved.pairs),
                           len(deduped), not message, message)
