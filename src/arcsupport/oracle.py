"""Independent brute-force reference for support-line pairs.

Instead of the guide-path machinery, this module tries the hull edges as
the two-contact line m: for a prescribed angle it builds both rotated
candidate directions, takes the far-side support line n for each, and
keeps the configuration whenever n touches the arc at a node strictly
between m's contact nodes.  Contacts are hull vertices, so the search
skips the edges whose two nodes bracket no other hull vertex in arc
order: they yield no configuration at any angle.  Distinct configurations
can describe the same unordered pair of lines (this happens exactly at
strip-boundary angles), so the deduplicated pair list is reported
alongside the raw finds.
The search shares only the geometry and hull modules, and the hull itself,
with the solver; it never reads the guide path, locales or strip diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arcio import PolygonalArc
from .errors import UnsupportedArcError
from .geom import (DIRECTION_AGREE_DEG, Line, Point, Tolerance, lines_equal,
                   same_line_pair)
from .hull import ConvexHull, convex_hull, support_contact
from .solver import analyze_arc, solve_at_angle


@dataclass(frozen=True)
class OraclePair:
    m: Line
    n: Line
    u: int
    v: int
    w: int


@dataclass(frozen=True)
class AgreementReport:
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
    if not 0.0 <= phi_deg < 180.0:
        raise ValueError(f"angle must lie in [0, 180), got {phi_deg}")
    k = len(hull)
    # Contacts are hull vertices, so an edge whose two nodes are adjacent
    # in arc order among the hull's nodes has no contact between them.
    rank = {node: r for r, node in enumerate(sorted(hull.node_ids))}

    found: list[OraclePair] = []
    for i in range(k):
        node_a = hull.node_ids[i]
        node_b = hull.node_ids[(i + 1) % k]
        if abs(rank[node_a] - rank[node_b]) == 1:
            continue
        a = hull.points[i]
        edge_dir = hull.edge_dirs[i]
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


def brute_force_pairs(arc: PolygonalArc, phi_deg: float,
                      tol: Tolerance | None = None) -> list[OraclePair]:
    """Deduplicated unordered support-line pairs realizing ``phi_deg``."""
    if arc.closed:
        raise UnsupportedArcError("the brute-force search needs an open arc")
    hull = _hull(arc.nodes, tol)
    return _dedupe(brute_force_configs(hull, phi_deg), hull.tol)


@lru_cache(maxsize=1)
def _hull(nodes: tuple[Point, ...], tol: Tolerance | None) -> ConvexHull:
    """The hull of the last arc searched: callers sweep many angles over
    one arc, and the hull is immutable.  ``convex_hull`` derives the
    default tolerance for None, so only a cache miss pays for it."""
    return convex_hull(nodes, tol)


def _dedupe(configs: list[OraclePair], tol: Tolerance) -> list[OraclePair]:
    """The first configuration of each unordered pair of lines."""
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
    ``tol`` given with it must equal ``analysis.tol`` (else ValueError).
    """
    if analysis is None:
        analysis = analyze_arc(arc, tol)
    elif analysis.arc != arc or tol not in (None, analysis.tol):
        raise ValueError("analysis was made for a different arc or tolerance")
    solved = solve_at_angle(analysis, phi_deg)
    configs = brute_force_configs(analysis.hull, phi_deg)
    match = (analysis.tol.eps_len, DIRECTION_AGREE_DEG)
    deduped = _dedupe(configs, analysis.tol)

    def fail(message: str) -> AgreementReport:
        return AgreementReport(phi=phi_deg, case=solved.case,
                               solver_count=len(solved.pairs),
                               oracle_count=len(deduped),
                               ok=False, message=message)

    if len(solved.pairs) != len(deduped):
        return fail("pair counts differ")

    unmatched = list(deduped)
    for pair in solved.pairs:
        hit = next((other for other in unmatched
                    if same_line_pair(pair.m, pair.n, other.m, other.n,
                                      *match)), None)
        if hit is None:
            return fail(f"solver pair has no brute-force match at {phi_deg}")
        unmatched.remove(hit)

        role_hit = next(
            (c for c in configs
             if lines_equal(pair.m, c.m, *match)
             and lines_equal(pair.n, c.n, *match)), None)
        if role_hit is None:
            return fail(f"no role-preserving brute-force find at {phi_deg}")
        if {pair.u, pair.w} != {role_hit.u, role_hit.w}:
            return fail(f"contact nodes of m differ at angle {phi_deg}")
        if pair.v != role_hit.v:
            return fail(f"contact node of n differs at angle {phi_deg}")

    return AgreementReport(phi=phi_deg, case=solved.case,
                           solver_count=len(solved.pairs),
                           oracle_count=len(deduped), ok=True, message="")
