"""End-to-end analysis and support-line pair solving.

``analyze_arc`` runs the full pipeline (hull, guide path, locales, tilt
table, strip diagram) on an open arc.  ``solve_at_angle`` finds every
unordered pair of support lines meeting at a prescribed angle such that
one line touches the arc somewhere strictly between the other line's two
contact nodes; ``solve_parallel`` is the zero-angle case and always yields
exactly one pair.  ``solve_closed`` handles closed arcs, where only the
parallel pair is defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arcio import PolygonalArc, validate_simple
from .errors import InvalidArcError, UnsupportedArcError, ensure
from .geom import (Line, Point, Tolerance, lines_intersection, normalize_angle,
                   same_line_pair, unit_vector)
from .guidepath import GuidePath, build_guide_path
from .hull import ConvexHull, convex_hull, support_contact
from .locales import (LocaleDecomposition, TiltTable, decompose_locales,
                      tilt_table)
from .schematic import (AbstractSolution, SchematicDiagram, build_schematic,
                        query_angle)

ANGLE_CHECK_SLACK = 1e-6


@dataclass(frozen=True)
class Analysis:
    """Everything derived from one open arc."""

    arc: PolygonalArc
    tol: Tolerance
    hull: ConvexHull
    guide: GuidePath
    decomposition: LocaleDecomposition
    table: TiltTable
    diagram: SchematicDiagram


@dataclass(frozen=True)
class SupportPairSolution:
    """One realized pair: line m touches the arc at nodes u and w, line n
    touches it at node v, and v lies strictly between u and w along the
    arc (closed arcs waive the betweenness)."""

    m: Line
    n: Line
    u: int
    v: int
    w: int
    locale: int | None
    apex: Point | None
    apex_side: str          # 'left', 'right', or 'none'
    ordinate: float

    def to_json_dict(self) -> dict:
        return {
            "m": {"px": self.m.px, "py": self.m.py, "dir_deg": self.m.dir_deg},
            "n": {"px": self.n.px, "py": self.n.py, "dir_deg": self.n.dir_deg},
            "u": self.u,
            "v": self.v,
            "w": self.w,
            "locale": self.locale,
            "apex_side": self.apex_side,
        }


@dataclass(frozen=True)
class SolutionSet:
    phi: float
    case: str
    pairs: tuple[SupportPairSolution, ...]
    table: TiltTable | None

    def to_json_dict(self) -> dict:
        out = {
            "schema": 1,
            "phi": self.phi,
            "case": self.case,
            "pairs": [p.to_json_dict() for p in self.pairs],
        }
        if self.table is not None:
            out["tilt_table"] = self.table.to_dict()
        return out


def _require_simple(arc: PolygonalArc, tol: Tolerance) -> None:
    """Raise InvalidArcError naming the first simplicity violation."""
    report = validate_simple(arc, tol)
    if not report.ok:
        more = len(report.violations) - 1
        raise InvalidArcError(
            f"arc is not simple: {report.violations[0].detail}"
            + (f" (+{more} more)" if more else ""))


def analyze_arc(arc: PolygonalArc, tol: Tolerance | None = None) -> Analysis:
    if arc.closed:
        raise UnsupportedArcError(
            "full analysis requires an open arc; use solve_closed instead")
    tol = tol or arc.tolerance()
    _require_simple(arc, tol)
    hull = convex_hull(arc.nodes, tol)
    guide = build_guide_path(hull)
    decomp = decompose_locales(guide)
    table = tilt_table(decomp)
    diagram = build_schematic(table)
    return Analysis(arc=arc, tol=tol, hull=hull, guide=guide,
                    decomposition=decomp, table=table, diagram=diagram)


def realize_solution(analysis: Analysis,
                     abstract: AbstractSolution) -> SupportPairSolution:
    """Turn a diagram solution into concrete lines and contact nodes."""
    guide = analysis.guide
    hull = analysis.hull
    sigma = guide.sigma
    locale = analysis.decomposition.locales[abstract.locale_index - 1]
    hu, hw = locale.base
    pu, pw = hull.points[hu], hull.points[hw]
    node_u, node_w = hull.node_ids[hu], hull.node_ids[hw]

    m = Line(pu.x, pu.y, hull.edge_dir(hu, hw))

    n_dir = normalize_angle(guide.axis_deg + sigma * abstract.contact_angle)
    side = "right" if sigma * locale.cap_sign > 0 else "left"
    contact = support_contact(hull, n_dir, side)

    candidates = [c for c in contact.node_ids if node_u < c < node_w]
    ensure(len(candidates) > 0,
           "no contact of the rotating line lies strictly between the "
           "base contacts")
    node_v = min(candidates)
    cap_nodes = {hull.node_ids[h] for h in locale.cap}
    ensure(node_v in cap_nodes, "chosen contact is outside the locale's cap")

    gap = abs(normalize_angle(contact.line.dir_deg - m.dir_deg))
    ensure(abs(gap - abs(abstract.ordinate)) <= ANGLE_CHECK_SLACK,
           "realized lines do not meet at the prescribed angle")

    apex = lines_intersection(m, contact.line, analysis.tol.eps_angle)
    if apex is None:
        apex_side = "none"
    else:
        mu = unit_vector(m.dir_deg)
        along = (apex.x - pu.x) * mu.x + (apex.y - pu.y) * mu.y
        length = (pw.x - pu.x) * mu.x + (pw.y - pu.y) * mu.y
        eps = analysis.tol.eps_len
        # The rotating line keeps both base contacts on one side, so it
        # can only cross the base line beyond one end of the contact
        # segment: before u ('left') or past w ('right').
        ensure(along <= eps or along >= length - eps,
               "apex falls strictly between the base contacts")
        mid = 0.5 * length
        if abs(along - mid) <= eps:
            # Razor-short base; take the side the pair is approaching.
            apex_side = "left" if abstract.ordinate > 0 else "right"
        elif along < mid:
            apex_side = "left"
        else:
            apex_side = "right"
    return SupportPairSolution(m=m, n=contact.line, u=node_u, v=node_v,
                               w=node_w, locale=locale.index, apex=apex,
                               apex_side=apex_side,
                               ordinate=abstract.ordinate)


def solve_at_angle(analysis: Analysis, phi_deg: float) -> SolutionSet:
    """All unordered support-line pairs realizing ``phi_deg`` degrees."""
    query = query_angle(analysis.diagram, phi_deg, analysis.tol.eps_angle)
    pairs = tuple(realize_solution(analysis, sol) for sol in query.solutions)
    if len(pairs) == 2:
        a, b = pairs
        ensure(not same_line_pair(a.m, a.n, b.m, b.n, analysis.tol),
               "the two solutions collapse to one line pair")
    return SolutionSet(phi=phi_deg, case=query.case, pairs=pairs,
                       table=analysis.table)


def solve_parallel(analysis: Analysis) -> SolutionSet:
    """The unique pair of parallel support lines with a contact strictly
    between two contacts of the other line."""
    result = solve_at_angle(analysis, 0.0)
    ensure(len(result.pairs) == 1, "parallel case must yield exactly one pair")
    return result


def solve_closed(arc: PolygonalArc,
                 tol: Tolerance | None = None) -> SolutionSet:
    """Parallel support pair of a closed arc.

    m runs along the first hull edge out of the lowest-leftmost node; n is
    the opposite parallel support line and v its first contact along the
    shared direction.  Closed arcs carry no betweenness requirement.
    """
    if not arc.closed:
        raise UnsupportedArcError("solve_closed requires a closed arc")
    tol = tol or arc.tolerance()
    _require_simple(arc, tol)
    hull = convex_hull(arc.nodes, tol)
    pu = hull.points[0]
    m = Line(pu.x, pu.y, hull.edge_dirs[0])
    contact = support_contact(hull, m.dir_deg, "right")
    pair = SupportPairSolution(
        m=m, n=contact.line, u=hull.node_ids[0], v=contact.node_ids[0],
        w=hull.node_ids[1], locale=None, apex=None, apex_side="none",
        ordinate=0.0)
    return SolutionSet(phi=0.0, case="A", pairs=(pair,), table=None)
