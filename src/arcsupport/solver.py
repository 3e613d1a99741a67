"""End-to-end analysis and support-line pair solving.

``analyze_arc`` runs the full pipeline (hull, guide path, locales, tilt
table, strip diagram) on an open arc.  ``solve_at_angle`` finds every
unordered pair of support lines meeting at a prescribed angle such that
one line touches the arc somewhere strictly between the other line's two
contact nodes; at angle 0 it always yields exactly one pair.
``solve_closed`` handles closed arcs, where only the parallel pair is
defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arcio import PolygonalArc, validate_simple
from .errors import InvalidArcError, UnsupportedArcError, ensure
from .geom import (DEFAULT_EPS_ANGLE, DIRECTION_AGREE_DEG, Line, Point,
                   Tolerance, lines_intersection, normalize_angle,
                   same_line_pair, unit_vector)
from .guidepath import GuidePath, build_guide_path
from .hull import ConvexHull, convex_hull, support_contact
from .locales import (LocaleDecomposition, TiltTable, decompose_locales,
                      tilt_table)
from .schematic import (AbstractSolution, SchematicDiagram, build_schematic,
                        query_angle)

SCHEMA_VERSION = 1          # the "schema" field of the solve and analyze JSON


@dataclass(frozen=True)
class Analysis:
    """Everything derived from one open arc; ``tol`` is the hull's."""

    arc: PolygonalArc
    hull: ConvexHull
    guide: GuidePath
    decomposition: LocaleDecomposition
    table: TiltTable
    diagram: SchematicDiagram

    @property
    def tol(self) -> Tolerance:
        return self.hull.tol

    @cached_property
    def bases(self) -> tuple[tuple, ...]:
        """Per locale, what ``realize_solution`` reads at every angle:
        (base line m from the base's earlier end, node_u, node_w, m's unit
        vector mu, base length along mu, contact side)."""
        hull, sigma = self.hull, self.guide.sigma
        bases = []
        for locale in self.decomposition.locales:
            hu, hw = locale.base
            pu, pw = hull.points[hu], hull.points[hw]
            m = Line(pu.x, pu.y, hull.edge_dir(hu, hw))
            mu = unit_vector(m.dir_deg)
            bases.append((
                m, hull.node_ids[hu], hull.node_ids[hw], mu,
                (pw.x - pu.x) * mu.x + (pw.y - pu.y) * mu.y,
                "right" if sigma * locale.cap_sign > 0 else "left"))
        return tuple(bases)


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
            "schema": SCHEMA_VERSION,
            "phi": self.phi,
            "case": self.case,
            "pairs": [p.to_json_dict() for p in self.pairs],
        }
        if self.table is not None:
            out["tilt_table"] = self.table.to_dict()
        return out


def simple_hull(arc: PolygonalArc) -> ConvexHull:
    """The strict hull of a simple arc under ``arc.tolerance()``;
    InvalidArcError names the first simplicity violation otherwise."""
    report = validate_simple(arc)
    if not report.ok:
        more = len(report.violations) - 1
        raise InvalidArcError(
            f"arc is not simple: {report.violations[0].detail}"
            + (f" (+{more} more)" if more else ""))
    return convex_hull(arc.nodes, arc.tolerance())


def analyze_arc(arc: PolygonalArc) -> Analysis:
    if arc.closed:
        raise UnsupportedArcError(
            "full analysis requires an open arc; for a closed arc's parallel "
            "pair, run 'arcsupport solve --phi 0' or call solve_closed()")
    hull = simple_hull(arc)
    guide = build_guide_path(hull)
    decomp = decompose_locales(guide)
    table = tilt_table(decomp)
    diagram = build_schematic(table)
    return Analysis(arc=arc, hull=hull, guide=guide,
                    decomposition=decomp, table=table, diagram=diagram)


def realize_solution(analysis: Analysis,
                     abstract: AbstractSolution) -> SupportPairSolution:
    """Turn a diagram solution into concrete lines and contact nodes."""
    guide = analysis.guide
    m, node_u, node_w, mu, length, side = \
        analysis.bases[abstract.locale_index - 1]

    n_dir = normalize_angle(guide.axis_deg + guide.sigma
                            * abstract.contact_angle)
    contact = support_contact(analysis.hull, n_dir, side)

    node_v = node_w     # the smallest contact strictly between u and w
    for c in contact.node_ids:
        if node_u < c < node_v:
            node_v = c
    ensure(node_v != node_w,
           "no contact of the rotating line lies strictly between the "
           "base contacts")

    gap = abs(normalize_angle(contact.line.dir_deg - m.dir_deg))
    ensure(abs(gap - abs(abstract.ordinate)) <= DIRECTION_AGREE_DEG,
           "realized lines do not meet at the prescribed angle")

    apex = lines_intersection(m, contact.line)
    if apex is None:
        apex_side = "none"
    else:
        along = (apex.x - m.px) * mu.x + (apex.y - m.py) * mu.y
        eps = analysis.hull.tol.eps_len
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
    return SupportPairSolution(m, contact.line, node_u, node_v, node_w,
                               abstract.locale_index, apex, apex_side)


def solve_at_angle(analysis: Analysis, phi_deg: float) -> SolutionSet:
    """All unordered support-line pairs realizing ``phi_deg`` degrees."""
    case, solutions = query_angle(analysis.diagram, phi_deg)
    pairs = tuple([realize_solution(analysis, sol) for sol in solutions])
    if len(pairs) == 2:
        a, b = pairs
        ensure(not same_line_pair(a.m, a.n, b.m, b.n, analysis.tol.eps_len,
                                  DEFAULT_EPS_ANGLE),
               "the two solutions collapse to one line pair")
    return SolutionSet(phi_deg, case, pairs, analysis.table)


def solve_closed(arc: PolygonalArc) -> SolutionSet:
    """Parallel support pair of a closed arc; see ``solve_closed_hull``."""
    if not arc.closed:
        raise UnsupportedArcError("solve_closed requires a closed arc")
    return solve_closed_hull(simple_hull(arc))


def solve_closed_hull(hull: ConvexHull) -> SolutionSet:
    """Parallel support pair of a closed arc from the hull that
    ``simple_hull`` built for it.

    m runs along the first hull edge out of the lowest-leftmost node; n is
    the opposite parallel support line and v its first contact along the
    shared direction.  Closed arcs carry no betweenness requirement.
    """
    pu = hull.points[0]
    m = Line(pu.x, pu.y, hull.edge_dirs[0])
    contact = support_contact(hull, m.dir_deg, "right")
    pair = SupportPairSolution(
        m=m, n=contact.line, u=hull.node_ids[0], v=contact.node_ids[0],
        w=hull.node_ids[1], locale=None, apex=None, apex_side="none")
    return SolutionSet(phi=0.0, case="A", pairs=(pair,), table=None)
