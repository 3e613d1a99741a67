"""Support-line pair analysis for simple polygonal arcs.

Given a simple open polygonal arc, this package builds the convex hull,
the guide path over it, the locale decomposition with its tilt/span
table, and a strip diagram from which every pair of support lines
meeting at a prescribed angle (one line touching the arc strictly
between the other's two contacts) is read off and realized as concrete
geometry.  A brute-force oracle, seeded fuzzing, and SVG rendering round
out the toolkit.
"""

from .arcio import (PolygonalArc, ValidationReport, Violation, is_segment_arc,
                    load_arc, parse_arc, validate_simple)
from .arcgen import RNG_ALGORITHM, generate_arc
from .errors import (ArcSupportError, DegenerateHullError, GenerationError,
                     InvalidArcError, ParseError, StructuralViolationError,
                     UnsupportedArcError)
from .geom import Line, Point, Tolerance
from .guidepath import (GuidePath, Link, build_guide_path,
                        enumerate_admissible_paths)
from .hull import ConvexHull, SupportContact, convex_hull, support_contact
from .locales import (Locale, LocaleDecomposition, TiltTable,
                      decompose_locales, tilt_table)
from .oracle import (AgreementReport, OraclePair, brute_force_configs,
                     brute_force_pairs, compare_with_solver)
from .report import AnalysisReport
from .schematic import (AbstractSolution, AngleQuery, SchematicDiagram, Strip,
                        build_schematic, query_angle)
from .solver import (Analysis, SolutionSet, SupportPairSolution, analyze_arc,
                     realize_solution, solve_at_angle, solve_closed)
from .svg import render_scene, render_scene_for, render_schematic

__version__ = "0.1.0"

__all__ = [
    "AbstractSolution", "AgreementReport", "Analysis", "AnalysisReport",
    "AngleQuery", "ArcSupportError", "ConvexHull", "DegenerateHullError",
    "GenerationError", "GuidePath", "InvalidArcError", "Line", "Link",
    "Locale", "LocaleDecomposition", "OraclePair", "ParseError", "Point",
    "PolygonalArc", "RNG_ALGORITHM", "SchematicDiagram", "SolutionSet",
    "StructuralViolationError", "Strip", "SupportContact",
    "SupportPairSolution", "TiltTable", "Tolerance", "UnsupportedArcError",
    "ValidationReport", "Violation", "analyze_arc", "brute_force_configs",
    "brute_force_pairs", "build_guide_path", "build_schematic",
    "compare_with_solver", "convex_hull", "decompose_locales",
    "enumerate_admissible_paths", "generate_arc", "is_segment_arc", "load_arc",
    "parse_arc", "query_angle", "realize_solution", "render_scene",
    "render_scene_for", "render_schematic", "solve_at_angle", "solve_closed",
    "support_contact", "tilt_table", "validate_simple", "__version__",
]
