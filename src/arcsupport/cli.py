"""Command-line interface.

Subcommands: validate, analyze, solve, oracle, render, fuzz.  Exit codes:
0 success, 2 usage error, 3 invalid or unsupported arc, 4 internal
structural violation, 5 solver/brute-force disagreement.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable

from .arcgen import RNG_ALGORITHM, STRATEGIES, generate_arc
from .arcio import load_arc, validate_simple
from .errors import (ArcSupportError, StructuralViolationError,
                     UnsupportedArcError)
from .geom import DEFAULT_EPS_ANGLE
from .hull import convex_hull
from .oracle import compare_with_solver
from .report import AnalysisReport, solution_csv, tilt_table_csv
from .schematic import query_angle
from .solver import analyze_arc, solve_at_angle, solve_closed
from .svg import render_scene, render_scene_for, render_schematic

EXIT_OK = 0
EXIT_INVALID_ARC = 3
EXIT_STRUCTURAL = 4
EXIT_DISAGREEMENT = 5
MIN_PHI_STEP = 0.01         # --phi-grid makes at most 180 / 0.01 angles


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    report = validate_simple(arc, arc.tolerance(args.eps, args.eps_angle))
    if args.format == "csv":
        lines = ["kind,indices,detail"]
        for v in report.violations:
            idx = " ".join(str(i) for i in v.indices)
            lines.append(f"{v.kind},{idx},{v.detail}")
        print("\n".join(lines))
    else:
        print(json.dumps({
            "ok": report.ok,
            "violations": [{"kind": v.kind, "indices": list(v.indices),
                            "detail": v.detail} for v in report.violations],
        }, indent=2))
    return EXIT_OK if report.ok else EXIT_INVALID_ARC


def _cmd_analyze(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    analysis = analyze_arc(arc, arc.tolerance(args.eps, args.eps_angle))
    report = AnalysisReport.from_analysis(analysis)
    if args.json:
        _write(args.json, report.to_json() + "\n")
    if args.format == "csv":
        print(tilt_table_csv(report), end="")
    else:
        print(report.to_json())
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    tol = arc.tolerance(args.eps, args.eps_angle)
    if arc.closed:
        if args.phi != 0.0:
            raise UnsupportedArcError("closed arcs support only --phi 0")
        solution = solve_closed(arc, tol)
        analysis = None
    else:
        analysis = analyze_arc(arc, tol)
        solution = solve_at_angle(analysis, args.phi)

    text = json.dumps(solution.to_json_dict(), indent=2)
    if args.json:
        _write(args.json, text + "\n")
    if args.format == "csv":
        print(solution_csv(solution), end="")
    else:
        print(text)

    if args.svg:
        if analysis is None:
            hull = convex_hull(arc.nodes, tol)
            _write(f"{args.svg}.scene.svg",
                   render_scene(arc, hull, None, solution))
        else:
            _write(f"{args.svg}.scene.svg",
                   render_scene_for(analysis, solution))
            query = query_angle(analysis.diagram, args.phi, tol.eps_angle)
            _write(f"{args.svg}.schematic.svg",
                   render_schematic(analysis.diagram, query))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    tol = arc.tolerance(args.eps, args.eps_angle)
    report = compare_with_solver(arc, args.phi, tol)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return EXIT_OK if report.ok else EXIT_DISAGREEMENT


def _cmd_render(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    tol = arc.tolerance(args.eps, args.eps_angle)
    if args.what == "scene" and arc.closed:
        hull = convex_hull(arc.nodes, tol)
        _write(f"{args.svg}.scene.svg", render_scene(arc, hull))
        return EXIT_OK
    analysis = analyze_arc(arc, tol)
    if args.what == "scene":
        _write(f"{args.svg}.scene.svg", render_scene_for(analysis))
    else:
        _write(f"{args.svg}.schematic.svg",
               render_schematic(analysis.diagram))
    return EXIT_OK


def _parse_nodes(spec: str) -> tuple[int, int]:
    if "-" in spec:
        lo_text, hi_text = spec.split("-", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(spec)
    if lo < 3 or hi < lo:
        raise argparse.ArgumentTypeError(
            f"bad node count or range {spec!r}")
    return (lo, hi)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    lo, hi = args.nodes
    grid: list[float] = []
    step = args.phi_grid
    while step is not None and len(grid) * step < 180.0:
        grid.append(len(grid) * step)

    failures: list[dict] = []
    checks = 0
    for i in range(args.count):
        nodes = lo + i % (hi - lo + 1)
        if args.strategy == "mixed":
            strategy = STRATEGIES[i % len(STRATEGIES)]
        else:
            strategy = args.strategy
        arc = generate_arc(nodes, args.seed + i, strategy)
        analysis = analyze_arc(arc)
        angles = [0.0] + grid + [analysis.table.phi_left,
                                 -analysis.table.phi_right]
        for phi in angles:
            result = compare_with_solver(arc, phi, analysis.tol,
                                         analysis=analysis)
            checks += 1
            if not result.ok:
                failures.append({"seed": args.seed + i, "nodes": nodes,
                                 "strategy": strategy, "phi": phi,
                                 "message": result.message})

    print(json.dumps({
        "rng": RNG_ALGORITHM,
        "seed": args.seed,
        "count": args.count,
        "nodes": f"{lo}-{hi}",
        "strategy": args.strategy,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }, indent=2))
    return EXIT_OK if not failures else EXIT_DISAGREEMENT


def _number(convert: Callable[[str], float], rule: str,
            ok: Callable[[float], bool]) -> Callable[[str], float]:
    """argparse type: ``convert(text)``; a usage error unless ``ok`` holds."""
    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


# nan fails every comparison, so each predicate also rejects it
_positive = _number(float, "must be a finite number > 0",
                    lambda v: 0 < v < math.inf)
_phi = _number(float, "must lie in [0, 180)", lambda v: 0 <= v < 180)
_phi_step = _number(float,
                    f"must be positive, finite and at least {MIN_PHI_STEP}",
                    lambda v: MIN_PHI_STEP <= v < math.inf)
_natural = _number(int, "must be an integer >= 0", lambda v: v >= 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcsupport",
        description="Support-line pair analysis for simple polygonal arcs.")
    arc_input = argparse.ArgumentParser(add_help=False)
    arc_input.add_argument("input", help="arc file (.json or .csv)")
    arc_input.add_argument("--eps", type=_positive, default=None,
                           help="absolute length tolerance (default: "
                                "relative to the arc's bounding box)")
    arc_input.add_argument("--eps-angle", type=_positive,
                           default=DEFAULT_EPS_ANGLE,
                           help="angle tolerance in degrees")
    stdout_format = argparse.ArgumentParser(add_help=False)
    stdout_format.add_argument("--format", choices=("json", "csv"),
                               default="json",
                               help="stdout format (default json)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[arc_input, stdout_format],
                       help="check that an arc is simple")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", parents=[arc_input, stdout_format],
                       help="hull, guide path, locales, and tilt table")
    p.add_argument("--json", metavar="PATH",
                   help="also write the full report to this file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", parents=[arc_input, stdout_format],
                       help="support-line pairs at a prescribed angle")
    p.add_argument("--phi", type=_phi, required=True,
                   help="prescribed angle in degrees, 0 <= phi < 180")
    p.add_argument("--json", metavar="PATH",
                   help="also write the solution to this file")
    p.add_argument("--svg", metavar="STEM",
                   help="write STEM.scene.svg and STEM.schematic.svg")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", parents=[arc_input],
                       help="compare the solver against brute force")
    p.add_argument("--phi", type=_phi, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render", parents=[arc_input],
                       help="write an SVG drawing")
    p.add_argument("--what", choices=("scene", "schematic"), required=True)
    p.add_argument("--svg", metavar="STEM", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("fuzz", help="random arcs checked against brute force")
    p.add_argument("--count", type=_natural, default=100)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--nodes", type=_parse_nodes, default=(5, 50),
                   metavar="N or LO-HI", help="node count or range "
                   "(default 5-50)")
    p.add_argument("--phi-grid", type=_phi_step, default=None, metavar="STEP",
                   help="also check a grid of angles with this step")
    p.add_argument("--strategy", choices=STRATEGIES + ("mixed",),
                   default="mixed")
    p.set_defaults(func=_cmd_fuzz)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StructuralViolationError as exc:
        print(f"structural violation: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (ArcSupportError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_ARC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
