"""Command-line interface.

Subcommands: validate, analyze, solve, oracle, render, fuzz.  Exit codes:
0 success, 1 stdout closed before the output was written, 2 usage error,
3 invalid or unsupported arc or out of memory, 4 internal structural
violation, 5 solver/brute-force disagreement, 130 interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable

from .arcgen import RNG_ALGORITHM, STRATEGIES, generate_arc
from .arcio import load_arc, validate_simple
from .errors import (ArcSupportError, GenerationError,
                     StructuralViolationError, UnsupportedArcError)
from .geom import DEFAULT_EPS_ANGLE, angle_problem
from .oracle import compare_with_solver
from .report import AnalysisReport, solution_csv, tilt_table_csv
from .schematic import query_angle
from .solver import (analyze_arc, simple_hull, solve_at_angle,
                     solve_closed_hull)
from .svg import render_scene, render_scene_for, render_schematic

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_INVALID_ARC = 3
EXIT_STRUCTURAL = 4
EXIT_DISAGREEMENT = 5
EXIT_INTERRUPTED = 130      # 128 + SIGINT, as a shell reports it
MIN_PHI_STEP = 0.01         # --phi-grid makes at most 180 / 0.01 angles


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    report = validate_simple(arc)
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
    analysis = analyze_arc(arc)
    text = AnalysisReport.from_analysis(analysis).to_json()
    if args.json:
        _write(args.json, text + "\n")
    if args.format == "csv":
        print(tilt_table_csv(analysis.table), end="")
    else:
        print(text)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    if arc.closed:
        if args.phi != 0.0:
            raise UnsupportedArcError("closed arcs support only --phi 0")
        hull = simple_hull(arc)
        solution = solve_closed_hull(hull)
        analysis = None
    else:
        analysis = analyze_arc(arc)
        solution = solve_at_angle(analysis, args.phi)

    # files first: a failed write leaves stdout empty
    text = json.dumps(solution.to_json_dict(), indent=2)
    if args.json:
        _write(args.json, text + "\n")
    if args.svg:
        if analysis is None:
            _write(f"{args.svg}.scene.svg",
                   render_scene(arc, hull, None, solution))
        else:
            _write(f"{args.svg}.scene.svg",
                   render_scene_for(analysis, solution))
            query = query_angle(analysis.diagram, args.phi)
            _write(f"{args.svg}.schematic.svg",
                   render_schematic(analysis.diagram, query))
    if args.format == "csv":
        print(solution_csv(solution), end="")
    else:
        print(text)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    analysis = analyze_arc(arc)
    report = compare_with_solver(arc, args.phi, analysis=analysis)
    print(json.dumps(report._asdict(), indent=2))
    return EXIT_OK if report.ok else EXIT_DISAGREEMENT


def _cmd_render(args: argparse.Namespace) -> int:
    arc = load_arc(args.input)
    if args.what == "scene" and arc.closed:
        _write(f"{args.svg}.scene.svg", render_scene(arc, simple_hull(arc)))
        return EXIT_OK
    analysis = analyze_arc(arc)
    if args.what == "scene":
        _write(f"{args.svg}.scene.svg", render_scene_for(analysis))
    else:
        _write(f"{args.svg}.schematic.svg",
               render_schematic(analysis.diagram))
    return EXIT_OK


def _parse_nodes(spec: str) -> tuple[int, int]:
    lo_text, dash, hi_text = spec.partition("-")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dash else lo
    except ValueError:
        lo = hi = 0                 # refused below
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
    violated = False

    def summarize(**extra) -> None:
        print(json.dumps({
            "rng": RNG_ALGORITHM,
            "seed": args.seed,
            "count": args.count,
            "nodes": f"{lo}-{hi}",
            "strategy": args.strategy,
            "checks": checks,
            "failures": failures,
            "ok": not failures,
            **extra,
        }, indent=2))

    done = 0
    try:
        for i in range(args.count):
            nodes = lo + i % (hi - lo + 1)
            if args.strategy == "mixed":
                strategy = STRATEGIES[i % len(STRATEGIES)]
            else:
                strategy = args.strategy
            seed = args.seed + i
            reproduce = (f"arcsupport fuzz --count 1 --seed {seed} "
                         f"--nodes {nodes} --strategy {strategy}")
            if step is not None:
                reproduce += f" --phi-grid {step!r}"
            arc = generate_arc(nodes, seed, strategy)
            found: list[tuple[float | None, str]] = []
            phi = None
            asked = 0
            try:
                analysis = analyze_arc(arc)
                # an aspect angle inside the angle band of 0 is no angle
                # to ask
                thresholds = [t for t in (analysis.table.phi_left,
                                          -analysis.table.phi_right)
                              if angle_problem(t) is None]
                for phi in [0.0] + grid + thresholds:
                    result = compare_with_solver(arc, phi, analysis=analysis)
                    asked += 1
                    if not result.ok:
                        found.append((phi, result.message))
            except StructuralViolationError as exc:
                violated = True
                found.append((phi, f"structural violation: {exc}"))
            checks += asked
            failures.extend({"seed": seed, "nodes": nodes,
                             "strategy": strategy, "phi": angle,
                             "message": message, "reproduce": reproduce}
                            for angle, message in found)
            done += 1
    except KeyboardInterrupt:
        # the summary of the arcs already checked; run() then exits 130
        summarize(interrupted=True, arcs_done=done)
        raise
    except GenerationError as exc:
        if done:    # as above, if any; run() then prints exc and exits 3
            summarize(arcs_done=done, error=str(exc))
        raise

    summarize()
    if violated:
        return EXIT_STRUCTURAL
    return EXIT_OK if not failures else EXIT_DISAGREEMENT


def _number(convert: Callable[[str], float],
            problem: Callable[[float], str | None]) -> Callable[[str], float]:
    """argparse type: ``convert(text)``, refused if ``problem`` says why."""
    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if (reason := problem(value)) is not None:
            raise argparse.ArgumentTypeError(f"{reason}, got {text!r}")
        return value
    return parse


# a text that does not convert is nan, which fails every comparison
_phi_step = _number(float, lambda v: None if MIN_PHI_STEP <= v < math.inf else
                    f"must be positive, finite and at least {MIN_PHI_STEP}")
_natural = _number(int, lambda v: None if v >= 0 else
                   "must be an integer >= 0")
_phi = _number(float, angle_problem)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcsupport",
        description="Support-line pair analysis for simple polygonal arcs.")
    arc_input = argparse.ArgumentParser(add_help=False)
    arc_input.add_argument("input", help="arc file (.json or .csv)")
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
                   help="prescribed angle in degrees: 0, or "
                        f"{DEFAULT_EPS_ANGLE:g} <= phi < 180")
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
        code = args.func(args)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away, as with `| head`: point stdout at devnull,
        # so that the flush at exit has nowhere to fail, and say nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except StructuralViolationError as exc:
        print(f"structural violation: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (ArcSupportError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_ARC
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INVALID_ARC
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
