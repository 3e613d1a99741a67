"""Workload inputs and requests.

Each workload repeats one request type over rounds of inputs built from
the seed alone; one cycle of the loop runs one round.  Requests call the
library through module attributes (``lib.solver.analyze_arc``), so the
tracer's wrappers are seen.

* ``large``: one "file to answer" request on a big arc, as
  ``arcsupport analyze`` plus ``solve --svg`` do: parse, analyse, solve at
  five angles, one oracle comparison, the JSON report and both SVGs.
  Zigzag arcs (n 2000..5000) have few overlapping segment boxes; star fans
  (n 300..750) have dense overlaps and hulls of about n/2 vertices.
* ``sweep``: ``arcsupport fuzz --phi-grid 1`` without generation: one
  analysis, then the oracle at every whole degree and both aspect angles.
* ``fuzz``: ``arcsupport fuzz``: generation inside the request, analysis,
  then the oracle at 0 and both aspect angles.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

STRATEGIES = ("uncross", "zigzag")
SMALL_SIZES = tuple(range(5, 51))                       # as in criterion 4
LARGE_STEPS = 12          # sizes per shape in one round
LARGE_ROUNDS = 8
ZIGZAG_SIZES = tuple(2000 + round(i * 3000 / (LARGE_STEPS - 1))
                     for i in range(LARGE_STEPS))
FAN_RANGE = (300, 750)
SWEEP_ROUNDS = 4
FUZZ_ROUNDS = 16
FUZZ_CYCLE = 10 * len(SMALL_SIZES)


@dataclass(frozen=True)
class Item:
    label: str                  # how to rebuild the input, for failure reports
    data: object                # JSON text, PolygonalArc or (n, seed, strategy)
    nodes: np.ndarray | None    # input nodes for the answer check


@dataclass
class Outcome:
    analysis: object
    phis: list[float]
    agreements: dict[int, object]          # index into phis -> AgreementReport
    solutions: list[object] | None = None  # per phi; None: re-solve to check
    outputs: list[str] = field(default_factory=list)


def sub_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


def star_fan(n: int, rng: np.random.Generator) -> np.ndarray:
    """Open arc whose radius alternates 1 and 0.05 over 0.95 of a turn.

    Polar angles stay strictly increasing (jitter under half a step), so
    each segment keeps to its own wedge and the arc is simple.  Outer
    nodes stay on the unit circle, so every one of them is a hull vertex.
    """
    step = 0.95 * 2.0 * math.pi / (n - 1)
    theta = (np.arange(n) + rng.uniform(-0.25, 0.25, n)) * step
    radius = np.where(np.arange(n) % 2 == 0, 1.0,
                      0.05 * rng.uniform(0.9, 1.1, n))
    return np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))


def arc_json(nodes: np.ndarray) -> str:
    return json.dumps({"closed": False,
                       "nodes": [[float(x), float(y)] for x, y in nodes]})


def nodes_of(arc) -> np.ndarray:
    return np.array([(p.x, p.y) for p in arc.nodes], dtype=float)


def fingerprint(rounds: list[list[Item]]) -> str:
    """SHA-256 over the inputs, so two commits can be shown to have run
    the same data."""
    h = hashlib.sha256()
    for item in (item for items in rounds for item in items):
        h.update(item.label.encode())
        if isinstance(item.data, str):
            h.update(item.data.encode())
        if item.nodes is not None:
            h.update(np.ascontiguousarray(item.nodes).tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ large

def _van_der_corput(r: int) -> float:
    x, denom = 0.0, 1.0
    while r:
        denom *= 2.0
        x += (r & 1) / denom
        r >>= 1
    return x


def build_large(lib, seed: int) -> list[list[Item]]:
    """Rounds of 12 zigzags and 12 star fans.

    The zigzags are shared by all rounds.  Each round shifts the fan sizes
    by its own fraction of a step, in van der Corput order so that any
    leading run of rounds is spread evenly; the latency percentiles then
    fall in a smooth distribution instead of between a few repeated inputs.
    """
    zigzags = []
    for i, n in enumerate(ZIGZAG_SIZES):
        s = sub_seed(seed, i)
        nodes = nodes_of(lib.arcgen.generate_arc(n, s, "zigzag"))
        zigzags.append(Item(f"zigzag n={n} seed={s}", arc_json(nodes), nodes))
    step = (FAN_RANGE[1] - FAN_RANGE[0]) / LARGE_STEPS
    rounds = []
    for r in range(LARGE_ROUNDS):
        items = []
        for i, zigzag in enumerate(zigzags):
            n = FAN_RANGE[0] + round((i + _van_der_corput(r)) * step)
            nodes = star_fan(n, np.random.default_rng([seed, r, i]))
            items += [zigzag, Item(f"fan n={n} rng=[{seed},{r},{i}]",
                                   arc_json(nodes), nodes)]
        rounds.append(items)
    return rounds


def large_request(lib, text: str) -> Outcome:
    arc = lib.arcio.parse_arc(text)
    analysis = lib.solver.analyze_arc(arc)
    table = analysis.table
    phis = [0.0, 30.0, 90.0, table.phi_left, -table.phi_right]
    solutions = [lib.solver.solve_at_angle(analysis, phi) for phi in phis]
    agreement = lib.oracle.compare_with_solver(arc, 30.0, analysis.tol,
                                               analysis=analysis)
    outputs = [lib.report.AnalysisReport.from_analysis(analysis).to_json()]
    outputs += [json.dumps(s.to_json_dict(), indent=2) for s in solutions]
    outputs.append(lib.svg.render_scene_for(analysis, solutions[1]))
    query = lib.schematic.query_angle(analysis.diagram, 30.0,
                                      analysis.tol.eps_angle)
    outputs.append(lib.svg.render_schematic(analysis.diagram, query))
    return Outcome(analysis, phis, {1: agreement}, solutions, outputs)


# ------------------------------------------------------------------ sweep

def build_sweep(lib, seed: int) -> list[list[Item]]:
    """Rounds of one arc per size, strategies alternating as in
    criterion 4; every arc has its own seed."""
    rounds = []
    for r in range(SWEEP_ROUNDS):
        items = []
        for i, n in enumerate(SMALL_SIZES):
            s = sub_seed(seed, r * len(SMALL_SIZES) + i)
            strategy = STRATEGIES[i % 2]
            arc = lib.arcgen.generate_arc(n, s, strategy)
            items.append(Item(f"{strategy} n={n} seed={s}", arc,
                              nodes_of(arc)))
        rounds.append(items)
    return rounds


def _compare_all(lib, arc, analysis, phis: list[float]) -> Outcome:
    agreements = {i: lib.oracle.compare_with_solver(arc, phi, analysis.tol,
                                                    analysis=analysis)
                  for i, phi in enumerate(phis)}
    return Outcome(analysis, phis, agreements)


def sweep_request(lib, arc) -> Outcome:
    analysis = lib.solver.analyze_arc(arc)
    table = analysis.table
    phis = [float(g) for g in range(180)] + [table.phi_left, -table.phi_right]
    return _compare_all(lib, arc, analysis, phis)


# ------------------------------------------------------------------- fuzz

def build_fuzz(lib, seed: int) -> list[list[Item]]:
    """Rounds of generation parameters.  Sizes cycle as in ``sweep``; the
    strategy flips every pass over the sizes, so each size is generated
    with both strategies; every arc has its own seed."""
    rounds = []
    for r in range(FUZZ_ROUNDS):
        items = []
        for i in range(FUZZ_CYCLE):
            n = SMALL_SIZES[i % len(SMALL_SIZES)]
            strategy = STRATEGIES[(i + i // len(SMALL_SIZES)) % 2]
            s = sub_seed(seed, r * FUZZ_CYCLE + i)
            items.append(Item(f"{strategy} n={n} seed={s}",
                              (n, s, strategy), None))
        rounds.append(items)
    return rounds


def fuzz_request(lib, params: tuple[int, int, str]) -> Outcome:
    arc = lib.arcgen.generate_arc(*params)
    analysis = lib.solver.analyze_arc(arc)
    table = analysis.table
    return _compare_all(lib, arc, analysis,
                        [0.0, table.phi_left, -table.phi_right])


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    request: object
    checks: int         # answer checks per request
    warmup: int         # requests run during set-up


WORKLOADS = {
    "large": Workload("large", build_large, large_request, 5, 2),
    "sweep": Workload("sweep", build_sweep, sweep_request, 182, 1),
    "fuzz": Workload("fuzz", build_fuzz, fuzz_request, 3, 46),
}
