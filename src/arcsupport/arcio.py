"""Arc data model, JSON/CSV input, and simplicity validation.

The JSON form is {"closed": bool, "nodes": [[x, y], ...]}; "closed" defaults
to false.  The CSV form is one "x,y" pair per line with '#' comments and an
optional non-numeric header, and always denotes an open arc.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidArcError, ParseError
from .geom import (DEFAULT_EPS_ANGLE, Point, Segment, Tolerance,
                   bbox_diagonal, dist, orient, segments_intersect)


@dataclass(frozen=True)
class PolygonalArc:
    """A polygonal arc given by its nodes, open or closed."""

    nodes: tuple[Point, ...]
    closed: bool = False

    def __post_init__(self):
        nodes = tuple(Point(float(x), float(y)) for x, y in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        minimum = 3 if self.closed else 2
        if len(nodes) < minimum:
            kind = "closed" if self.closed else "open"
            raise InvalidArcError(
                f"a {kind} arc needs at least {minimum} nodes, got {len(nodes)}")
        for i, p in enumerate(nodes):
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise InvalidArcError(f"node {i} has a non-finite coordinate")

    def __len__(self) -> int:
        return len(self.nodes)

    def segment_count(self) -> int:
        return len(self.nodes) if self.closed else len(self.nodes) - 1

    def segment(self, i: int) -> Segment:
        a = self.nodes[i]
        b = self.nodes[(i + 1) % len(self.nodes)]
        return (a, b)

    def tolerance(self, eps_len: float | None = None,
                  eps_angle: float = DEFAULT_EPS_ANGLE) -> Tolerance:
        """``eps_len`` if given, else the default fraction of the bounding
        box diagonal.  The predicates' cross and dot products (at most
        2 * diagonal**2) and collinearity bands (at most eps_len * diagonal)
        must all be finite."""
        diagonal = bbox_diagonal(self.nodes)
        tol = (Tolerance.for_diagonal(diagonal, eps_angle) if eps_len is None
               else Tolerance(eps_len, eps_angle))
        if not math.isfinite(2 * max(tol.eps_len, diagonal) * diagonal):
            raise InvalidArcError(
                "the arc's bounding box exceeds the float range")
        return tol


class Violation(NamedTuple):
    """One simplicity violation; indices are 0-based node/segment ids."""

    kind: str
    indices: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def parse_arc(text: str, fmt: str = "json") -> PolygonalArc:
    if fmt == "json":
        return _parse_json(text)
    if fmt == "csv":
        return _parse_csv(text)
    raise ValueError(f"unknown arc format {fmt!r}")


def _parse_json(text: str) -> PolygonalArc:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(data) - {"closed", "nodes"}
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    closed = data.get("closed", False)
    if not isinstance(closed, bool):
        raise ParseError('"closed" must be a boolean')
    nodes = data.get("nodes")
    if not isinstance(nodes, list):
        raise ParseError('"nodes" must be a list of [x, y] pairs')
    points = []
    for i, entry in enumerate(nodes):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in entry)):
            raise ParseError(f"node {i} is not a numeric [x, y] pair")
        points.append(Point(float(entry[0]), float(entry[1])))
    try:
        return PolygonalArc(tuple(points), closed=closed)
    except InvalidArcError as exc:
        raise ParseError(str(exc)) from exc


def _parse_csv(text: str) -> PolygonalArc:
    points = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [f.strip() for f in line.split(",")]
        try:
            if len(parts) != 2:
                raise ValueError
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            raise ParseError(f"expected two numeric fields, got {line!r}",
                             line=lineno) from None
        header_allowed = False
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError("non-finite coordinate", line=lineno)
        points.append(Point(x, y))
    try:
        return PolygonalArc(tuple(points), closed=False)
    except InvalidArcError as exc:
        raise ParseError(str(exc)) from exc


def serialize_arc(arc: PolygonalArc) -> str:
    """JSON text whose parse reproduces the arc exactly (float round-trip)."""
    return json.dumps({"closed": arc.closed,
                       "nodes": [[p.x, p.y] for p in arc.nodes]})


def load_arc(path: str, fmt: str | None = None) -> PolygonalArc:
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arc(fh.read(), fmt)


def is_segment_arc(arc: PolygonalArc, tol: Tolerance | None = None) -> bool:
    """True when every node is collinear within tolerance."""
    tol = tol or arc.tolerance()
    anchor = min(arc.nodes)
    far = max(arc.nodes, key=lambda p: dist(anchor, p))
    if dist(anchor, far) <= tol.eps_len:
        return True
    return all(orient(anchor, far, p, tol) == 0 for p in arc.nodes)


def _candidate_pairs(arc: PolygonalArc, eps: float) -> Iterator[tuple[int, int]]:
    """Non-adjacent segment pairs whose bounding boxes come within eps.

    Vectorized prefilter only; every yielded pair is re-examined exactly.
    """
    m = arc.segment_count()
    pts = np.asarray(arc.nodes, dtype=float)
    nxt = np.roll(pts, -1, axis=0) if arc.closed else pts[1:]
    a = pts[:m]
    b = nxt[:m]
    lo = np.minimum(a, b) - eps
    hi = np.maximum(a, b) + eps
    for i in range(m - 2):
        j0 = i + 2
        overlap = np.nonzero(
            (lo[j0:, 0] <= hi[i, 0]) & (hi[j0:, 0] >= lo[i, 0])
            & (lo[j0:, 1] <= hi[i, 1]) & (hi[j0:, 1] >= lo[i, 1]))[0]
        for k in overlap:
            j = j0 + int(k)
            if arc.closed and i == 0 and j == m - 1:
                continue  # cyclically adjacent
            yield i, j


def validate_simple(arc: PolygonalArc, tol: Tolerance | None = None) -> ValidationReport:
    """Check simplicity: distinct consecutive nodes, no collinear backtracking,
    and no contact between non-adjacent segments."""
    tol = tol or arc.tolerance()
    violations: list[Violation] = []
    nodes = arc.nodes
    n = len(nodes)
    m = arc.segment_count()

    for i in range(m):
        a, b = arc.segment(i)
        if dist(a, b) <= tol.eps_len:
            violations.append(Violation(
                "duplicate_node", (i, (i + 1) % n),
                f"nodes {i} and {(i + 1) % n} coincide"))
    if violations:
        return ValidationReport(False, tuple(violations))

    if not arc.closed and dist(nodes[0], nodes[-1]) <= tol.eps_len:
        violations.append(Violation(
            "endpoints_coincide", (0, n - 1),
            "an open arc may not start and end at the same point"))

    # adjacent segments may share only their common node: reject reversal
    # onto the previous segment (collinear backtracking)
    junctions = range(n) if arc.closed else range(1, n - 1)
    for j in junctions:
        a, b, c = nodes[j - 1], nodes[j], nodes[(j + 1) % n]
        if orient(a, b, c, tol) == 0:
            dot = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
            if dot < 0:
                violations.append(Violation(
                    "backtrack", ((j - 1) % m, j % m),
                    f"segment {j % m} folds back along segment {(j - 1) % m}"))

    for i, j in _candidate_pairs(arc, tol.eps_len):
        if segments_intersect(arc.segment(i), arc.segment(j), tol):
            violations.append(Violation(
                "segments_cross", (i, j),
                f"segments {i} and {j} intersect"))

    return ValidationReport(not violations, tuple(violations))
