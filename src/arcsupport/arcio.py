"""Arc data model, JSON/CSV input, and simplicity validation.

The JSON form is {"closed": bool, "nodes": [[x, y], ...]}; "closed" defaults
to false.  The CSV form is one "x,y" pair per line with '#' comments and an
optional non-numeric header, and always denotes an open arc.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidArcError, ParseError
from .geom import (DEFAULT_EPS_REL, Point, Segment, Tolerance, bbox, dist,
                   orient, segments_intersect)

_PAIR_BLOCK = 8192              # x-overlapping box pairs expanded at once
_TINY = sys.float_info.min      # smallest normal float
_last_report: tuple = (None, None, None)    # (arc, tol, its report)


@dataclass(frozen=True)
class PolygonalArc:
    """A polygonal arc given by its nodes, open or closed.  Any sequence of
    (x, y) pairs may be passed; it is stored as a tuple of Points."""

    nodes: tuple[Point, ...]
    closed: bool = False

    def __post_init__(self):
        nodes = tuple(Point(float(x), float(y)) for x, y in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        minimum = 3 if self.closed else 2
        if len(nodes) < minimum:
            kind = "a closed" if self.closed else "an open"
            raise InvalidArcError(
                f"{kind} arc needs at least {minimum} nodes, got {len(nodes)}")
        for i, p in enumerate(nodes):
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise InvalidArcError(f"node {i} has a non-finite coordinate")

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the nodes, computed once."""
        return bbox(self.nodes)

    def segment_count(self) -> int:
        return len(self.nodes) if self.closed else len(self.nodes) - 1

    def segment(self, i: int) -> Segment:
        a = self.nodes[i]
        b = self.nodes[(i + 1) % len(self.nodes)]
        return (a, b)

    def tolerance(self, eps_len: float | None = None) -> Tolerance:
        """The one tolerance policy.  ``eps_len`` defaults to DEFAULT_EPS_REL
        times the bounding-box diagonal, or to DEFAULT_EPS_REL for a point;
        a given one is checked by ``Tolerance``, like ``--eps``.  The
        predicates' products (up to 2 * diagonal**2 and eps_len * diagonal)
        must be finite, and the widest collinearity band, eps_len *
        diagonal, must not underflow to 0 (else InvalidArcError)."""
        given = None if eps_len is None else Tolerance(eps_len)
        x0, y0, x1, y1 = self.bbox
        diagonal = math.hypot(x1 - x0, y1 - y0)
        if given is None:
            eps_len = DEFAULT_EPS_REL * diagonal if diagonal > 0 else DEFAULT_EPS_REL
        if not math.isfinite(2 * diagonal * diagonal):
            raise InvalidArcError(
                "the arc's bounding box exceeds the float range")
        if not math.isfinite(2 * eps_len * diagonal):
            raise InvalidArcError(
                f"eps_len (--eps) {eps_len:g} times the arc's "
                f"bounding-box diagonal {diagonal:g} exceeds the float range")
        if diagonal > 0 and eps_len * diagonal == 0:
            raise InvalidArcError(
                f"eps_len (--eps) {eps_len:g} times the arc's "
                f"bounding-box diagonal {diagonal:g} underflows the float range")
        return given or Tolerance(eps_len)


class Violation(NamedTuple):
    """One simplicity violation; indices are 0-based node/segment ids."""

    kind: str
    indices: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def parse_arc(text: str, fmt: str = "json") -> PolygonalArc:
    if fmt == "json":
        return _parse_json(text)
    if fmt == "csv":
        return _parse_csv(text)
    raise ValueError(f"unknown arc format {fmt!r}")


def _parse_json(text: str) -> PolygonalArc:
    try:    # integers go straight to float: no digit limit, no overflow
        data = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
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
    for i, entry in enumerate(nodes):
        # parse_int=float makes every JSON number a float
        if (type(entry) is not list or len(entry) != 2
                or type(entry[0]) is not float or type(entry[1]) is not float):
            raise ParseError(f"node {i} is not a numeric [x, y] pair")
    try:    # PolygonalArc makes the Points
        return PolygonalArc(nodes, closed=closed)
    except InvalidArcError as exc:
        raise ParseError(str(exc)) from exc


def _parse_csv(text: str) -> PolygonalArc:
    """One ``x,y`` node per line; the first line may instead be a header
    of exactly two fields, neither of them a number."""
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
            if (header_allowed and len(parts) == 2
                    and not any(map(_is_number, parts))):
                header_allowed = False
                continue
            raise ParseError(f"expected two numeric fields, got {line!r}",
                             line=lineno) from None
        header_allowed = False
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError("non-finite coordinate", line=lineno)
        points.append((x, y))
    try:
        return PolygonalArc(points, closed=False)
    except InvalidArcError as exc:
        raise ParseError(str(exc)) from exc


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def load_arc(path: str) -> PolygonalArc:
    """Read an arc file: CSV when the name ends in .csv, else JSON."""
    fmt = "csv" if path.lower().endswith(".csv") else "json"
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_arc(fh.read(), fmt)


def is_segment_arc(arc: PolygonalArc, tol: Tolerance | None = None) -> bool:
    """True when every node is collinear within tolerance."""
    tol = tol or arc.tolerance()
    anchor = min(arc.nodes)
    far = max(arc.nodes, key=lambda p: dist(anchor, p))
    if dist(anchor, far) <= tol.eps_len:
        return True
    return all(orient(anchor, far, p, tol) == 0 for p in arc.nodes)


def _node_array(arc: PolygonalArc) -> np.ndarray:
    """The nodes as an (n, 2) float array."""
    flat = np.fromiter(chain.from_iterable(arc.nodes), float, 2 * len(arc))
    return flat.reshape(-1, 2)


def _segment_ends(pts: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end nodes of the first m segments, one row per segment."""
    ring = pts if m < len(pts) else np.concatenate((pts, pts[:1]))
    return ring[:m], ring[1:m + 1]


def _filter_band(eps: float, length: np.ndarray) -> float:
    """Per unit of arm length, the band beyond which a NumPy cross product
    is surely outside the tolerant ``orient``'s collinearity band.

    The cross products match ``orient``'s bit for bit, but ``np.hypot`` may
    differ from ``math.hypot`` by an ulp, so the band is doubled.  That
    argument needs normal floats: when ``eps_len`` times the shortest
    segment (a lower bound of every band) is subnormal, nothing is clear.
    """
    return 2.0 * eps if eps * length.min() >= _TINY else math.inf


def _clear(cross: np.ndarray, arm1: np.ndarray, arm2: np.ndarray,
           band: float) -> np.ndarray:
    """Where a turn with these cross products and arm lengths is surely not
    collinear; a nan is never clear."""
    return np.abs(cross) > band * np.maximum(arm1, arm2)


def _by_x_min(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The order of the segments ``a[k]`` to ``b[k]`` by x-min, and their
    end coordinates ax, ay, bx, by in that order, each a contiguous column."""
    order = np.argsort(np.minimum(a[:, 0], b[:, 0]))
    return (order, *a[order].T.copy(), *b[order].T.copy())


def _candidate_pairs(ax: np.ndarray, ay: np.ndarray, bx: np.ndarray,
                     by: np.ndarray, order: np.ndarray, eps: float,
                     closed: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pairs of non-adjacent segments whose bounding boxes, grown by eps,
    overlap, as blocks of two position arrays s < t in x-min order; the
    segment at position k is segment ``order[k]`` and runs from
    (ax[k], ay[k]) to (bx[k], by[k]), and, when ``closed``, the last
    segment is adjacent to the first.

    Vectorized prefilter only; every pair is re-examined.  In x-min order a
    box meets in x exactly the later boxes whose x-min is at most its own
    x-max, so each box's x-partners are one ``searchsorted`` range.  A block
    expands the ranges of consecutive boxes up to about ``_PAIR_BLOCK``
    pairs (more only when one box alone has more), which bounds memory.
    """
    m = len(order)
    lox, hix = np.minimum(ax, bx) - eps, np.maximum(ax, bx) + eps
    loy, hiy = np.minimum(ay, by) - eps, np.maximum(ay, by) + eps
    count = np.searchsorted(lox, hix, side="right") - np.arange(m) - 1
    ends = np.cumsum(count)
    s = 0
    while s < m and ends[-1] > ends[s] - count[s]:
        e = max(int(np.searchsorted(ends, ends[s] - count[s] + _PAIR_BLOCK,
                                    side="right")), s + 1)
        c = count[s:e]
        first = np.repeat(np.arange(s, e), c)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(c) - c, c)
        keep = (loy[second] <= hiy[first]) & (hiy[second] >= loy[first])
        first, second = first[keep], second[keep]
        gap = np.abs(order[first] - order[second])
        keep = (gap >= 2) & ~(closed & (gap == m - 1))
        yield first[keep], second[keep]
        s = e


def _suspect_pairs(a: np.ndarray, b: np.ndarray, length: np.ndarray,
                   band: float, eps: float,
                   closed: bool) -> list[tuple[int, int]]:
    """Candidate pairs that the float filter cannot show apart, in (i, j)
    order; segment k runs from ``a[k]`` to ``b[k]``, ``length[k]`` long,
    and ``band`` is ``_filter_band(eps, length)``.

    A pair is apart when the four turns of ``segments_intersect`` are all
    clear and one segment lies wholly on one side of the other's line;
    near-ties and crossings alike are left to the scalar test.  The grown
    boxes of a candidate pair share a point, which lies within li + sqrt(2)
    eps of either end of segment i and within lj + sqrt(2) eps of either
    end of segment j, so every arm of the four turns is at most li + lj +
    2 sqrt(2) eps: one bound, ``band * (li + lj + 3 eps)``, clears all four,
    and the doubling in ``band`` covers the rounding of boxes and lengths.
    Differences are taken as ``orient`` takes them; p1 - q1 is exactly
    -(q1 - p1), so the turn of p1 about segment j reuses q1 - p1, and its
    cross product comes out negated.  The four turns are the same whichever
    segment comes first, so positions in x-min order serve as (i, j).
    """
    order, ax, ay, bx, by = _by_x_min(a, b)
    dx, dy = bx - ax, by - ay
    length = length[order]
    suspects = []
    for s, t in _candidate_pairs(ax, ay, bx, by, order, eps, closed):
        wx, wy = ax[t] - ax[s], ay[t] - ay[s]       # q1 - p1
        vx, vy = bx[t] - ax[s], by[t] - ay[s]       # q2 - p1
        ux, uy = bx[s] - ax[t], by[s] - ay[t]       # p2 - q1
        dxs, dys, dxt, dyt = dx[s], dy[s], dx[t], dy[t]
        c1, c2 = dxs * wy - dys * wx, dxs * vy - dys * vx
        c3, c4 = dxt * wy - dyt * wx, dxt * uy - dyt * ux
        turn = np.minimum(np.minimum(np.abs(c1), np.abs(c2)),
                          np.minimum(np.abs(c3), np.abs(c4)))
        apart = ((turn > band * (length[s] + length[t] + 3.0 * eps))
                 & (((c1 > 0.0) == (c2 > 0.0)) | ((c3 < 0.0) == (c4 > 0.0))))
        s, t = order[s[~apart]], order[t[~apart]]
        suspects.extend(zip(np.minimum(s, t).tolist(),
                            np.maximum(s, t).tolist()))
    return sorted(suspects)


def validate_simple(arc: PolygonalArc, tol: Tolerance | None = None) -> ValidationReport:
    """Check simplicity: distinct consecutive nodes, no collinear backtracking,
    and no contact between non-adjacent segments.

    NumPy flags the segments, junctions and segment pairs that may violate;
    the scalar predicates decide each flagged one, in index order.  A repeat
    call on the same arc object, with an equal tolerance, is not rescanned.
    """
    global _last_report
    tol = tol or arc.tolerance()
    last, last_tol, report = _last_report
    if last is not arc or last_tol != tol:
        report = _scan_simple(arc, tol)
        _last_report = (arc, tol, report)
    return report


def _scan_simple(arc: PolygonalArc, tol: Tolerance) -> ValidationReport:
    """``validate_simple`` without its one-entry cache."""
    violations: list[Violation] = []
    nodes = arc.nodes
    n = len(nodes)
    m = arc.segment_count()
    pts = _node_array(arc)
    start, end = _segment_ends(pts, m)

    # np.hypot is within an ulp of math.hypot, so 2 * eps_len flags them all
    length = np.hypot(end[:, 0] - start[:, 0], end[:, 1] - start[:, 1])
    for i in np.flatnonzero(~(length > 2.0 * tol.eps_len)).tolist():
        if dist(*arc.segment(i)) <= tol.eps_len:
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
    band = _filter_band(tol.eps_len, length)
    # junction k + first joins ring rows k, k + 1 and k + 2
    first = 0 if arc.closed else 1
    ring = np.concatenate((pts[-1:], pts, pts[:1])) if arc.closed else pts
    ab, ac = ring[1:-1] - ring[:-2], ring[2:] - ring[:-2]
    clear = _clear(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0], np.hypot(*ab.T),
                   np.hypot(*ac.T), band)
    for j in (np.flatnonzero(~clear) + first).tolist():
        a, b, c = nodes[j - 1], nodes[j], nodes[(j + 1) % n]
        if orient(a, b, c, tol) == 0:
            dot = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
            if dot < 0:
                violations.append(Violation(
                    "backtrack", ((j - 1) % m, j % m),
                    f"segment {j % m} folds back along segment {(j - 1) % m}"))

    for i, j in _suspect_pairs(start, end, length, band, tol.eps_len,
                               arc.closed):
        if segments_intersect(arc.segment(i), arc.segment(j), tol):
            violations.append(Violation(
                "segments_cross", (i, j),
                f"segments {i} and {j} intersect"))

    return ValidationReport(not violations, tuple(violations))
