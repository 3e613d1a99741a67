"""Seeded random generation of simple arcs for fuzzing.

All randomness flows through numpy's PCG64 generator seeded with a
(seed, attempt) sequence, so every artifact is reproducible from the two
integers alone.  Strategies:

* ``uncross``: i.i.d. uniform nodes whose path is repeatedly 2-opt
  reversed until no two segments properly cross.  Each reversal strictly
  shortens the path, so the loop terminates.  A run builds once an
  (n - 1) x n float matrix of the turn of every node against every
  segment's line; each step reverses its columns i+1..j, recomputes rows
  i..j and finds the first crossing with a few n x n passes over it.
  That peaks at about 25 n^2 bytes (tracemalloc, n = 300 and 1000), and
  n is capped at ``UNCROSS_MAX_NODES``.
* ``zigzag``: strictly increasing x with alternating-sign y, which is
  simple by construction and tends to produce many locales.
"""

from __future__ import annotations

import numpy as np

from .arcio import PolygonalArc, validate_simple
from .errors import GenerationError

RNG_ALGORITHM = "pcg64"
STRATEGIES = ("uncross", "zigzag")
ATTEMPTS = 20               # seeds tried per open arc
UNCROSS_MAX_NODES = 1000    # nodes of the largest uncross arc


def _rng(seed: int, attempt: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, attempt])))


def _sides(pts: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Turn of every node of the open path ``pts`` against the line of each
    segment in ``rows``: entry [r, k] is d_i x (p_k - a_i) for segment
    i = rows[r] from a_i along d_i.  An entry depends only on its own
    segment and its own node, so it never changes while both keep their
    coordinates."""
    a = pts[:-1][rows]
    d = pts[1:][rows] - a
    rx = pts[:, 0] - a[:, 0, None]
    ry = pts[:, 1] - a[:, 1, None]
    ry *= d[:, 0, None]             # in place: two (m, n) planes at most
    rx *= d[:, 1, None]
    ry -= rx
    return ry


def _first_crossing(side: np.ndarray,
                    apart: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically first pair of non-adjacent properly crossing
    segments, from the (m, m + 1) matrix of ``_sides``: segment j straddles
    the line of segment i when nodes j and j + 1 turn opposite ways.
    ``apart`` is the (m, m) mask of the pairs (i, j) with j >= i + 2."""
    m = len(side)
    straddle = (side[:, :-1] * side[:, 1:]) < 0
    proper = straddle & straddle.T & apart
    h = int(proper.argmax())        # row-major: the first (i, j)
    return divmod(h, m) if proper.flat[h] else None


def _reverse(pts: np.ndarray, side: np.ndarray, i: int, j: int) -> None:
    """Reverse nodes i+1..j of ``pts`` in place, and bring ``side`` up to
    date with it: the reversal permutes the columns of every segment it
    leaves alone, and segments i..j are new or reversed."""
    pts[i + 1:j + 1] = pts[j:i:-1]
    side[:, i + 1:j + 1] = side[:, j:i:-1]
    side[i:j + 1] = _sides(pts, slice(i, j + 1))


def _uncross(rng: np.random.Generator, nodes: int) -> np.ndarray | None:
    pts = rng.random((nodes, 2))
    side = _sides(pts)
    # every step has the same segment count, so the run builds this once
    apart = np.triu(np.ones((nodes - 1, nodes - 1), dtype=bool), k=2)
    for _ in range(10 * nodes * nodes):
        hit = _first_crossing(side, apart)
        if hit is None:
            return pts
        _reverse(pts, side, *hit)
    return None


def _zigzag(rng: np.random.Generator, nodes: int) -> np.ndarray:
    dx = rng.uniform(0.5, 1.5, nodes - 1)
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    mag = rng.uniform(0.3, 1.3, nodes)
    signs = np.where(np.arange(nodes) % 2 == 0, 1.0, -1.0)
    ys = signs * mag + rng.uniform(-0.2, 0.2, nodes)
    return np.column_stack((xs, ys))


def check_request(nodes: int, strategy: str) -> None:
    """Refuse, before anything is generated, what ``generate_arc`` cannot
    make: an unknown strategy or under 3 nodes (ValueError), or an uncross
    arc over ``UNCROSS_MAX_NODES`` nodes (GenerationError)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of "
                         f"{', '.join(STRATEGIES)}")
    if nodes < 3:
        raise ValueError("need at least 3 nodes for a non-degenerate arc")
    if strategy == "uncross" and nodes > UNCROSS_MAX_NODES:
        raise GenerationError(
            f"uncross arcs have at most {UNCROSS_MAX_NODES} nodes, got {nodes}"
            f"; zigzag has no limit")


def generate_arc(nodes: int, seed: int, strategy: str) -> PolygonalArc:
    """A validated simple open arc with ``nodes`` nodes."""
    check_request(nodes, strategy)
    for attempt in range(ATTEMPTS):
        rng = _rng(seed, attempt)
        raw = _uncross(rng, nodes) if strategy == "uncross" else _zigzag(rng, nodes)
        if raw is None:
            continue
        arc = PolygonalArc(raw.tolist())
        if validate_simple(arc).ok:
            return arc
    raise GenerationError(
        f"no simple arc with {nodes} nodes after {ATTEMPTS} attempts "
        f"(seed {seed}, strategy {strategy})")
