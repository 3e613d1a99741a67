"""Independent check of solved support-line pairs.

Plain arithmetic on the input nodes, sharing nothing with
``arcsupport.geom``: it checks the defining property of each pair rather
than repeating the solver's steps.
"""

from __future__ import annotations

import math

import numpy as np


def expected_pair_count(phi: float, phi_left: float, phi_right: float,
                        eps_angle: float) -> int:
    """Pairs meeting at ``phi``: one parallel pair at 0, otherwise one
    for each of the gaps +phi and -phi that lies within the aspect angles
    [phi_right, phi_left]."""
    if phi == 0.0:
        return 1
    return int(phi <= phi_left + eps_angle) + int(-phi >= phi_right - eps_angle)


def _offsets(line, nodes: np.ndarray) -> np.ndarray:
    th = math.radians(line.dir_deg)
    return (math.cos(th) * (nodes[:, 1] - line.py)
            - math.sin(th) * (nodes[:, 0] - line.px))


def _meeting_angle(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def pair_problem(pair, phi: float, nodes: np.ndarray,
                 eps: float) -> str | None:
    """Why ``pair`` does not realize ``phi`` on the arc ``nodes``, or None."""
    if not 0 <= pair.u < pair.v < pair.w < len(nodes):
        return f"contacts u={pair.u} v={pair.v} w={pair.w} are not ordered"
    for name, line, contacts in (("m", pair.m, (pair.u, pair.w)),
                                 ("n", pair.n, (pair.v,))):
        off = _offsets(line, nodes)
        if any(abs(off[c]) > eps for c in contacts):
            return f"line {name} misses a contact node"
        if off.min() < -eps and off.max() > eps:
            return f"line {name} has nodes on both sides"
    if abs(_meeting_angle(pair.m.dir_deg, pair.n.dir_deg) - phi) > 1e-6:
        return "lines do not meet at the prescribed angle"
    return None


def solution_problem(solution, phi: float, nodes: np.ndarray, eps: float,
                     phi_left: float, phi_right: float,
                     eps_angle: float) -> str | None:
    """Why ``solution`` is not the answer at ``phi``, or None."""
    expected = expected_pair_count(phi, phi_left, phi_right, eps_angle)
    if len(solution.pairs) != expected:
        return f"{len(solution.pairs)} pairs where the aspect angles imply {expected}"
    for pair in solution.pairs:
        problem = pair_problem(pair, phi, nodes, eps)
        if problem is not None:
            return problem
    return None
