"""Strip diagram over the tilt table and angle queries against it.

The diagram lays the locales out as vertical strips whose widths are the
absolute spans.  Two piecewise-linear profiles run across the strips: the
upper one starts at tilt 0 and falls with slope -1 on odd strips, holding
the strip's own tilt on even strips; the lower one starts at tilt 1 and
holds the strip's tilt on odd strips, rising with slope +1 on even strips.
Their difference falls linearly from the left aspect angle to the right
aspect angle, so any prescribed gap between the profiles is found by a
direct linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .geom import DEFAULT_EPS_ANGLE, angle_problem
from .locales import TiltTable


class Strip(NamedTuple):
    index: int      # 1-based locale number
    x_left: float
    x_right: float


class AbstractSolution(NamedTuple):
    """A support-line pair in diagram coordinates.

    ``ordinate`` is the prescribed profile gap (signed), ``abscissa`` the
    diagram position where the gap occurs, in the strip of locale
    ``locale_index``, and ``contact_angle`` the moving profile's tilt there.
    """

    ordinate: float
    abscissa: float
    locale_index: int
    contact_angle: float


class AngleQuery(NamedTuple):
    case: str       # 'A', 'B', 'C', or 'D'
    solutions: tuple[AbstractSolution, ...]


@dataclass(frozen=True)
class SchematicDiagram:
    table: TiltTable
    strips: tuple[Strip, ...]

    @property
    def width(self) -> float:
        return self.strips[-1].x_right

    def strip_at(self, x: float) -> Strip:
        """Strip containing ``x``; strips are half-open on the right, the
        last one closed.  Positions outside the diagram are clamped."""
        for strip in self.strips[:-1]:
            if x < strip.x_right:
                return strip
        return self.strips[-1]

    def upper_value(self, x: float) -> float:
        x = min(max(x, 0.0), self.width)
        strip = self.strip_at(x)
        j = strip.index
        tilts = self.table.tilts
        if j % 2 == 1:
            return tilts[j - 1] - (x - strip.x_left)
        return tilts[j]

    def lower_value(self, x: float) -> float:
        x = min(max(x, 0.0), self.width)
        strip = self.strip_at(x)
        j = strip.index
        tilts = self.table.tilts
        if j % 2 == 1:
            return tilts[j]
        return tilts[j - 1] + (x - strip.x_left)


def build_schematic(table: TiltTable) -> SchematicDiagram:
    strips = []
    x = 0.0
    for j, span in enumerate(table.spans, start=1):
        strips.append(Strip(index=j, x_left=x, x_right=x + abs(span)))
        x += abs(span)
    return SchematicDiagram(table=table, strips=tuple(strips))


def query_angle(diagram: SchematicDiagram, phi_deg: float,
                eps_angle: float = DEFAULT_EPS_ANGLE) -> AngleQuery:
    """All support-line pairs whose lines meet at ``phi_deg`` degrees.

    Queries the diagram at profile gaps +phi and -phi; a gap is realized
    exactly when it lies between the right and left aspect angles, with an
    ``eps_angle`` slack so prescribed angles at the exact extremes are kept.
    The case follows from the solution count: A at phi = 0, otherwise B, C
    or D for two, one or no realized gaps.  An angle that
    ``geom.angle_problem`` rejects raises ValueError.
    """
    if (problem := angle_problem(phi_deg)) is not None:
        raise ValueError(f"angle {problem}, got {phi_deg}")
    table = diagram.table

    ordinates = [0.0] if phi_deg == 0.0 else [phi_deg, -phi_deg]
    solutions = []
    for s in ordinates:
        if not (table.phi_right - eps_angle <= s <= table.phi_left + eps_angle):
            continue
        x = min(max(table.phi_left - s, 0.0), diagram.width)
        strip = diagram.strip_at(x)
        j = strip.index
        tilt_j = table.tilts[j]
        theta = tilt_j + s if j % 2 == 1 else tilt_j - s
        solutions.append(AbstractSolution(s, x, j, theta))
    solutions.sort(key=lambda sol: sol.abscissa)
    case = "A" if phi_deg == 0.0 else {2: "B", 1: "C", 0: "D"}[len(solutions)]
    return AngleQuery(case, tuple(solutions))
