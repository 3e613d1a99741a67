"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: bad input data exits 3, a violated
structural invariant exits 4, solver/oracle disagreement exits 5.
"""

from __future__ import annotations


class ArcSupportError(Exception):
    """Base class for all package-specific failures."""


class ParseError(ArcSupportError, ValueError):
    """Malformed input text; carries an optional line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidArcError(ArcSupportError, ValueError):
    """The node list does not describe a valid simple arc."""


class DegenerateHullError(ArcSupportError, ValueError):
    """All nodes are collinear; no two-dimensional hull exists."""


class UnsupportedArcError(ArcSupportError, ValueError):
    """Valid input outside this solver's domain: a closed arc passed to
    ``analyze_arc`` or ``brute_force_pairs``, an open arc passed to
    ``solve_closed``, or a closed arc solved at φ ≠ 0."""


class TooLargeError(ArcSupportError, ValueError):
    """An enumeration was requested above ``guidepath.ENUMERATION_CAP``."""


class GenerationError(ArcSupportError, RuntimeError):
    """Random arc generation failed to produce a valid arc."""


class StructuralViolationError(ArcSupportError, RuntimeError):
    """A geometric invariant that valid inputs cannot break was broken.

    Seeing this on a validated simple arc means a bug, not bad data.
    """


def ensure(condition: bool, message: str) -> None:
    """Raise StructuralViolationError unless condition holds."""
    if not condition:
        raise StructuralViolationError(message)
