"""Exception taxonomy shared across the package; the exit code each maps
to is in the one table of ``cli``'s docstring."""

from __future__ import annotations


class ArcSupportError(Exception):
    """Base class for all package-specific failures."""


class ParseError(ArcSupportError, ValueError):
    """Malformed input text; a message about one line starts
    ``line N: ``."""


class InvalidArcError(ArcSupportError, ValueError):
    """The node list does not describe a valid simple arc."""


class DegenerateHullError(ArcSupportError, ValueError):
    """All nodes are collinear; no two-dimensional hull exists."""


class UnsupportedArcError(ArcSupportError, ValueError):
    """Valid input outside this solver's domain: a closed arc passed to
    ``analyze_arc``, an open arc passed to ``solve_closed``, or a closed
    arc solved at φ ≠ 0."""


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
