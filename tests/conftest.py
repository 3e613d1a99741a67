"""Shared fixtures: small worked arcs with hand-checked expectations."""

from __future__ import annotations

import math
import random

import pytest

from arcsupport import Point, PolygonalArc

# Tilt table of a six-locale instance, frozen for regression checks.
REFERENCE_TILTS = (73.76, -69.98, 25.70, 6.34, -23.90, 25.07, -61.01, 66.82)


@pytest.fixture
def pentagon_arc() -> PolygonalArc:
    """Five-node zigzag: three locales, sigma +1, axis along +x."""
    return PolygonalArc((Point(0, 0), Point(1, 1), Point(2, -1),
                         Point(3, 1), Point(4, 0)))


@pytest.fixture
def square_arc() -> PolygonalArc:
    """U-shaped cup: single locale, sigma -1, axis on the hull boundary."""
    return PolygonalArc((Point(0, 1), Point(0, 0), Point(1, 0), Point(1, 1)))


@pytest.fixture
def triangle_arc() -> PolygonalArc:
    """Tent: the smallest single-locale instance."""
    return PolygonalArc((Point(0, 0), Point(1, 1), Point(2, 0)))


@pytest.fixture
def pentagon_interior_start() -> PolygonalArc:
    """The pentagon arc prefixed with a node strictly inside the hull."""
    return PolygonalArc((Point(0.5, 0.2), Point(0, 0), Point(1, 1),
                         Point(2, -1), Point(3, 1), Point(4, 0)))


@pytest.fixture
def reference_tilts() -> tuple[float, ...]:
    return REFERENCE_TILTS


@pytest.fixture
def star_fan_700() -> PolygonalArc:
    """Open 700-node arc whose radius alternates 1 and about 0.05 over
    0.95 of a turn, as the benchmark's star fans do: every outer node is a
    hull vertex, so the hull has about 350 vertices."""
    n, rng = 700, random.Random(700)
    step = 0.95 * 2.0 * math.pi / (n - 1)
    nodes = []
    for i in range(n):
        theta = (i + rng.uniform(-0.25, 0.25)) * step
        r = 1.0 if i % 2 == 0 else 0.05 * rng.uniform(0.9, 1.1)
        nodes.append((r * math.cos(theta), r * math.sin(theta)))
    return PolygonalArc(nodes)
