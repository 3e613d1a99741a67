"""Locale decomposition of the guide path and the tilt/span table.

Each hull edge the guide path does not traverse spans one locale: the edge
is the locale's base, and the hull vertices visited strictly between the
base's endpoints form its cap.  Locales are numbered 1..J in order of the
base's earlier-visited endpoint; base sides alternate, starting opposite
the second visit's side.

Tilt j is the signed angle from the axis to base j (earlier endpoint to
later), scaled by sigma; tilt 0 and tilt J+1 use the first and last guide
links instead.  Span j is the difference of the two tilts flanking tilt j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ensure
from .geom import normalize_angle
from .guidepath import GuidePath


@dataclass(frozen=True)
class Locale:
    index: int                  # 1-based
    base: tuple[int, int]       # hull indices (earlier visit, later visit)
    cap: tuple[int, ...]        # hull indices in visit order
    base_side: str              # 'lower' or 'upper'

    @property
    def cap_sign(self) -> int:
        """+1 when the cap sits on the upper side."""
        return 1 if self.base_side == "lower" else -1


@dataclass(frozen=True)
class LocaleDecomposition:
    guide: GuidePath
    locales: tuple[Locale, ...]

    @property
    def count(self) -> int:
        return len(self.locales)


def decompose_locales(guide: GuidePath) -> LocaleDecomposition:
    hull = guide.hull
    k = len(hull)
    rank = guide.rank

    traversed = {frozenset((l.start, l.end))
                 for l in guide.links if l.kind == "edge"}
    untraversed = [frozenset((i, (i + 1) % k))
                   for i in range(k)
                   if frozenset((i, (i + 1) % k)) not in traversed]

    bases = []
    for edge in untraversed:
        u, w = sorted(edge, key=lambda h: rank[h])
        bases.append((u, w))
    bases.sort(key=lambda b: rank[b[0]])

    crossings = sum(1 for l in guide.links if l.kind == "crossing")
    ensure(len(bases) == crossings + 1,
           "locale count does not exceed the crossing count by one")
    u_ranks = [rank[u] for u, _ in bases]
    ensure(all(a < b for a, b in zip(u_ranks, u_ranks[1:])),
           "base start ranks are not strictly increasing")
    ensure(bases[0][0] == guide.head, "first base does not start at the head")
    ensure(bases[-1][1] == guide.tail, "last base does not end at the tail")
    ensure((len(bases) == 1) == guide.axis_on_boundary,
           "single-locale form must coincide with the axis lying on the hull")

    locales = []
    for j, (u, w) in enumerate(bases, start=1):
        cap = tuple(h for h in guide.visit if rank[u] < rank[h] < rank[w])
        ensure(len(cap) > 0, f"locale {j} has an empty cap")
        loc = Locale(index=j, base=(u, w), cap=cap,
                     base_side="lower" if j % 2 == 1 else "upper")
        ensure(all(guide.side_of(h) == loc.cap_sign for h in cap),
               f"cap of locale {j} is not a single-side run")
        for h in (u, w):
            if h not in (guide.head, guide.tail):
                ensure(guide.side_of(h) == -loc.cap_sign,
                       f"base endpoints of locale {j} break side alternation")
        locales.append(loc)

    return LocaleDecomposition(guide=guide, locales=tuple(locales))


def compute_tilts(decomp: LocaleDecomposition) -> tuple[float, ...]:
    """Tilts 0..J+1 in degrees."""
    guide = decomp.guide
    hull = guide.hull
    sigma = guide.sigma

    def tilt_of(a: int, b: int) -> float:
        raw = hull.edge_dir(a, b) - guide.axis_deg
        return sigma * normalize_angle(raw) + 0.0   # +0.0 avoids -0.0

    tilts = [tilt_of(guide.head, guide.second)]
    for loc in decomp.locales:
        tilts.append(tilt_of(*loc.base))
    tilts.append(tilt_of(guide.penultimate, guide.tail))
    return tuple(tilts)


def compute_spans(tilts: tuple[float, ...]) -> tuple[float, ...]:
    """Span j = tilt(j+1) - tilt(j-1), for j = 1..J."""
    return tuple(tilts[j + 1] - tilts[j - 1] for j in range(1, len(tilts) - 1))


@dataclass(frozen=True)
class TiltTable:
    tilts: tuple[float, ...]    # length J + 2
    spans: tuple[float, ...]    # length J
    phi_left: float
    phi_right: float
    delta_total: float

    @property
    def count(self) -> int:
        return len(self.spans)

    def to_dict(self) -> dict:
        return {"tilts": list(self.tilts), "spans": list(self.spans),
                "phi_left": self.phi_left, "phi_right": self.phi_right,
                "delta_total": self.delta_total}

    @classmethod
    def from_tilts(cls, tilts: tuple[float, ...]) -> "TiltTable":
        ensure(len(tilts) >= 3, "a tilt table needs at least three tilts")
        j_count = len(tilts) - 2
        evens = tilts[0::2]
        odds = tilts[1::2]
        ensure(all(a > b for a, b in zip(evens, evens[1:])),
               "even tilts are not strictly decreasing")
        ensure(all(a < b for a, b in zip(odds, odds[1:])),
               "odd tilts are not strictly increasing")

        spans = compute_spans(tilts)
        for j, span in enumerate(spans, start=1):
            if j % 2 == 1:
                ensure(span < 0, f"span {j} should be negative")
            else:
                ensure(span > 0, f"span {j} should be positive")

        phi_left = tilts[0] - tilts[1]
        if j_count % 2 == 0:
            phi_right = tilts[j_count] - tilts[j_count + 1]
        else:
            phi_right = tilts[j_count + 1] - tilts[j_count]
        delta_total = sum(abs(s) for s in spans)

        ensure(0.0 < phi_left < 180.0, "left aspect angle out of range")
        ensure(-180.0 < phi_right < 0.0, "right aspect angle out of range")
        ensure(abs(delta_total - (phi_left - phi_right)) <= 1e-9,
               "total span does not match the aspect-angle difference")
        ensure(delta_total < 360.0 + 1e-7, "total span exceeds a full turn")

        return cls(tilts=tilts, spans=spans, phi_left=phi_left,
                   phi_right=phi_right, delta_total=delta_total)


def tilt_table(decomp: LocaleDecomposition) -> TiltTable:
    return TiltTable.from_tilts(compute_tilts(decomp))


def aspect_angles(table: TiltTable) -> tuple[float, float]:
    """(left, right) aspect angles in degrees; left > 0 > right."""
    return (table.phi_left, table.phi_right)
