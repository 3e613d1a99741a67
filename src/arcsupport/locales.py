"""Locale decomposition of the guide path and the tilt/span table.

Each hull edge whose two ends are not consecutive visits of the guide path
spans one locale: the edge is the locale's base, and the hull vertices
visited strictly between the base's endpoints form its cap.  Locales are
numbered 1..J in order of the base's earlier-visited endpoint; base sides
alternate, starting opposite the second visit's side.

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
    rank = {h: r for r, h in enumerate(guide.visit)}

    bases = []
    for i in range(k):
        u, w = sorted((i, (i + 1) % k), key=rank.get)
        if rank[w] - rank[u] > 1:
            bases.append((u, w))
    bases.sort(key=lambda b: rank[b[0]])

    u_ranks = [rank[u] for u, _ in bases]
    ensure(all(a < b for a, b in zip(u_ranks, u_ranks[1:])),
           "base start ranks are not strictly increasing")
    ensure(bases[-1][1] == guide.tail, "last base does not end at the tail")
    ensure((len(bases) == 1) == guide.axis_on_boundary,
           "single-locale form must coincide with the axis lying on the hull")

    side = guide.sides
    locales = []
    for j, (u, w) in enumerate(bases, start=1):
        # visit is in rank order, so the cap is the visits strictly between
        cap = guide.visit[rank[u] + 1:rank[w]]
        loc = Locale(index=j, base=(u, w), cap=cap,
                     base_side="lower" if j % 2 == 1 else "upper")
        ensure(all(side[h] == loc.cap_sign for h in cap),
               f"cap of locale {j} is not a single-side run")
        for h in (u, w):
            if h not in (guide.head, guide.tail):
                ensure(side[h] == -loc.cap_sign,
                       f"base endpoints of locale {j} break side alternation")
        locales.append(loc)

    return LocaleDecomposition(guide=guide, locales=tuple(locales))


@dataclass(frozen=True)
class TiltTable:
    tilts: tuple[float, ...]    # length J + 2
    spans: tuple[float, ...]    # length J
    phi_left: float
    phi_right: float
    delta_total: float

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

        spans = tuple(tilts[j + 1] - tilts[j - 1]
                      for j in range(1, j_count + 1))
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
    """The tilt/span table of a decomposition: tilts 0..J+1 in degrees,
    tilt 0 and J+1 from the first and last guide links, tilt j from base j."""
    guide = decomp.guide
    hull = guide.hull
    sigma = guide.sigma

    def tilt_of(a: int, b: int) -> float:
        raw = hull.edge_dir(a, b) - guide.axis_deg
        return sigma * normalize_angle(raw) + 0.0   # +0.0 avoids -0.0

    tilts = [tilt_of(guide.head, guide.visit[1])]
    for loc in decomp.locales:
        tilts.append(tilt_of(*loc.base))
    tilts.append(tilt_of(guide.visit[-2], guide.tail))
    return TiltTable.from_tilts(tuple(tilts))
