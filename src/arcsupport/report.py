"""Serializable summary of a full arc analysis.

Every index in the report refers to an arc node (the input numbering),
never to internal hull positions, so reports stay meaningful without the
objects that produced them.  ``to_dict``/``from_dict`` round-trip exactly;
the JSON schema is versioned via a top-level ``"schema"`` field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .locales import TiltTable
from .solver import Analysis, SolutionSet

SCHEMA_VERSION = 1


class LocaleRow(NamedTuple):
    index: int
    base: tuple[int, int]
    cap: tuple[int, ...]
    side: str


@dataclass(frozen=True)
class AnalysisReport:
    arc_nodes: tuple[tuple[float, float], ...]
    arc_closed: bool
    hull_nodes: tuple[int, ...]         # counterclockwise
    visit_nodes: tuple[int, ...]        # guide-path order
    sigma: int
    axis_deg: float
    axis_on_boundary: bool
    links: tuple[tuple[int, int, str], ...]
    locales: tuple[LocaleRow, ...]
    table: TiltTable

    @classmethod
    def from_analysis(cls, analysis: Analysis) -> "AnalysisReport":
        hull = analysis.hull
        guide = analysis.guide
        node = hull.node_ids
        return cls(
            arc_nodes=tuple((p.x, p.y) for p in analysis.arc.nodes),
            arc_closed=analysis.arc.closed,
            hull_nodes=node,
            visit_nodes=guide.visit_nodes,
            sigma=guide.sigma,
            axis_deg=guide.axis_deg,
            axis_on_boundary=guide.axis_on_boundary,
            links=tuple((node[l.start], node[l.end], l.kind)
                        for l in guide.links),
            locales=tuple(
                LocaleRow(index=loc.index,
                          base=(node[loc.base[0]], node[loc.base[1]]),
                          cap=tuple(node[h] for h in loc.cap),
                          side=loc.base_side)
                for loc in analysis.decomposition.locales),
            table=analysis.table,
        )

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "arc": {"closed": self.arc_closed,
                    "nodes": [[x, y] for x, y in self.arc_nodes]},
            "hull": list(self.hull_nodes),
            "guide_path": {
                "visit": list(self.visit_nodes),
                "sigma": self.sigma,
                "axis_deg": self.axis_deg,
                "axis_on_boundary": self.axis_on_boundary,
                "links": [[s, e, kind] for s, e, kind in self.links],
            },
            "locales": [{"index": row.index, "base": list(row.base),
                         "cap": list(row.cap), "side": row.side}
                        for row in self.locales],
            "tilt_table": self.table.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema {data.get('schema')!r}; "
                f"expected {SCHEMA_VERSION}")
        gp = data["guide_path"]
        tt = data["tilt_table"]
        return cls(
            arc_nodes=tuple((float(x), float(y))
                            for x, y in data["arc"]["nodes"]),
            arc_closed=bool(data["arc"]["closed"]),
            hull_nodes=tuple(data["hull"]),
            visit_nodes=tuple(gp["visit"]),
            sigma=int(gp["sigma"]),
            axis_deg=float(gp["axis_deg"]),
            axis_on_boundary=bool(gp["axis_on_boundary"]),
            links=tuple((int(s), int(e), str(kind))
                        for s, e, kind in gp["links"]),
            locales=tuple(
                LocaleRow(index=int(row["index"]),
                          base=(int(row["base"][0]), int(row["base"][1])),
                          cap=tuple(int(c) for c in row["cap"]),
                          side=str(row["side"]))
                for row in data["locales"]),
            table=TiltTable(tilts=tuple(float(t) for t in tt["tilts"]),
                            spans=tuple(float(s) for s in tt["spans"]),
                            phi_left=float(tt["phi_left"]),
                            phi_right=float(tt["phi_right"]),
                            delta_total=float(tt["delta_total"])),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))


def tilt_table_csv(report: AnalysisReport) -> str:
    """Tilt table as CSV: one row per tilt index, span where defined."""
    lines = ["index,tilt_deg,span_deg"]
    spans = report.table.spans
    for i, tilt in enumerate(report.table.tilts):
        span = repr(spans[i - 1]) if 1 <= i <= len(spans) else ""
        lines.append(f"{i},{tilt!r},{span}")
    return "\n".join(lines) + "\n"


def solution_csv(solution: SolutionSet) -> str:
    """Solved pairs as CSV, one row per pair."""
    lines = ["locale,u,v,w,m_px,m_py,m_dir_deg,n_px,n_py,n_dir_deg,apex_side"]
    for p in solution.pairs:
        locale = "" if p.locale is None else p.locale
        lines.append(
            f"{locale},{p.u},{p.v},{p.w},"
            f"{p.m.px!r},{p.m.py!r},{p.m.dir_deg!r},"
            f"{p.n.px!r},{p.n.py!r},{p.n.dir_deg!r},{p.apex_side}")
    return "\n".join(lines) + "\n"
