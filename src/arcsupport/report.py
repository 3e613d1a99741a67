"""Serializable summary of a full arc analysis.

``AnalysisReport`` wraps the ``Analysis`` itself and builds its JSON on
demand.  Every index in that JSON refers to an arc node (the input
numbering), never to internal hull positions, so reports stay meaningful
without the objects that produced them.  The JSON schema is versioned via
a top-level ``"schema"`` field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .locales import TiltTable
from .solver import Analysis, SolutionSet

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AnalysisReport:
    analysis: Analysis

    @classmethod
    def from_analysis(cls, analysis: Analysis) -> "AnalysisReport":
        return cls(analysis)

    def to_dict(self) -> dict:
        data = self._dict_without_nodes()
        data["arc"]["nodes"] = [[p.x, p.y] for p in self.analysis.arc.nodes]
        return data

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, with the node array
        written directly: nodes are finite floats, which ``json`` writes
        with ``float.__repr__``."""
        # only "schema" and "closed" precede the empty node list
        head, tail = json.dumps(self._dict_without_nodes(), indent=2).split(
            '"nodes": []', 1)
        nodes = ",\n".join(f"      [\n        {x!r},\n        {y!r}\n      ]"
                           for x, y in self.analysis.arc.nodes)
        return f'{head}"nodes": [\n{nodes}\n    ]{tail}'

    def _dict_without_nodes(self) -> dict:
        """``to_dict()`` with ``arc.nodes`` an empty list in its place."""
        a = self.analysis
        guide = a.guide
        node = a.hull.node_ids
        return {
            "schema": SCHEMA_VERSION,
            "arc": {"closed": a.arc.closed, "nodes": []},
            "hull": list(node),
            "guide_path": {
                "visit": [node[h] for h in guide.visit],
                "sigma": guide.sigma,
                "axis_deg": guide.axis_deg,
                "axis_on_boundary": guide.axis_on_boundary,
                "links": [[node[l.start], node[l.end], l.kind]
                          for l in guide.links],
            },
            "locales": [{"index": loc.index,
                         "base": [node[loc.base[0]], node[loc.base[1]]],
                         "cap": [node[h] for h in loc.cap],
                         "side": loc.base_side}
                        for loc in a.decomposition.locales],
            "tilt_table": a.table.to_dict(),
        }


def tilt_table_csv(table: TiltTable) -> str:
    """Tilt table as CSV: one row per tilt index, span where defined."""
    lines = ["index,tilt_deg,span_deg"]
    spans = table.spans
    for i, tilt in enumerate(table.tilts):
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
