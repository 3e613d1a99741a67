"""Tests for the serializable analysis report and CSV renderings."""

from __future__ import annotations

import json

import pytest

from arcsupport.report import AnalysisReport, solution_csv, tilt_table_csv
from arcsupport.solver import analyze_arc, solve_at_angle, solve_closed
from arcsupport.arcio import PolygonalArc


@pytest.fixture
def pentagon_report(pentagon_arc):
    return AnalysisReport.from_analysis(analyze_arc(pentagon_arc))


class TestReportContent:
    def test_node_indexed_fields(self, pentagon_report):
        r = pentagon_report
        assert r.hull_nodes == (0, 2, 4, 3, 1)
        assert r.visit_nodes == (0, 1, 2, 3, 4)
        assert r.sigma == 1
        assert r.axis_deg == pytest.approx(0.0)
        assert not r.axis_on_boundary
        assert r.links == ((0, 1, "edge"), (1, 2, "crossing"),
                           (2, 3, "crossing"), (3, 4, "edge"))
        assert [(row.base, row.cap, row.side) for row in r.locales] == [
            ((0, 2), (1,), "lower"),
            ((1, 3), (2,), "upper"),
            ((2, 4), (3,), "lower"),
        ]
        assert len(r.table.tilts) == 5 and len(r.table.spans) == 3

    def test_arc_nodes_round(self, pentagon_report, pentagon_arc):
        assert pentagon_report.arc_nodes == tuple(
            (p.x, p.y) for p in pentagon_arc.nodes)
        assert pentagon_report.arc_closed is False


class TestRoundTrip:
    def test_dict_round_trip(self, pentagon_report):
        again = AnalysisReport.from_dict(pentagon_report.to_dict())
        assert again == pentagon_report

    def test_json_round_trip(self, pentagon_report):
        again = AnalysisReport.from_json(pentagon_report.to_json())
        assert again == pentagon_report

    def test_dict_shape(self, pentagon_report):
        d = pentagon_report.to_dict()
        assert set(d) == {"schema", "arc", "hull", "guide_path", "locales",
                          "tilt_table"}
        assert d["schema"] == 1
        assert set(d["guide_path"]) == {"visit", "sigma", "axis_deg",
                                        "axis_on_boundary", "links"}
        assert set(d["locales"][0]) == {"index", "base", "cap", "side"}
        assert json.loads(pentagon_report.to_json()) == d

    def test_schema_mismatch_rejected(self, pentagon_report):
        d = pentagon_report.to_dict()
        d["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            AnalysisReport.from_dict(d)


class TestCsv:
    def test_tilt_table_csv(self, pentagon_report):
        text = tilt_table_csv(pentagon_report)
        lines = text.strip().split("\n")
        assert lines[0] == "index,tilt_deg,span_deg"
        assert len(lines) == 6      # header + five tilts
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == ""     # no span at tilt 0
        last = lines[-1].split(",")
        assert last[0] == "4" and last[2] == ""       # none at tilt J+1
        mid = lines[2].split(",")
        assert float(mid[1]) == pytest.approx(pentagon_report.table.tilts[1])
        assert float(mid[2]) == pytest.approx(pentagon_report.table.spans[0])

    def test_solution_csv(self, pentagon_arc):
        result = solve_at_angle(analyze_arc(pentagon_arc), 30.0)
        text = solution_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == ("locale,u,v,w,m_px,m_py,m_dir_deg,"
                            "n_px,n_py,n_dir_deg,apex_side")
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[:4] == ["1", "0", "1", "2"]
        assert row[10] == "left"

    def test_solution_csv_closed_blank_locale(self):
        arc = PolygonalArc(((0, 0), (1, 0), (1, 1), (0, 1)), closed=True)
        text = solution_csv(solve_closed(arc))
        row = text.strip().split("\n")[1].split(",")
        assert row[0] == ""
        assert row[10] == "none"

    def test_csv_floats_round_trip(self, pentagon_report):
        # repr output preserves the exact float value.
        for line in tilt_table_csv(pentagon_report).strip().split("\n")[1:]:
            _, tilt, _ = line.split(",")
            assert float(tilt) in pentagon_report.table.tilts
