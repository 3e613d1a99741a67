"""Tests for the serializable analysis report and CSV renderings."""

from __future__ import annotations

import json

import pytest
from helpers import star_fan

from arcsupport.arcgen import generate_arc
from arcsupport.report import AnalysisReport, solution_csv, tilt_table_csv
from arcsupport.solver import analyze_arc, solve_at_angle, solve_closed
from arcsupport.arcio import PolygonalArc, parse_arc


@pytest.fixture
def pentagon_analysis(pentagon_arc):
    return analyze_arc(pentagon_arc)


@pytest.fixture
def pentagon_report(pentagon_analysis):
    return AnalysisReport.from_analysis(pentagon_analysis)


class TestReportContent:
    def test_node_indexed_fields(self, pentagon_report):
        d = json.loads(pentagon_report.to_json())
        guide = d["guide_path"]
        assert d["hull"] == [0, 2, 4, 3, 1]
        assert guide["visit"] == [0, 1, 2, 3, 4]
        assert guide["sigma"] == 1
        assert guide["axis_deg"] == pytest.approx(0.0)
        assert guide["axis_on_boundary"] is False
        assert guide["links"] == [[0, 1, "edge"], [1, 2, "crossing"],
                                  [2, 3, "crossing"], [3, 4, "edge"]]
        assert [(loc["base"], loc["cap"], loc["side"])
                for loc in d["locales"]] == [
            ([0, 2], [1], "lower"),
            ([1, 3], [2], "upper"),
            ([2, 4], [3], "lower"),
        ]
        table = d["tilt_table"]
        assert len(table["tilts"]) == 5 and len(table["spans"]) == 3

    def test_arc_nodes_round(self, pentagon_report, pentagon_arc):
        arc = json.loads(pentagon_report.to_json())["arc"]
        assert arc["nodes"] == [[p.x, p.y] for p in pentagon_arc.nodes]
        assert arc["closed"] is False


class TestRoundTrip:
    def test_dict_shape(self, pentagon_report):
        d = json.loads(pentagon_report.to_json())
        assert set(d) == {"schema", "arc", "hull", "guide_path", "locales",
                          "tilt_table"}
        assert d["schema"] == 1
        assert set(d["guide_path"]) == {"visit", "sigma", "axis_deg",
                                        "axis_on_boundary", "links"}
        assert set(d["locales"][0]) == {"index", "base", "cap", "side"}

    @pytest.mark.parametrize("make", [
        lambda: generate_arc(3000, 5, "zigzag"),
        lambda: PolygonalArc(star_fan(712, 3)),
        lambda: parse_arc('{"nodes": [[0, 0], [2, -1], [4, 0], [3, 1], [1, 1]]}'),
        lambda: parse_arc('{"nodes": [[-3, 0], [0, -2], [0, 5e-324], [3, -0.0]]}'),
    ], ids=["zigzag", "fan", "integers", "signed-zero-subnormal"])
    def test_json_bytes_match_the_encoder(self, make):
        arc = make()
        text = AnalysisReport.from_analysis(analyze_arc(arc)).to_json()
        assert json.dumps(json.loads(text), indent=2) == text
        # repr tells -0.0 from 0.0, which == does not
        assert (repr(json.loads(text)["arc"]["nodes"])
                == repr([list(p) for p in arc.nodes]))


class TestCsv:
    def test_tilt_table_csv(self, pentagon_analysis):
        table = pentagon_analysis.table
        text = tilt_table_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == "index,tilt_deg,span_deg"
        assert len(lines) == 6      # header + five tilts
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == ""     # no span at tilt 0
        last = lines[-1].split(",")
        assert last[0] == "4" and last[2] == ""       # none at tilt J+1
        mid = lines[2].split(",")
        assert float(mid[1]) == pytest.approx(table.tilts[1])
        assert float(mid[2]) == pytest.approx(table.spans[0])

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

    def test_csv_floats_round_trip(self, pentagon_analysis):
        # repr output preserves the exact float value.
        table = pentagon_analysis.table
        for line in tilt_table_csv(table).strip().split("\n")[1:]:
            _, tilt, _ = line.split(",")
            assert float(tilt) in table.tilts
