"""End-to-end tests for the command-line interface.

Each test drives ``arcsupport.cli.run`` with an argv list and inspects the
exit code, captured stdout/stderr, and any files written; the closed-stdout
test runs ``python -m arcsupport.cli`` in a child process instead, as only a
real pipe can close.  Expected numbers are recomputed inline rather than
taken from library helpers.
"""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import shlex
import signal
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from helpers import (BAND_EDGE_ANGLES, BAND_REFUSAL, TINY_ANGLES, cli_child,
                     star_fan)

from arcsupport import cli
from arcsupport import hull as hull_module
from arcsupport.arcgen import STRATEGIES, generate_arc
from arcsupport.arcio import PolygonalArc, validate_simple
from arcsupport.cli import _build_parser, run
from arcsupport.errors import GenerationError, StructuralViolationError
from arcsupport.oracle import AgreementReport
from arcsupport.solver import analyze_arc

PENTAGON = [[0, 0], [1, 1], [2, -1], [3, 1], [4, 0]]
SQUARE_CLOSED = [[0, 1], [0, 0], [1, 0], [1, 1]]
BOWTIE_OPEN = [[0, 0], [2, 2], [2, 0], [0, 2]]
CLOSED_JSON = Path(__file__).parent / "data/readme/inputs/closed.json"
PENTAGON_JSON = Path(__file__).parent / "data/readme/inputs/pent.json"


# integers beyond the float range; 5000 digits also exceed int()'s limit
HUGE_INT_ARC = b'{"nodes": [[1' + b"0" * 400 + b', 0], [1, 1], [2, 0]]}'
HUGE_DIGITS_ARC = b'{"nodes": [[1' + b"0" * 5000 + b', 0], [1, 1], [2, 0]]}'


def _write_arc(tmp_path, nodes, closed=False, name="arc.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"nodes": nodes, "closed": closed}))
    return str(path)


@pytest.fixture
def pentagon_file(tmp_path):
    return _write_arc(tmp_path, PENTAGON)


# ---------------------------------------------------------------- validate

class TestValidate:
    def test_ok_json(self, pentagon_file, capsys):
        assert run(["validate", pentagon_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ok": True, "violations": []}

    def test_ok_csv_header_only(self, pentagon_file, capsys):
        assert run(["validate", "--format", "csv", pentagon_file]) == 0
        assert capsys.readouterr().out.strip() == "kind,indices,detail"

    def test_crossing_arc_exits_3(self, tmp_path, capsys):
        path = _write_arc(tmp_path, BOWTIE_OPEN)
        assert run(["validate", path]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        kinds = {v["kind"] for v in payload["violations"]}
        assert "segments_cross" in kinds
        for violation in payload["violations"]:
            assert isinstance(violation["indices"], list)
            assert isinstance(violation["detail"], str)

    def test_crossing_arc_csv_rows(self, tmp_path, capsys):
        path = _write_arc(tmp_path, BOWTIE_OPEN)
        assert run(["validate", "--format", "csv", path]) == 3
        assert capsys.readouterr().out == (
            "kind,indices,detail\n"
            "segments_cross,0 2,segments 0 and 2 intersect\n")

    def test_duplicate_node_reported(self, tmp_path, capsys):
        path = _write_arc(tmp_path, [[0, 0], [1, 1], [1, 1], [2, 0]])
        assert run(["validate", path]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert any(v["kind"] == "duplicate_node"
                   for v in payload["violations"])

    def test_csv_input_file(self, tmp_path, capsys):
        path = tmp_path / "arc.csv"
        path.write_text("x,y\n# comment\n0,0\n1,1\n2,-1\n3,1\n4,0\n")
        assert run(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


# ----------------------------------------------------------------- analyze

class TestAnalyze:
    def test_json_stdout(self, pentagon_file, capsys):
        assert run(["analyze", pentagon_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["arc"]["closed"] is False
        assert report["hull"] == [0, 2, 4, 3, 1]
        assert report["guide_path"]["visit"] == [0, 1, 2, 3, 4]
        assert report["guide_path"]["sigma"] == 1
        assert len(report["locales"]) == 3
        tilts = report["tilt_table"]["tilts"]
        assert len(tilts) == 5
        # Leading tilt: angle from the head->tail axis (along +x here) to
        # the head->second-visited-node direction, computed inline.
        assert tilts[0] == pytest.approx(math.degrees(math.atan2(1, 1)))

    def test_json_file_written(self, pentagon_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["analyze", "--json", str(out), pentagon_file]) == 0
        stdout_report = json.loads(capsys.readouterr().out)
        file_report = json.loads(out.read_text())
        assert file_report == stdout_report
        assert out.read_text().endswith("\n")

    def test_csv_tilt_table(self, pentagon_file, capsys):
        assert run(["analyze", "--format", "csv", pentagon_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,tilt_deg,span_deg"
        # Pentagon: J = 3 locales -> 5 tilts -> 5 data rows.
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] == ""  # no span at the leading tilt

    @pytest.mark.parametrize("name, text", [
        ("pent.json", PENTAGON_JSON.read_text(encoding="utf-8")),
        ("pent.csv", "0,0\n1,1\n2,-1\n3,1\n4,0\n")],     # no header
        ids=["json", "headerless-csv"])
    def test_leading_bom_is_ignored(self, tmp_path, capsys, name, text):
        outcomes = []
        for prefix in ("", "\ufeff"):
            path = tmp_path / (prefix and "bom-") / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(prefix + text, encoding="utf-8")
            code = run(["analyze", str(path)])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0][0] == 0
        assert outcomes[1] == outcomes[0]

    def test_collinear_arc_exits_3(self, tmp_path, capsys):
        path = _write_arc(tmp_path, [[0, 0], [1, 0], [2, 0], [3, 0]])
        assert run(["analyze", path]) == 3
        assert "error:" in capsys.readouterr().err

    def test_closed_arc_exits_3(self, tmp_path, capsys):
        path = _write_arc(tmp_path, SQUARE_CLOSED, closed=True)
        assert run(["analyze", path]) == 3
        assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- solve

class TestSolve:
    def test_parallel_pentagon(self, pentagon_file, capsys):
        assert run(["solve", "--phi", "0", pentagon_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["phi"] == 0.0
        assert payload["case"] == "A"
        assert len(payload["pairs"]) == 1
        pair = payload["pairs"][0]
        assert (pair["u"], pair["v"], pair["w"]) == (1, 2, 3)
        assert pair["m"]["dir_deg"] == pytest.approx(0.0, abs=1e-12)
        assert pair["n"]["dir_deg"] == pytest.approx(0.0, abs=1e-12)

    def test_angle_30_two_pairs(self, pentagon_file, capsys):
        assert run(["solve", "--phi", "30", pentagon_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "B"
        assert len(payload["pairs"]) == 2
        sides = {p["apex_side"] for p in payload["pairs"]}
        assert sides == {"left", "right"}

    def test_csv_format(self, pentagon_file, capsys):
        assert run(["solve", "--phi", "30", "--format", "csv",
                    pentagon_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("locale,u,v,w,m_px,m_py,m_dir_deg,"
                            "n_px,n_py,n_dir_deg,apex_side")
        assert len(lines) == 3

    def test_json_file_matches_stdout(self, pentagon_file, tmp_path, capsys):
        out = tmp_path / "solution.json"
        assert run(["solve", "--phi", "30", "--json", str(out),
                    pentagon_file]) == 0
        stdout_text = capsys.readouterr().out
        assert out.read_text() == stdout_text

    def test_svg_stem_writes_both_files(self, pentagon_file, tmp_path,
                                        capsys):
        stem = tmp_path / "drawing"
        assert run(["solve", "--phi", "30", "--svg", str(stem),
                    pentagon_file]) == 0
        capsys.readouterr()
        scene = (tmp_path / "drawing.scene.svg").read_text()
        schematic = (tmp_path / "drawing.schematic.svg").read_text()
        assert scene.startswith("<svg")
        assert schematic.startswith("<svg")
        assert 'class="m-line"' in scene
        assert 'class="query-rule"' in schematic

    @pytest.mark.parametrize("flag", ["--svg", "--json"])
    def test_failed_write_leaves_stdout_empty(self, pentagon_file, tmp_path,
                                              capsys, flag):
        target = tmp_path / "missing" / "out"
        assert run(["solve", "--phi", "30", flag, str(target),
                    pentagon_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "missing").exists()

    def test_phi_out_of_range_exits_2(self, pentagon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--phi", "180", pentagon_file])
        assert exc.value.code == 2
        assert "must lie in [0, 180)" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--phi", "-1", pentagon_file])
        assert exc.value.code == 2
        assert "must lie in [0, 180)" in capsys.readouterr().err

    def test_closed_arc_parallel_ok(self, tmp_path, capsys):
        path = _write_arc(tmp_path, SQUARE_CLOSED, closed=True)
        assert run(["solve", "--phi", "0", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "A"
        assert len(payload["pairs"]) == 1

    def test_closed_arc_nonzero_phi_exits_3(self, tmp_path, capsys):
        path = _write_arc(tmp_path, SQUARE_CLOSED, closed=True)
        assert run(["solve", "--phi", "30", path]) == 3
        assert "only --phi 0" in capsys.readouterr().err

    def test_closed_arc_svg_scene_only(self, tmp_path, capsys):
        path = _write_arc(tmp_path, SQUARE_CLOSED, closed=True)
        stem = tmp_path / "closedpic"
        assert run(["solve", "--phi", "0", "--svg", str(stem), path]) == 0
        capsys.readouterr()
        assert (tmp_path / "closedpic.scene.svg").exists()
        assert not (tmp_path / "closedpic.schematic.svg").exists()

    def test_closed_arc_svg_builds_one_hull(self, tmp_path, capsys,
                                            monkeypatch):
        original = hull_module.convex_hull
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "arcsupport"
                    and getattr(module, "convex_hull", None) is original):
                monkeypatch.setattr(module, "convex_hull", counting)
        path = _write_arc(tmp_path, SQUARE_CLOSED, closed=True)
        stem = tmp_path / "closedpic"
        assert run(["solve", "--phi", "0", "--svg", str(stem), path]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_invalid_arc_exits_3(self, tmp_path, capsys):
        path = _write_arc(tmp_path, BOWTIE_OPEN)
        assert run(["solve", "--phi", "0", path]) == 3
        assert "error:" in capsys.readouterr().err

    def test_segment_arc_exits_3(self, tmp_path, capsys):
        path = _write_arc(tmp_path, [[0, 0], [1, 0.5], [2, 1], [3, 2]])
        # Strictly convex chain: hull is 2D, but as a guide-path domain this
        # is fine; use truly collinear nodes for the degenerate case instead.
        capsys.readouterr()
        collinear = _write_arc(tmp_path, [[0, 0], [1, 1], [2, 2]],
                               name="seg.json")
        assert run(["solve", "--phi", "0", collinear]) == 3
        assert "error:" in capsys.readouterr().err
        assert run(["solve", "--phi", "0", path]) == 0


@pytest.mark.parametrize("command", [["analyze"], ["solve", "--phi", "30"]],
                         ids=["analyze", "solve"])
def test_json_file_with_csv_stdout(command, pentagon_file, tmp_path, capsys):
    """``--json PATH`` writes the plain JSON stdout, also when stdout is CSV."""
    assert run(command + [pentagon_file]) == 0
    json_stdout = capsys.readouterr().out
    assert run(command + ["--format", "csv", pentagon_file]) == 0
    csv_stdout = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert run(command + ["--json", str(out), "--format", "csv",
                          pentagon_file]) == 0
    assert capsys.readouterr().out == csv_stdout
    assert out.read_bytes() == json_stdout.encode()


@pytest.mark.parametrize("command", [
    ["analyze"], ["oracle", "--phi", "30"],
    ["render", "--what", "schematic", "--svg", "sq"]],
    ids=["analyze", "oracle", "render-schematic"])
def test_closed_arc_names_both_routes(command, tmp_path, monkeypatch, capsys):
    """A closed arc has only the parallel pair: the one error line names
    the command that solves it and the library function."""
    monkeypatch.chdir(tmp_path)
    assert run([*command, str(CLOSED_JSON)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: full analysis requires an open arc; for a closed arc's "
        "parallel pair, run 'arcsupport solve --phi 0' or call "
        "solve_closed()\n")
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ oracle

class TestOracle:
    @pytest.mark.parametrize("phi", ["0", "30", "100", "155.5"])
    def test_agreement(self, pentagon_file, capsys, phi):
        assert run(["oracle", "--phi", phi, pentagon_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["solver_count"] == payload["oracle_count"]
        assert payload["phi"] == float(phi)
        assert payload["case"] in "ABCD"

    def test_phi_out_of_range_exits_2(self, pentagon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["oracle", "--phi", "360", pentagon_file])
        assert exc.value.code == 2
        assert "must lie in [0, 180)" in capsys.readouterr().err


# ------------------------------------------------------------------ render

class TestRender:
    def test_scene(self, pentagon_file, tmp_path, capsys):
        stem = tmp_path / "pic"
        assert run(["render", "--what", "scene", "--svg", str(stem),
                    pentagon_file]) == 0
        text = (tmp_path / "pic.scene.svg").read_text()
        assert text.startswith("<svg")
        assert 'class="hull"' in text
        assert 'class="m-line"' not in text  # no solution rendered

    def test_schematic(self, pentagon_file, tmp_path, capsys):
        stem = tmp_path / "pic"
        assert run(["render", "--what", "schematic", "--svg", str(stem),
                    pentagon_file]) == 0
        text = (tmp_path / "pic.schematic.svg").read_text()
        assert 'class="delta-profile"' in text
        assert 'class="query-rule"' not in text  # no query overlay

    def test_closed_scene_ok(self, tmp_path, capsys):
        path = _write_arc(tmp_path, SQUARE_CLOSED, closed=True)
        stem = tmp_path / "sq"
        assert run(["render", "--what", "scene", "--svg", str(stem),
                    path]) == 0
        assert (tmp_path / "sq.scene.svg").exists()

    @pytest.mark.parametrize("command", [["render", "--what", "scene", "--svg"],
                                         ["solve", "--phi", "0", "--svg"]])
    def test_closed_self_intersecting_exits_3(self, tmp_path, capsys,
                                              command):
        path = _write_arc(tmp_path, [[0, 0], [1, 1], [1, 0], [0, 1]],
                          closed=True)
        stem = tmp_path / "bow"
        assert run([*command, str(stem), path]) == 3
        assert capsys.readouterr().err == (
            "error: arc is not simple: segments 0 and 2 intersect\n")
        assert not (tmp_path / "bow.scene.svg").exists()

    def test_closed_schematic_exits_3(self, tmp_path, capsys):
        path = _write_arc(tmp_path, SQUARE_CLOSED, closed=True)
        stem = tmp_path / "sq"
        assert run(["render", "--what", "schematic", "--svg", str(stem),
                    path]) == 3
        assert "error:" in capsys.readouterr().err

    def test_render_deterministic(self, pentagon_file, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["render", "--what", "scene", "--svg", str(a), pentagon_file])
        run(["render", "--what", "scene", "--svg", str(b), pentagon_file])
        assert ((tmp_path / "a.scene.svg").read_bytes()
                == (tmp_path / "b.scene.svg").read_bytes())


# -------------------------------------------------------------------- fuzz

class TestFuzz:
    def test_small_run(self, capsys):
        assert run(["fuzz", "--count", "4", "--seed", "7",
                    "--nodes", "5-8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["failures"] == []
        assert payload["rng"] == "pcg64"
        assert payload["seed"] == 7
        assert payload["count"] == 4
        assert payload["nodes"] == "5-8"
        # Without a grid each arc is checked at 0 and the two threshold
        # angles of its tilt table.
        assert payload["checks"] == 4 * 3

    def test_grid_check_count(self, capsys):
        assert run(["fuzz", "--count", "2", "--seed", "1", "--nodes", "6",
                    "--phi-grid", "60"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # 0, the grid's 60 and 120, and the two thresholds: 0 once.
        assert payload["checks"] == 2 * 5

    def test_fixed_strategy(self, capsys):
        assert run(["fuzz", "--count", "3", "--seed", "2", "--nodes", "5",
                    "--strategy", "zigzag"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "zigzag"
        assert payload["ok"] is True

    def test_bad_grid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fuzz", "--count", "1", "--phi-grid", "-5"])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_grid_step_below_cap_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fuzz", "--count", "1", "--phi-grid", "1e-12"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # one error line after argparse's usage text
        assert "at least 0.01" in err.splitlines()[-1]
        assert err.count("error:") == 1

    def test_grid_step_at_cap_accepted(self, capsys):
        assert run(["fuzz", "--count", "0", "--phi-grid", "0.01"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"] == 0

    @pytest.mark.parametrize("flag, value", [
        ("--count", "-1"), ("--count", "1.5"), ("--seed", "-1")])
    def test_bad_count_or_seed_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(["fuzz", "--nodes", "5", f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            f"must be an integer >= 0, got {value!r}")

    def test_large_uncross_exits_3(self, capsys, monkeypatch):
        def no_rng(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr("arcsupport.arcgen._rng", no_rng)
        assert run(["fuzz", "--count", "1", "--nodes", "1001",
                    "--strategy", "uncross"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: uncross arcs have at most")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["2", "9-4", "x", "-3", "4-", "3-x"])
    def test_bad_nodes_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(["fuzz", "--nodes", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "arcsupport fuzz: error: argument --nodes: "
            f"bad node count or range {value!r}")


class TestFuzzFailures:
    """A failing arc is recorded with a command that replays it, and the
    run goes on to the next arc."""

    # arc 2 of `fuzz --count 4 --seed 7 --nodes 5-8`: 7 nodes, seed 9
    BAD = generate_arc(7, 9, STRATEGIES[0])

    def _fuzz(self, capsys, argv):
        code = run(["fuzz", *argv])
        return code, json.loads(capsys.readouterr().out)

    def _break_analysis(self, monkeypatch):
        analyze = cli.analyze_arc

        def broken(arc, *args):
            if arc == self.BAD:
                raise StructuralViolationError("planted")
            return analyze(arc, *args)
        monkeypatch.setattr(cli, "analyze_arc", broken)

    def test_violation_is_recorded_and_the_run_goes_on(self, capsys,
                                                        monkeypatch):
        self._break_analysis(monkeypatch)
        code, payload = self._fuzz(
            capsys, ["--count", "4", "--seed", "7", "--nodes", "5-8"])
        assert code == 4
        assert payload["ok"] is False
        assert payload["checks"] == 3 * 3      # the other three arcs
        reproduce = ("arcsupport fuzz --count 1 --seed 9 --nodes 7 "
                     f"--strategy {STRATEGIES[0]}")
        assert payload["failures"] == [{
            "seed": 9, "nodes": 7, "strategy": STRATEGIES[0], "phi": None,
            "message": "structural violation: planted",
            "reproduce": reproduce}]
        # the command replays the failure, and only that arc
        code, again = self._fuzz(capsys, shlex.split(reproduce)[2:])
        assert code == 4 and again["failures"] == payload["failures"]
        assert again["count"] == 1 and again["checks"] == 0
        monkeypatch.undo()
        code, fixed = self._fuzz(capsys, shlex.split(reproduce)[2:])
        assert code == 0 and fixed["checks"] == 3

    def test_violation_in_a_check_names_the_angle(self, capsys, monkeypatch):
        compare = cli.compare_with_solver

        def broken(arc, phi, **kwargs):
            if arc == self.BAD and phi == 60.0:
                raise StructuralViolationError("planted")
            return compare(arc, phi, **kwargs)
        monkeypatch.setattr(cli, "compare_with_solver", broken)
        code, payload = self._fuzz(capsys, [
            "--count", "4", "--seed", "7", "--nodes", "5-8",
            "--phi-grid", "60"])
        assert code == 4
        # arc 2 got through 0 before the violation
        assert payload["checks"] == 3 * 5 + 1
        [failure] = payload["failures"]
        assert failure["phi"] == 60.0
        assert failure["reproduce"].endswith(" --phi-grid 60.0")

    def test_interrupt_prints_the_finished_arcs(self, capsys, monkeypatch):
        argv = ["--count", "4", "--seed", "7", "--nodes", "5-8"]
        self._break_analysis(monkeypatch)
        _, whole = self._fuzz(capsys, argv)
        compare = cli.compare_with_solver
        calls = []

        def interrupting(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3 * 2 + 2:
                raise KeyboardInterrupt
            return compare(*args, **kwargs)
        monkeypatch.setattr(cli, "compare_with_solver", interrupting)
        code = run(["fuzz", *argv])
        out, err = capsys.readouterr()
        assert (code, err) == (130, "error: interrupted\n")
        # arcs 0 and 1 were checked 3 times each and arc 2 failed in its
        # analysis; the second check of arc 3 was interrupted
        assert json.loads(out) == {**whole, "checks": 3 * 2,
                                   "interrupted": True, "arcs_done": 3}
        assert list(json.loads(out)) == list(whole) + ["interrupted",
                                                      "arcs_done"]

    def test_generator_giving_up_prints_the_finished_arcs(self, capsys,
                                                          monkeypatch):
        argv = ["--count", "4", "--seed", "7", "--nodes", "5-8"]
        _, whole = self._fuzz(capsys, argv)
        generate = cli.generate_arc
        calls = []

        def giving_up(*args):
            calls.append(args)
            if len(calls) == 2:
                raise GenerationError("planted")
            return generate(*args)
        monkeypatch.setattr(cli, "generate_arc", giving_up)
        code = run(["fuzz", *argv])
        out, err = capsys.readouterr()
        assert (code, err) == (3, "error: planted\n")
        # arc 0 was checked 3 times, and arc 1 was never made
        assert json.loads(out) == {**whole, "checks": 3, "arcs_done": 1,
                                   "error": "planted"}
        assert list(json.loads(out)) == list(whole) + ["arcs_done", "error"]

    @pytest.mark.parametrize("strategy", ["uncross", "mixed"])
    def test_range_over_the_uncross_cap_is_refused_up_front(
            self, capsys, monkeypatch, strategy):
        # as `--nodes 999-1001` at the real cap, which would otherwise
        # make two 15 s arcs before the third is refused
        monkeypatch.setattr("arcsupport.arcgen.UNCROSS_MAX_NODES", 5)
        generate = cli.generate_arc
        calls = []

        def counted(*args):
            calls.append(args)
            return generate(*args)
        monkeypatch.setattr(cli, "generate_arc", counted)
        code = run(["fuzz", "--count", "3", "--nodes", "4-6",
                    "--strategy", strategy])
        message = "uncross arcs have at most 5 nodes, got 6; zigzag has no limit"
        assert (code, capsys.readouterr(), calls) == (
            3, ("", f"error: {message}\n"), [])

    def test_zigzag_range_over_the_uncross_cap_runs(self, capsys,
                                                    monkeypatch):
        monkeypatch.setattr("arcsupport.arcgen.UNCROSS_MAX_NODES", 5)
        code, payload = self._fuzz(capsys, ["--count", "3", "--nodes", "4-6",
                                            "--strategy", "zigzag"])
        assert (code, payload["ok"], payload["checks"] >= 3) == (0, True, True)

    def test_disagreements_alone_exit_5(self, capsys, monkeypatch):
        compare = cli.compare_with_solver

        def disagree(arc, phi, **kwargs):
            report = compare(arc, phi, **kwargs)
            if arc != self.BAD:
                return report
            return AgreementReport(phi=phi, case=report.case, solver_count=1,
                                   oracle_count=2, ok=False,
                                   message="pair counts differ")
        monkeypatch.setattr(cli, "compare_with_solver", disagree)
        code, payload = self._fuzz(
            capsys, ["--count", "4", "--seed", "7", "--nodes", "5-8"])
        assert code == 5
        assert payload["checks"] == 4 * 3
        assert [f["seed"] for f in payload["failures"]] == [9, 9, 9]
        assert all(f["reproduce"].startswith("arcsupport fuzz --count 1 "
                                             "--seed 9 --nodes 7 ")
                   for f in payload["failures"])

    def test_violation_outranks_disagreement(self, capsys, monkeypatch):
        self._break_analysis(monkeypatch)
        compare = cli.compare_with_solver

        def disagree(arc, phi, **kwargs):
            report = compare(arc, phi, **kwargs)
            return AgreementReport(phi=phi, case=report.case, solver_count=1,
                                   oracle_count=2, ok=False,
                                   message="pair counts differ")
        monkeypatch.setattr(cli, "compare_with_solver", disagree)
        code, payload = self._fuzz(
            capsys, ["--count", "4", "--seed", "7", "--nodes", "5-8"])
        assert code == 4
        assert len(payload["failures"]) == 3 * 3 + 1


def _typed(phi: float) -> str:
    """phi as a user would type it: its repr, exponent unpadded."""
    return repr(phi).replace("e-0", "e-")


# --------------------------------------------------- flags not honoured

class TestTinyAngles:
    """A positive --phi inside the angle band of 0 is a usage error."""

    # a jittered grid arc that validates; its aspect angles are 76.16 and
    # -7.08e-8, and the oracle agrees at every whole degree
    JITTERED = [[0.9999999968234927, 2.9365686771920116e-09],
                [1.9999999907237989, 0.9999999964859639],
                [0.9999999930981929, 9.09777658306995e-09],
                [4.999999990958143, 4.000000002503641]]

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("phi", [_typed(a) for a in TINY_ANGLES])
    def test_exits_2_with_one_error_line(self, capsys, command, phi):
        with pytest.raises(SystemExit) as exc:
            run([command, str(PENTAGON_JSON), "--phi", phi])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # one error line after argparse's usage text
        assert captured.err.count("error:") == 1
        assert captured.err.splitlines()[-1] == (
            f"arcsupport {command}: error: argument --phi: "
            f"{BAND_REFUSAL}, got {phi!r}")

    @pytest.mark.parametrize("phi", [_typed(a) for a in BAND_EDGE_ANGLES])
    def test_band_edge_solves_and_agrees(self, capsys, phi):
        assert run(["solve", str(PENTAGON_JSON), "--phi", phi]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert solved["case"] == "B" and len(solved["pairs"]) == 2
        assert run(["oracle", str(PENTAGON_JSON), "--phi", phi]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_fuzz_skips_an_aspect_angle_inside_the_band(self, capsys,
                                                        monkeypatch):
        arc = PolygonalArc(self.JITTERED)
        monkeypatch.setattr(cli, "generate_arc", lambda *args: arc)
        assert run(["fuzz", "--count", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # 0 and the left aspect angle only
        assert payload["checks"] == 2 and payload["ok"] is True


class TestUnhonouredFlags:
    """Each subcommand rejects the shared flags it would ignore."""

    @pytest.mark.parametrize("flag", [
        ["--eps", "1"], ["--eps-angle", "1e-7"], ["--format", "csv"]])
    def test_fuzz_rejects_arc_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(["fuzz", "--count", "1", "--nodes", "5", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["oracle", "--phi", "30"],
        ["render", "--what", "scene", "--svg", "unused"]])
    def test_format_rejected(self, pentagon_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, pentagon_file, "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in (
            capsys.readouterr().err)


# ------------------------------------------------------------ option sets

class TestOptionSets:
    def test_each_subcommand_takes_exactly_these_options(self):
        # a new knob has to show up here, and so in review
        parser = _build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        options = {name: sorted(o for a in p._actions
                                for o in a.option_strings
                                if o not in ("-h", "--help"))
                   for name, p in sub.choices.items()}
        assert options == {
            "validate": ["--format"],
            "analyze": ["--format", "--json"],
            "solve": ["--format", "--json", "--phi", "--svg"],
            "oracle": ["--phi"],
            "render": ["--svg", "--what"],
            "fuzz": ["--count", "--nodes", "--phi-grid", "--seed",
                     "--strategy"],
        }
        assert sum(map(len, options.values())) == 15


# ----------------------------------------------------------- error handling

class TestErrorHandling:
    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        # a child process whose reader takes 10 bytes and goes away, as
        # `| head -c 10` does; the report (about 365 kB) overfills the pipe
        child = cli_child("analyze", _write_arc(tmp_path, star_fan(3000, 1)))
        head = child.stdout.read(10)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (head, child.wait(), err) == (b'{\n  "schem', 1, b"")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_interrupt_exits_130_quietly(self, tmp_path):
        # the child reads its arc from a named pipe: once the pipe has a
        # reader, the child is inside run(), past start-up and its imports,
        # and it waits there for data that never comes until SIGINT
        fifo = tmp_path / "arc.json"
        os.mkfifo(fifo)
        # a background job of a non-interactive shell starts with SIGINT
        # ignored, and the child would inherit that: reset it to the default
        child = cli_child("validate", str(fifo), preexec_fn=lambda:
                          signal.signal(signal.SIGINT, signal.SIG_DFL))
        writer = None
        try:
            deadline = time.monotonic() + 60.0
            while writer is None:
                try:
                    writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                except OSError as exc:      # ENXIO: no reader yet
                    if (exc.errno != errno.ENXIO or child.poll() is not None
                            or time.monotonic() > deadline):
                        raise
                    time.sleep(0.01)
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=60.0)
            assert (child.returncode, out, err) == (
                130, b"", b"error: interrupted\n")
        finally:
            if writer is not None:
                os.close(writer)
            child.kill()
            child.wait(timeout=60.0)

    def test_missing_file_exits_3(self, capsys, tmp_path):
        assert run(["analyze", str(tmp_path / "nope.json")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": [[0, 0], [1, ')
        assert run(["validate", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_overflowing_arc_exits_3(self, tmp_path, capsys, command):
        # the bounding-box diagonal of these nodes overflows to inf
        path = _write_arc(tmp_path, [[0, 0], [1e308, 1e308], [-1e308, 0]])
        assert run([command, path]) == 3
        err = capsys.readouterr().err
        assert "float range" in err and "coincide" not in err

    @pytest.mark.parametrize("argv", [["analyze"], ["oracle", "--phi", "30"]])
    def test_huge_finite_arc_exits_3(self, tmp_path, capsys, argv):
        # the diagonal (~4.5e160) is finite, but products of it overflow
        path = _write_arc(tmp_path, [[x * 1e160, y * 1e160]
                                     for x, y in PENTAGON])
        assert run([*argv, path]) == 3
        err = capsys.readouterr().err
        assert "float range" in err and "collinear" not in err

    def test_scale_range_is_one_verdict(self, tmp_path, capsys):
        # the pentagon scaled by 10**-e: validate, analyze and oracle share
        # one exit code and, when it is 3, one message; below a diagonal of
        # about 5e-158 the collinearity band underflows to 0
        for e in range(140, 321, 5):
            scale = float(f"1e-{e}")
            path = _write_arc(tmp_path, [[x * scale, y * scale]
                                         for x, y in PENTAGON])
            codes, errors = set(), set()
            for argv in (["validate"], ["analyze"], ["oracle", "--phi", "30"]):
                codes.add(run([*argv, path]))
                errors.add(capsys.readouterr().err)
            assert codes == {0 if e <= 155 else 3}, e
            [err] = errors
            if e <= 155:
                assert err == ""
            else:
                assert err.count("\n") == 1 and err.startswith("error: ")
                assert "underflows the float range" in err

    @pytest.mark.parametrize("content", [HUGE_INT_ARC, HUGE_DIGITS_ARC,
                                         b"[" * 100000 + b"]" * 100000,
                                         b'\xff{"nodes": []}'],
                             ids=["1e400", "5000-digits", "deep", "not-utf8"])
    def test_unreadable_json_exits_3(self, tmp_path, capsys, content):
        path = tmp_path / "arc.json"
        path.write_bytes(content)
        assert run(["validate", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        # a bad first line is not a header when it is not two fields
        for text, line in (("0,0\n1,1\nbroken\n", 3),
                           ("0;0\n0,0\n1,1\n2,-1\n3,1\n4,0\n", 1)):
            path.write_text(text)
            assert run(["validate", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: line {line}: ")

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("arcsupport.arcgen._zigzag", exhausted)
        assert run(["fuzz", "--count", "1", "--nodes", "100000000",
                    "--strategy", "zigzag"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    @pytest.mark.parametrize("command, planted", [
        ("solve", "solve_at_angle"), ("oracle", "compare_with_solver")])
    def test_structural_violation_exits_4(self, capsys, monkeypatch, command,
                                          planted):
        # no valid input raises it, so it is planted in the library call
        # that the command makes
        def violated(*args, **kwargs):
            raise StructuralViolationError("planted")

        monkeypatch.setattr(cli, planted, violated)
        assert run([command, str(PENTAGON_JSON), "--phi", "30"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "structural violation: planted\n"

    def test_no_arguments_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["conjure", "x.json"])
        assert exc.value.code == 2

    def test_missing_phi_usage_error(self, pentagon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", pentagon_file])
        assert exc.value.code == 2


# -------------------------------------------------------- tolerance flags

class TestToleranceFlags:
    """Both tolerance bands are derived from the arc; no subcommand takes
    a flag for either."""

    def test_absolute_eps(self, pentagon_file, tmp_path, capsys):
        stem = str(tmp_path / "unused")
        for argv in (["validate"], ["analyze"], ["solve", "--phi", "30"],
                     ["oracle", "--phi", "30"],
                     ["render", "--what", "scene", "--svg", stem]):
            with pytest.raises(SystemExit) as exc:
                run([*argv, pentagon_file, "--eps", "1e-9"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.splitlines()[-1] == (
                "arcsupport: error: unrecognized arguments: --eps 1e-9")
        assert not (tmp_path / "unused.scene.svg").exists()

    def test_eps_angle(self, pentagon_file, tmp_path, capsys):
        # the angle band is fixed at DEFAULT_EPS_ANGLE; no subcommand
        # takes a flag for it, whatever the value
        stem = str(tmp_path / "unused")
        for argv in (["validate"], ["analyze"], ["solve", "--phi", "30"],
                     ["oracle", "--phi", "30"],
                     ["render", "--what", "scene", "--svg", stem]):
            for value in ("1e-7", "5", "0"):
                with pytest.raises(SystemExit) as exc:
                    run([*argv, pentagon_file, "--eps-angle", value])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert "Traceback" not in err
                assert err.splitlines()[-1] == (
                    "arcsupport: error: unrecognized arguments: "
                    f"--eps-angle {value}")
        assert not (tmp_path / "unused.scene.svg").exists()

    def test_both_overrides(self, pentagon_file, capsys):
        # under the derived bands solver and oracle agree, and neither
        # band can be overridden
        assert run(["oracle", "--phi", "30", pentagon_file]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        with pytest.raises(SystemExit) as exc:
            run(["oracle", pentagon_file, "--phi", "30", "--eps", "1e-9",
                 "--eps-angle", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "arcsupport: error: unrecognized arguments: "
            "--eps 1e-9 --eps-angle 5")

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "-1"), ("--eps", "nan"), ("--eps", "0"), ("--eps", "x"),
        ("--eps-angle", "-1"), ("--eps-angle", "0"), ("--eps-angle", "inf")])
    def test_bad_value_is_usage_error(self, pentagon_file, capsys, flag,
                                      value):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", f"{flag}={value}", pentagon_file])
        # neither band has a flag, so any value of either is rejected
        # by the parser as an unknown argument
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"arcsupport: error: unrecognized arguments: {flag}={value}")

    # jitter trial 1097 at J = 1e-9: solver and oracle agree at phi 0 under
    # the derived eps_len, 3.6e-9, and disagreed at half of it
    T1097 = [[2.999999999304414, -9.754705070547946e-10],
             [2.99999999978306, 2.0000000004555405],
             [1.9999999992117192, 2.999999999113867],
             [0.9999999992837023, 2.000000000971705]]

    def test_t1097_agrees_under_the_one_tolerance(self, tmp_path, capsys):
        path = _write_arc(tmp_path, self.T1097)
        assert run(["oracle", path, "--phi", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        with pytest.raises(SystemExit) as exc:
            run(["oracle", path, "--phi", "0", "--eps", "1.8e-9"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        arc = PolygonalArc(self.T1097)
        tol = arc.tolerance()
        with pytest.raises(TypeError):
            validate_simple(arc, tol)
        with pytest.raises(TypeError):
            analyze_arc(arc, tol)
        with pytest.raises(TypeError):
            arc.tolerance(1e-6)


# ------------------------------------------------------- arbitrary flags

@pytest.fixture(scope="module")
def pentagon_path(tmp_path_factory):
    return _write_arc(tmp_path_factory.mktemp("arc"), PENTAGON)


ANGLES = st.sampled_from(
    ["0", "30", "90", "179.9", "180", "-1", "nan", "inf", "1e308"])
# steps at or above 10 keep a run short; steps below 0.01 are rejected
GRID_STEPS = st.sampled_from(
    ["10", "45", "1e308", "0.001", "1e-12", "0", "-5", "nan", "inf"])


class TestArbitraryFlags:
    @settings(max_examples=50, deadline=None)
    @given(command=st.sampled_from(
               ["validate", "analyze", "solve", "oracle", "render", "fuzz"]),
           phi=ANGLES, step=GRID_STEPS)
    def test_no_traceback(self, pentagon_path, tmp_path_factory, command,
                          phi, step):
        argv = [command]
        if command == "fuzz":
            argv += ["--count", "1", "--nodes", "5", f"--phi-grid={step}"]
        else:
            argv.append(pentagon_path)
        if command in ("solve", "oracle"):
            argv.append(f"--phi={phi}")
        if command == "render":
            stem = tmp_path_factory.mktemp("svg") / "out"
            argv += ["--what", "schematic", "--svg", str(stem)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 5), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# ------------------------------------------------------- arbitrary files

def _joined(parts, open_="[", close="]"):
    return open_ + ", ".join(parts) + close


def _mostly(common, rare):
    """``common`` four times in five, else ``rare``."""
    return st.sampled_from((common,) * 4 + (rare,)).flatmap(lambda s: s)


NUMBERS = _mostly(
    st.integers(-3, 3).map(str) | st.floats(-10, 10).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.sampled_from(["1e999", "-1e999", "1e308", "-1e308", "5e-324",
                       "1e-300", "NaN", "Infinity", "-0.0",
                       "1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 5000]))
SCALARS = NUMBERS | st.sampled_from(["true", "false", "null", '"1"', "{}"])
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2).map(_joined)
# besides pairs: short or long lists, lists nested one level too deep,
# and bare scalars
ENTRIES = _mostly(PAIRS, st.lists(SCALARS, max_size=3).map(_joined)
                  | PAIRS.map(lambda e: f"[{e}]") | SCALARS)
ARCS = st.builds(
    lambda nodes, closed, unknown: _joined(
        [f'"nodes": {nodes}'] + ([f'"closed": {closed}'] if closed else [])
        + (['"color": 1'] if unknown else []), "{", "}"),
    nodes=_mostly(st.lists(ENTRIES, min_size=2, max_size=8).map(_joined),
                  st.lists(ENTRIES, max_size=1).map(_joined) | SCALARS),
    closed=_mostly(st.sampled_from(["", "true", "false"]), SCALARS),
    unknown=_mostly(st.just(False), st.just(True)))
JSON_TEXTS = _mostly(ARCS, PAIRS | st.lists(ENTRIES, max_size=4).map(_joined)
                     | SCALARS)
CSV_LINES = _mostly(st.tuples(NUMBERS, NUMBERS).map(",".join),
                    st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)
                    | st.sampled_from(["x,y", "# comment", "", " , ",
                                       "1,2 # c"])
                    | st.text(max_size=12))


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


def _validate_file(path, content):
    path.write_text(content, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run(["validate", str(path)])
    err = err.getvalue()
    assert code in (0, 3), (content[:200], err)
    # exit 3 with a violation list prints nothing to stderr
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)


class TestArbitraryFiles:
    @settings(max_examples=200, deadline=None)
    @given(text=JSON_TEXTS, cut=st.none() | st.integers(0, 60))
    @example(text=HUGE_INT_ARC.decode(), cut=None)
    @example(text=HUGE_DIGITS_ARC.decode(), cut=None)
    def test_json_validates_or_exits_3(self, file_dir, text, cut):
        _validate_file(file_dir / "arc.json", text if cut is None else text[:cut])

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(CSV_LINES, min_size=1, max_size=8))
    def test_csv_validates_or_exits_3(self, file_dir, lines):
        _validate_file(file_dir / "arc.csv", "\n".join(lines))
