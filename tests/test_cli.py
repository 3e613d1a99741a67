"""End-to-end tests for the command-line interface.

Each test drives ``arcsupport.cli.run`` with an argv list and inspects the
exit code, captured stdout/stderr, and any files written.  Expected numbers
are recomputed inline rather than taken from library helpers.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from arcsupport.cli import run

PENTAGON = [[0, 0], [1, 1], [2, -1], [3, 1], [4, 0]]
SQUARE_CLOSED = [[0, 1], [0, 0], [1, 0], [1, 1]]
BOWTIE_OPEN = [[0, 0], [2, 2], [2, 0], [0, 2]]


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
        # Grid 0, 60, 120 plus the implicit 0 and the two thresholds.
        assert payload["checks"] == 2 * 6

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

    def test_bad_nodes_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fuzz", "--nodes", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(["fuzz", "--nodes", "9-4"])
        assert exc.value.code == 2


# --------------------------------------------------- flags not honoured

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


# ----------------------------------------------------------- error handling

class TestErrorHandling:
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

    def test_overflowing_eps_names_the_flag(self, pentagon_file, capsys):
        # the pentagon's diagonal is fine; only eps_len times it overflows
        assert run(["validate", pentagon_file, "--eps", "1e308"]) == 3
        err = capsys.readouterr().err
        assert "--eps" in err and "float range" in err
        assert "bounding box exceeds" not in err

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
        path.write_text("0,0\n1,1\nbroken\n")
        assert run(["validate", str(path)]) == 3
        assert "line 3" in capsys.readouterr().err

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


# ------------------------------------------------------ tolerance overrides

class TestToleranceFlags:
    def test_absolute_eps(self, pentagon_file, capsys):
        assert run(["analyze", "--eps", "1e-9", pentagon_file]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1

    def test_eps_angle(self, pentagon_file, capsys):
        assert run(["solve", "--phi", "30", "--eps-angle", "1e-6",
                    pentagon_file]) == 0
        assert len(json.loads(capsys.readouterr().out)["pairs"]) == 2

    def test_both_overrides(self, pentagon_file, capsys):
        assert run(["oracle", "--phi", "0", "--eps", "1e-9",
                    "--eps-angle", "1e-7", pentagon_file]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize("flag, value", [
        ("--eps-angle", "0"), ("--eps-angle", "-1"), ("--eps-angle", "inf"),
        ("--eps", "-1"), ("--eps", "nan"), ("--eps", "0"), ("--eps", "x")])
    def test_bad_value_is_usage_error(self, pentagon_file, capsys, flag,
                                      value):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", f"{flag}={value}", pentagon_file])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"arcsupport analyze: error: argument {flag}: "
            f"must be a finite number > 0, got {value!r}")


# ------------------------------------------------------- arbitrary flags

@pytest.fixture(scope="module")
def pentagon_path(tmp_path_factory):
    return _write_arc(tmp_path_factory.mktemp("arc"), PENTAGON)


TOLERANCES = st.sampled_from(
    ["1e-9", "1e-3", "0.5", "0", "-1", "nan", "inf", "-inf", "1e308"])
ANGLES = st.sampled_from(
    ["0", "30", "90", "179.9", "180", "-1", "nan", "inf", "1e308"])
# steps at or above 10 keep a run short; steps below 0.01 are rejected
GRID_STEPS = st.sampled_from(
    ["10", "45", "1e308", "0.001", "1e-12", "0", "-5", "nan", "inf"])


class TestArbitraryFlags:
    @settings(max_examples=50, deadline=None)
    @given(command=st.sampled_from(
               ["validate", "analyze", "solve", "oracle", "render", "fuzz"]),
           eps=st.none() | TOLERANCES, eps_angle=st.none() | TOLERANCES,
           phi=ANGLES, step=GRID_STEPS)
    def test_no_traceback(self, pentagon_path, tmp_path_factory, command,
                          eps, eps_angle, phi, step):
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
        if eps is not None and command != "fuzz":
            argv.append(f"--eps={eps}")
        if eps_angle is not None and command != "fuzz":
            argv.append(f"--eps-angle={eps_angle}")
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
