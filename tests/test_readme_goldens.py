"""The README's example commands, pinned byte for byte.

Each case runs ``python -m arcsupport.cli`` in a child process, in an empty
directory that holds the arcs of ``tests/data/readme/inputs``, and compares
its exit code, stdout, stderr and every file it wrote with
``tests/data/readme/<case>/``.  After an intended output change, regenerate
the goldens with

    PYTHONPATH=src python tests/test_readme_goldens.py

and say in the change which bytes moved and why.
"""

import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from helpers import cli_child

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DATA = ROOT / "tests" / "data" / "readme"
INPUTS = DATA / "inputs"

CASES = {
    "validate": ["validate", "pent.json"],
    "analyze": ["analyze", "pent.json"],
    "analyze_csv_input": ["analyze", "pent.csv"],
    "analyze_format_csv": ["analyze", "pent.json", "--format", "csv"],
    "analyze_json_file": ["analyze", "pent.json", "--json", "report.json"],
    "solve": ["solve", "pent.json", "--phi", "30"],
    "solve_format_csv": ["solve", "pent.json", "--phi", "30",
                         "--format", "csv"],
    "solve_json_file": ["solve", "pent.json", "--phi", "30",
                        "--json", "solution.json"],
    "solve_svg": ["solve", "pent.json", "--phi", "30", "--svg", "out"],
    "solve_closed_svg": ["solve", "closed.json", "--phi", "0",
                         "--svg", "closed"],
    "oracle": ["oracle", "pent.json", "--phi", "30"],
    "render_schematic": ["render", "pent.json", "--what", "schematic",
                         "--svg", "pent"],
    "render_scene": ["render", "pent.json", "--what", "scene",
                     "--svg", "pent"],
    "fuzz": ["fuzz", "--count", "100", "--seed", "1", "--nodes", "5-20",
             "--phi-grid", "15"],
    "analyze_collinear": ["analyze", "collinear.json"],
}


def _outcome(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of one CLI process run
    in ``workdir``, keyed by golden file name."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    child = cli_child(*argv, cwd=workdir)
    stdout, stderr = child.communicate()
    outcome = {"exit": f"{child.returncode}\n".encode(), "stdout": stdout,
               "stderr": stderr}
    for path in sorted(workdir.iterdir()):
        if not (INPUTS / path.name).exists():
            outcome[f"files/{path.name}"] = path.read_bytes()
    return outcome


def _golden(case: str) -> dict[str, bytes]:
    root = DATA / case
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, tmp_path):
    assert _outcome(CASES[case], tmp_path) == _golden(case)


def test_every_readme_command_is_a_case():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, flags=re.M | re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.splitlines()
                if line.startswith("arcsupport ")]
    assert commands
    assert [argv for argv in commands if argv not in CASES.values()] == []


def _regenerate() -> None:
    for case, argv in CASES.items():
        shutil.rmtree(DATA / case, ignore_errors=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in _outcome(argv, Path(tmp)).items():
                target = DATA / case / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
        print(f"wrote {DATA / case}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
