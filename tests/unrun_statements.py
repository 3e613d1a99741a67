"""List the statements of src/arcsupport that the tier-1 suite never runs.

    python tests/unrun_statements.py

Runs the tier-1 suite (``python -m pytest -q --continue-on-collection-errors``)
in a child process whose PYTHONPATH starts with a generated
``sitecustomize``.  That module starts ``sys.settrace`` before anything else
is imported, ``arcsupport`` included, in the suite's process and in every
child process that a test starts with the PYTHONPATH forwarded (the
``python -m arcsupport.cli`` runs of the README goldens and of the CLI's
closed-stdout and interrupt tests); each traced process writes the
``arcsupport`` lines it ran to a scratch directory when it exits.

A statement is a line that some code object of a module lists in
``co_lines()``, less the lines of docstrings.  The script prints
``path:line: source`` for each statement that no process ran, and exits 1
if it printed anything.  If the
suite fails, it prints the suite's output instead and exits with its code.
It uses the standard library only, and pytest does not collect it (its
name does not start with ``test_``).  The traced suite takes two to four
times as long as an untraced one.
"""

from __future__ import annotations

import _thread
import ast
import atexit
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arcsupport"

SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {tests!r})
import unrun_statements
del sys.path[0]
unrun_statements.trace_this_process({out!r})
"""


def trace_this_process(out: str) -> None:
    """Record every line this process runs in ``arcsupport`` (and in any
    thread it starts) and write them to ``out/<pid>.json`` at exit."""
    package = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    tracers: dict = {}          # co_filename -> its line tracer, or None

    def line_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def scope(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = os.path.realpath(filename)
            tracers[filename] = (
                line_tracer(hits.setdefault(path, set()))
                if path.startswith(package) else None)
        return tracers[filename]

    def write() -> None:
        sys.settrace(None)
        with open(os.path.join(out, f"{os.getpid()}.json"), "w") as fh:
            json.dump({path: sorted(lines) for path, lines in hits.items()},
                      fh)

    def interrupt(signum, frame):
        # a KeyboardInterrupt raised inside a trace function switches
        # tracing off for good, so have another thread send the signal
        # again, to be taken outside them
        if frame is not None and frame.f_code.co_filename == __file__:
            _thread.start_new_thread(signal.pthread_kill,
                                     (threading.main_thread().ident, signum))
            return
        raise KeyboardInterrupt

    atexit.register(write)
    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        signal.signal(signal.SIGINT, interrupt)
    threading.settrace(scope)
    sys.settrace(scope)


def statements(path: Path) -> set[int]:
    """The lines that some code object of one module lists in
    ``co_lines()``, less its docstring lines."""
    source = path.read_text()
    found: set[int] = set()

    def walk(code) -> None:
        found.update(line for _, _, line in code.co_lines() if line)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const)

    walk(compile(source, str(path), "exec"))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            for line in range(body[0].lineno, body[0].end_lineno + 1):
                found.discard(line)
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "lines")
        os.mkdir(out)
        site = os.path.join(work, "site")
        os.mkdir(site)
        with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE.format(tests=str(ROOT / "tests"), out=out))
        pythonpath = [site, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if suite.returncode != 0:
            sys.stdout.write(suite.stdout.decode(errors="replace"))
            return suite.returncode
        ran: dict[str, set[int]] = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as fh:
                for path, lines in json.load(fh).items():
                    ran.setdefault(path, set()).update(lines)

    printed = False
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        seen = ran.get(os.path.realpath(path), set())
        for line in sorted(statements(path) - seen):
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
            printed = True
    return 1 if printed else 0


if __name__ == "__main__":
    sys.exit(main())
