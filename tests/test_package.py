"""Tests for the package's public names and the README's library examples."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import arcsupport

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from arcsupport import *", namespace)
    assert set(arcsupport.__all__) <= set(namespace)


def test_every_public_name_resolves():
    assert len(set(arcsupport.__all__)) == len(arcsupport.__all__)
    for name in arcsupport.__all__:
        assert hasattr(arcsupport, name), name


def test_every_public_function_has_a_user_outside_the_tests():
    # a function only tests call belongs in tests/helpers.py, not in the
    # package's surface; its own module and __init__ do not count
    package = ROOT / "src" / "arcsupport"
    texts = {path: path.read_text()
             for path in [*package.glob("*.py"), *(ROOT / "bench").glob("*.py"),
                          README]
             if path.name != "__init__.py"}
    unused = []
    for name in arcsupport.__all__:
        obj = getattr(arcsupport, name)
        if not inspect.isfunction(obj):
            continue
        home = Path(inspect.getfile(obj))
        pattern = re.compile(rf"\b{name}\b")
        if not any(pattern.search(text) for path, text in texts.items()
                   if path != home):
            unused.append(name)
    assert unused == []


def test_library_keeps_no_module_level_state():
    # a derived value lives on the frozen object it derives from, as a
    # cached_property, or in the one call that uses it: a module-level
    # slot or cache would share it between unrelated objects and runs
    offenders = []
    for path in sorted((ROOT / "src" / "arcsupport").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                offenders.append(f"{path.name}:{node.lineno} global")
            for deco in getattr(node, "decorator_list", ()):
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", ""))
                if name in ("lru_cache", "cache"):
                    offenders.append(f"{path.name}:{deco.lineno} {name}")
    assert offenders == []


def test_no_test_module_imports_another():
    # shared strategies and checks live in tests/helpers.py, so that each
    # test module can be read, run and changed on its own
    pattern = re.compile(r"^\s*(?:from|import)\s+(?:tests\.)?test_\w*", re.M)
    offenders = [f"{path.name}: {found}"
                 for path in sorted((ROOT / "tests").glob("test_*.py"))
                 for found in pattern.findall(path.read_text())]
    assert offenders == []


def test_readme_python_blocks_run(capsys):
    # one namespace, in README order: later blocks use earlier names
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out
