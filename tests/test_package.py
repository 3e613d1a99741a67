"""Tests for the package's public names and the README's library examples."""

from __future__ import annotations

import re
from pathlib import Path

import arcsupport

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from arcsupport import *", namespace)
    assert set(arcsupport.__all__) <= set(namespace)


def test_every_public_name_resolves():
    assert len(set(arcsupport.__all__)) == len(arcsupport.__all__)
    for name in arcsupport.__all__:
        assert hasattr(arcsupport, name), name


def test_readme_python_blocks_run(capsys):
    # one namespace, in README order: later blocks use earlier names
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out
