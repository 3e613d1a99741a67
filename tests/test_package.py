"""Tests for the package's public names."""

from __future__ import annotations

import arcsupport


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from arcsupport import *", namespace)
    assert set(arcsupport.__all__) <= set(namespace)


def test_every_public_name_resolves():
    assert len(set(arcsupport.__all__)) == len(arcsupport.__all__)
    for name in arcsupport.__all__:
        assert hasattr(arcsupport, name), name
