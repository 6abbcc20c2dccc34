"""Run the usage examples embedded in the library and oracle docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import bncells

MODULES = sorted(m.name for m in pkgutil.iter_modules(bncells.__path__, "bncells."))


def test_modules_discovered():
    assert "bncells.group" in MODULES
    assert len(MODULES) >= 10


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0


def test_oracle_doctests():
    result = doctest.testmod(importlib.import_module("tests.oracles"))
    assert result.failed == 0
    assert result.attempted > 0
