"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import qhistories

MODULES = [m.name for m in pkgutil.walk_packages(qhistories.__path__, "qhistories.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
