"""Every name in an `__all__` exists, so `import *` cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import namlite

MODULES = ["namlite"] + [f"namlite.{m.name}" for m in pkgutil.iter_modules(namlite.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
