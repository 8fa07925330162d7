"""Package hygiene: every name a module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import graphlift

MODULES = sorted(m.name for m in pkgutil.iter_modules(graphlift.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"graphlift.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"graphlift.{name}.__all__ names missing attributes: {missing}"
