"""Package hygiene: every name a module exports in __all__ exists, and
every name a module imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import graphlift

MODULES = sorted(m.name for m in pkgutil.iter_modules(graphlift.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"graphlift.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"graphlift.{name}.__all__ names missing attributes: {missing}"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_every_imported_name_is_used():
    files = sorted(Path(graphlift.__file__).parent.glob("*.py"))
    files += sorted(Path(__file__).parent.glob("*.py"))
    unused = [u for f in files for u in _unused_imports(f)]
    assert not unused, f"imported but never used: {unused}"
