"""Package hygiene: every name a module exports in __all__ exists, every
name a module imports is read, and every file parses as the oldest Python
the package declares."""

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
    """Names the module imports and never reads; a name in its __all__
    counts as read, and binding a name again does not."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read]


def test_every_imported_name_is_used():
    files = sorted(Path(graphlift.__file__).parent.glob("*.py"))
    files += sorted(Path(__file__).parent.glob("*.py"))
    unused = [u for f in files for u in _unused_imports(f)]
    assert not unused, f"imported but never read: {unused}"


def _names_used(tree: ast.AST, loads_only: bool = False) -> set[str]:
    """Identifiers a module refers to: names, attributes and imported names.
    With loads_only, only names read, so a module's own definitions and
    assignments do not count as uses."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and (not loads_only or isinstance(node.ctx, ast.Load)):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and not loads_only:
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not loads_only:
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_user_outside_the_tests():
    """An __all__ name is read inside its own module, by another module of
    the package, or by the benchmark; an API only tests call is dead code."""
    package = Path(graphlift.__file__).parent
    bench = Path(__file__).parent.parent / "bench"
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(package.glob("*.py"))}
    bench_used = set()
    for p in sorted(bench.glob("*.py")):
        bench_used |= _names_used(ast.parse(p.read_text(), filename=str(p)))
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"graphlift.{name}")
        others = set(bench_used)
        for other, tree in trees.items():
            if other != name:
                others |= _names_used(tree)
        own = _names_used(trees[name], loads_only=True)
        unused += [f"{name}.{n}" for n in getattr(module, "__all__", ())
                   if n not in others and n not in own]
    assert not unused, f"public names no module or benchmark uses: {unused}"


def test_every_python_file_parses_as_python_3_10():
    root = Path(__file__).parent.parent
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text()
    for path in sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
