from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "microbuild"


def test_declared_scripts_import():
    meta = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def public_names(tree: ast.Module) -> list[str]:
    """The public top-level functions, classes and UPPER_CASE constants of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and n.id.isupper()]
    return [name for name in names if not name.startswith("_")]


def test_every_public_package_name_has_a_caller_outside_tests():
    """Each public top-level function, class or UPPER_CASE constant of the
    package is read by name somewhere in the package, the benchmark or the
    tools. An import alias, an ``__all__`` string or the assignment itself
    is not a use; a helper only tests call belongs under ``tests/``."""
    package_files = sorted(PACKAGE.rglob("*.py"))
    defined = {}
    for path in package_files:
        for name in public_names(ast.parse(path.read_text(encoding="utf-8"))):
            defined[name] = path.relative_to(ROOT)
    used = set()
    for path in [*package_files, *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    unused = sorted(f"{path}: {name}" for name, path in defined.items() if name not in used)
    assert not unused, unused
