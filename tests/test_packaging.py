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


def test_every_public_package_name_has_a_caller_outside_tests():
    """Each public top-level function or class of the package is read by name
    somewhere in the package, the benchmark or the tools. An import alias or
    an ``__all__`` string is not a use; a helper only tests call belongs
    under ``tests/``."""
    package_files = sorted(PACKAGE.rglob("*.py"))
    defined = {}
    for path in package_files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.relative_to(ROOT)
    used = set()
    for path in [*package_files, *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{path}: {name}" for name, path in defined.items() if name not in used)
    assert not unused, unused
