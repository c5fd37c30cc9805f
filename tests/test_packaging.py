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


def config_fields() -> dict[str, list[str]]:
    """The field names of each ``*Config`` dataclass of the package, by class name."""
    fields = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                fields[node.name] = [
                    s.target.id for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                ]
    return fields


def called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def config_settings(tree: ast.Module, classes: set[str]) -> set[tuple[str, str]]:
    """(class, field) pairs a module sets by name: a keyword in a call to the
    class or in a ``dataclasses.replace`` of a call to it, or, for such a
    call with ``**`` keywords, a string in the enclosing function's decorators
    (a ``pytest.mark.parametrize`` of field names)."""
    found = set()
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    for scope in scopes:
        strings = {
            n.value
            for d in getattr(scope, "decorator_list", [])
            for n in ast.walk(d)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }
        for call in (n for n in ast.walk(scope) if isinstance(n, ast.Call)):
            target = call
            if called_name(call) == "replace" and call.args and isinstance(call.args[0], ast.Call):
                target = call.args[0]
            cls = called_name(target)
            if cls not in classes:
                continue
            for kw in [*target.keywords, *(call.keywords if call is not target else [])]:
                names = {kw.arg} if kw.arg is not None else strings
                found |= {(cls, name) for name in names}
    return found


def test_every_config_field_is_set_by_name_outside_its_definition():
    """Each field of a ``*Config`` dataclass is set by name somewhere in the
    package, the benchmark, the tools or the tests. A field only its default
    ever fills is a constant, not a setting."""
    fields = config_fields()
    files = [
        *sorted(PACKAGE.rglob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        *sorted((ROOT / "tools").glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
    ]
    set_by_name = set()
    for path in files:
        set_by_name |= config_settings(ast.parse(path.read_text(encoding="utf-8")), set(fields))
    unset = sorted(f"{cls}.{name}" for cls, names in fields.items() for name in names if (cls, name) not in set_by_name)
    assert not unset, "never set by name: " + ", ".join(unset)
