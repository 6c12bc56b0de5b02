"""The public surface: every exported name exists, its annotations resolve,
and each name has one import path, the module that defines it."""

from __future__ import annotations

import ast
import importlib
import re
import typing
from pathlib import Path

import pytest

import visco1d

ROOT = Path(__file__).resolve().parents[1]
SIBLINGS = ("grid", "operators", "stepper", "diagnostics", "harness", "cli")
MODULES = ("visco1d", *(f"visco1d.{m}" for m in SIBLINGS))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_with_type_hints(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        obj = getattr(module, attr)  # AttributeError names a stale export
        if callable(obj):
            typing.get_type_hints(obj)  # NameError names an unresolvable annotation


def _source(module_name: str) -> ast.Module:
    path = Path(importlib.import_module(module_name).__file__)
    return ast.parse(path.read_text(encoding="utf-8"))


def _taken_from_siblings(name: str) -> dict[str, set[str]]:
    """The names module ``name`` takes from each sibling, by ``from .m import x`` or ``m.x``."""
    tree = _source(f"visco1d.{name}")
    modules: set[str] = set()
    taken: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.name for alias in node.names)
            else:
                taken.setdefault(node.module, set()).update(a.name for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            taken.setdefault(node.value.id, set()).add(node.attr)
    return taken


def test_package_root_exports_only_the_version():
    assert visco1d.__all__ == ["__version__"]
    tree = _source("visco1d")
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_every_export_has_a_user():
    """Another package module imports it, perfbench uses it, the README names
    it in code, or pyproject.toml makes it an entry point."""
    users: dict[str, set[str]] = {m: set() for m in SIBLINGS}
    for name in SIBLINGS:
        for sibling, names in _taken_from_siblings(name).items():
            users[sibling] |= names
    perfbench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        perfbench |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    readme = set()
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"```.*?```|`[^`\n]+`", text, re.S):
        readme |= set(re.findall(r"\w+", span))
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    entry_points = set(re.findall(r'"visco1d\.(\w+):(\w+)"', scripts))
    unused = [
        f"{name}.{attr}"
        for name in SIBLINGS
        for attr in importlib.import_module(f"visco1d.{name}").__all__
        if attr not in users[name] | perfbench | readme and (name, attr) not in entry_points
    ]
    assert unused == []


def test_every_name_taken_from_a_sibling_is_exported():
    missing = [
        f"{sibling}.{attr} (used by {name})"
        for name in SIBLINGS
        for sibling, names in _taken_from_siblings(name).items()
        for attr in sorted(names - set(importlib.import_module(f"visco1d.{sibling}").__all__))
    ]
    assert missing == []
