"""The public surface: every exported name exists and its annotations resolve."""

from __future__ import annotations

import importlib
import typing

import pytest

MODULES = ("visco1d", "visco1d.grid", "visco1d.operators", "visco1d.stepper",
           "visco1d.diagnostics", "visco1d.harness", "visco1d.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_with_type_hints(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        obj = getattr(module, attr)  # AttributeError names a stale export
        if callable(obj):
            typing.get_type_hints(obj)  # NameError names an unresolvable annotation
