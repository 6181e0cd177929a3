"""Every exported name resolves: a stale export fails here, not at import."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ratpath

_MODULES = sorted(m.name for m in pkgutil.iter_modules(ratpath.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ratpath.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"ratpath.{name}.__all__ names missing {attr!r}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(ratpath.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ratpath.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"ratpath.{node.module} does not export {alias.name!r}"
