"""Package surface and source hygiene: exported names, unused imports."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import skylink

SOURCES = sorted(
    p for p in Path(skylink.__file__).resolve().parent.glob("*.py")
    if p.name != "__init__.py"
)


def test_all_exports_no_modules():
    assert len(set(skylink.__all__)) == len(skylink.__all__)
    for name in skylink.__all__:
        assert not isinstance(getattr(skylink, name), types.ModuleType), name
    for module in ("channel_models", "datagen", "errors", "fading", "rbf_net"):
        assert module not in skylink.__all__


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (except from __future__) -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"
