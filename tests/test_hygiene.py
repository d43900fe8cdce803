"""Source hygiene: every name a package module imports is used in it, and
no package module imports another one's private (underscore) names."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "drinfeld_forge"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom .scalars import ONE, ZERO\n"
                          "print(ONE)\n") == ["line 1: os", "line 2: ZERO"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names imported from a module of the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("drinfeld_forge")):
            out += [f"line {node.lineno}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_")]
    return out


def test_checker_sees_a_private_import():
    source = ("from __future__ import annotations\n"
              "from .reps import Representation, _rows\n"
              "def f():\n"
              "    from drinfeld_forge.cli import _emit\n")
    assert private_imports(source) == ["line 2: _rows", "line 4: _emit"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_no_private_name_crosses_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
