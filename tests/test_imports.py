"""No module of the package imports a name it never uses, and no private
module-level helper goes unreferenced (stdlib ast, no linter)."""

import ast
from pathlib import Path

import pytest

import sparsegap

MODULES = sorted(p for p in Path(sparsegap.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom typing import Optional\nos.sep\n") == [
        "Optional (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_privates(sources: list[str]) -> list[str]:
    """Module-level _private functions, classes and constants that no source refers to."""
    defined, referenced = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - referenced)


def test_finds_an_unreferenced_private():
    helpers = "def _used():\n    return _LIMIT\ndef _orphan():\n    pass\n_LIMIT = 1\n_UNUSED = 2\n"
    caller = "from helpers import _used\n"
    assert unreferenced_privates([helpers, caller]) == ["_UNUSED", "_orphan"]


def test_no_unreferenced_privates():
    sources = [p.read_text() for p in Path(sparsegap.__file__).parent.glob("*.py")]
    assert unreferenced_privates(sources) == []
