"""No module of the package imports a name it never uses, no private
module-level helper goes unreferenced, no dataclass field goes unread, and
no public function or class exists only for its own unit tests (stdlib
ast, no linter)."""

import ast
from pathlib import Path

import pytest

import sparsegap

REPO = Path(__file__).resolve().parents[1]
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


def _calls(tree, names):
    """The calls in ``tree`` to a function named in ``names``, however it was imported."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names]


def unread_dataclass_fields(package_sources: list[str], reader_sources: list[str]) -> list[str]:
    """Class.field for each dataclass field in the package that no source loads as an attribute.

    A class whose fields are enumerated by fields() or asdict(), or read
    with getattr(self, ...), is exempt.
    """
    fields_of, exempt, read = {}, set(), set()
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef) or not any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list):
                continue
            fields_of[node.name] = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            if any(getattr(call.args[0], "id", None) == "self"
                   for call in _calls(node, {"fields", "asdict", "getattr"}) if call.args):
                exempt.add(node.name)
    for source in package_sources + reader_sources:
        tree = ast.parse(source)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        exempt |= {call.args[0].id for call in _calls(tree, {"fields", "asdict"})
                   if call.args and isinstance(call.args[0], ast.Name)}
    return sorted(f"{cls}.{name}" for cls, names in fields_of.items() if cls not in exempt
                  for name in names if name not in read)


def test_finds_an_unread_field():
    package = (
        "from dataclasses import dataclass, fields\n"
        "@dataclass(frozen=True)\nclass Point:\n    x: float\n    y: float\n    label: str = ''\n"
        "@dataclass\nclass Row:\n    a: int\n    def to_dict(self):\n        return asdict(self)\n"
        "@dataclass\nclass Table:\n    b: int\nCOLUMNS = [f.name for f in fields(Table)]\n"
        "def norm(p):\n    return p.x\n"
    )
    assert unread_dataclass_fields([package], ["def test(p):\n    p.label = p.y\n"]) == ["Point.label"]


def test_no_unread_dataclass_fields():
    package = [p.read_text() for p in Path(sparsegap.__file__).parent.glob("*.py")]
    readers = [p.read_text() for d in ("tests", "bench") for p in (REPO / d).glob("*.py")]
    assert unread_dataclass_fields(package, readers) == []


def _names_in(node) -> set:
    """Names ``node`` refers to: loads, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.ImportFrom, ast.Import)):
            names |= {alias.name.split(".")[-1] for alias in sub.names}
    return names


def unexercised_publics(package_sources: list[str], user_sources: list[str]) -> list[str]:
    """Public module-level functions and classes of the package that nothing but their own definition refers to.

    A package module's references include its string constants, which is how
    a ``(module, name)`` table names a function; ``user_sources`` (the
    acceptance tests, the benchmark) count by name, attribute and import.
    """
    defined, referenced = set(), set()
    for source in package_sources:
        for node in ast.parse(source).body:
            own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            defined |= {name for name in own if not name.startswith("_")}
            strings = {sub.value for sub in ast.walk(node)
                       if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
            referenced |= (_names_in(node) | strings) - own
    for source in user_sources:
        referenced |= _names_in(ast.parse(source))
    return sorted(defined - referenced)


def test_finds_an_unexercised_public():
    package = (
        "def run():\n    return helper() + _private()\n"
        "def helper():\n    return 1\n"
        "def _private():\n    return 2\n"
        "def tabled():\n    return 3\n"
        "TABLE = {'t': (None, 'tabled')}\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n"
        "class Shape:\n    pass\n"
        "class Unused:\n    def run(self):\n        return Unused()\n"
    )
    users = ["from package import run\n", "import package\npackage.Shape()\n"]
    assert unexercised_publics([package], users) == ["Unused", "orphan"]


def test_no_public_exists_only_for_its_own_tests():
    package = [p.read_text() for p in Path(sparsegap.__file__).parent.glob("*.py")]
    users = [(REPO / "tests" / "test_acceptance.py").read_text()]
    users += [p.read_text() for p in (REPO / "bench").glob("*.py")]
    assert unexercised_publics(package, users) == []
