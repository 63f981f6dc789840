"""No module of the package, the tests or the benchmark imports a name it never uses, no private
module-level helper goes unreferenced, no dataclass field goes unread, no
public function or class exists only for its own unit tests, no
exception class exists that nothing catches (stdlib ast, no linter), and
the package keeps within its line budget."""

import ast
import builtins
from pathlib import Path

import pytest

import sparsegap

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in Path(sparsegap.__file__).parent.glob("*.py") if p.name != "__init__.py")
LINE_CEILING = 1556  # lines of src/sparsegap, __init__.py included: a change that adds lines pays them back
LINE_WIDTH = 120


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


@pytest.mark.parametrize("path", MODULES + sorted(p for d in ("tests", "bench") for p in (REPO / d).glob("*.py")),
                         ids=lambda p: p.name if p in MODULES else str(p.relative_to(REPO)))
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

    Only a class that reads its own fields with getattr(self, ...) is exempt:
    a field enumerated by fields() or asdict() still needs a reader that names it.
    """
    fields_of, exempt, read = {}, set(), set()
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef) or not any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list):
                continue
            fields_of[node.name] = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            if any(getattr(call.args[0], "id", None) == "self"
                   for call in _calls(node, {"getattr"}) if call.args):
                exempt.add(node.name)
    for source in package_sources + reader_sources:
        read |= {node.attr for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for cls, names in fields_of.items() if cls not in exempt
                  for name in names if name not in read)


def test_finds_an_unread_field():
    package = (
        "from dataclasses import dataclass, fields\n"
        "@dataclass(frozen=True)\nclass Point:\n    x: float\n    y: float\n    label: str = ''\n"
        "@dataclass\nclass Row:\n    a: int\n    def to_dict(self):\n        return asdict(self)\n"
        "@dataclass\nclass Table:\n    b: int\nCOLUMNS = [f.name for f in fields(Table)]\n"
        "@dataclass\nclass Report:\n    c: int\n    def to_json(self):\n        return getattr(self, 'c')\n"
        "def norm(p):\n    return p.x\n"
    )
    # fields() and asdict() exempt nothing; only getattr(self, ...) inside the class does
    assert unread_dataclass_fields([package], ["def test(p):\n    p.label = p.y\n"]) == [
        "Point.label", "Row.a", "Table.b"]


def test_no_unread_dataclass_fields():
    package = [p.read_text() for p in Path(sparsegap.__file__).parent.glob("*.py")]
    readers = [p.read_text() for d in ("tests", "bench") for p in (REPO / d).glob("*.py")]
    assert unread_dataclass_fields(package, readers) == []


def _names_in(node) -> set:
    """Names ``node`` refers to: loads and attributes.  An import on its own is no use, and neither is ``f.x = ...``:
    the name under an attribute that is assigned does not count, nor does the assigned attribute."""
    stored = {id(sub.value) for sub in ast.walk(node)
              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)}
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and id(sub) not in stored:
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.attr)
    return names


def unexercised_publics(package_sources: list[str], user_sources: list[str]) -> list[str]:
    """Public module-level functions and classes of the package that nothing but their own definition refers to.

    A package module's references include its string constants, which is how
    a ``(module, name)`` table names a function; ``user_sources`` (the
    acceptance tests, the benchmark) count by name and attribute, as ``_names_in`` reads them.
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
        "def imported():\n    return 4\n"
        "def flagged():\n    return 5\n"
        "flagged.__test__ = False\n"
    )
    users = ["from package import run\nrun()\n", "import package\npackage.Shape()\n",
             "from package import imported\n"]
    # an import on its own and an assigned attribute are no use
    assert unexercised_publics([package], users) == ["Unused", "flagged", "imported", "orphan"]


def test_no_public_exists_only_for_its_own_tests():
    package = [p.read_text() for p in Path(sparsegap.__file__).parent.glob("*.py")]
    users = [(REPO / "tests" / "test_acceptance.py").read_text()]
    users += [p.read_text() for p in (REPO / "bench").glob("*.py")]
    assert unexercised_publics(package, users) == []


def _caught(handler_type) -> set:
    """Names an ``except`` clause's type catches: a name, an attribute or a tuple of them."""
    elements = handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    return {getattr(e, "id", getattr(e, "attr", None)) for e in elements}


def _is_exception_class(node) -> bool:
    """Whether a class statement derives from a builtin exception or from a class named ``...Error``."""
    bases = {getattr(base, "id", getattr(base, "attr", "")) for base in node.bases}
    return any(name.endswith("Error") or isinstance(getattr(builtins, name, None), type)
               and issubclass(getattr(builtins, name), BaseException) for name in bases)


def uncaught_exceptions(package_sources: list[str], user_sources: list[str]) -> list[str]:
    """Public exception classes of the package that no ``except`` clause of the package catches by name and no
    user source (the acceptance tests, the benchmark) names.  Raise sites and docstrings do not count: a class that
    only its own raisers and unit tests mention is a ``ValueError`` or ``RuntimeError`` under another name.
    """
    exceptions, caught = set(), set()
    for source in package_sources:
        tree = ast.parse(source)
        exceptions |= {node.name for node in tree.body if isinstance(node, ast.ClassDef)
                       and not node.name.startswith("_") and _is_exception_class(node)}
        caught |= {name for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type
                   for name in _caught(node.type)}
    for source in user_sources:
        caught |= _names_in(ast.parse(source))
    return sorted(exceptions - caught)


def test_finds_an_uncaught_exception():
    package = (
        "import lib\n"
        "class CaughtError(ValueError):\n    pass\n"
        "class AttributeCaughtError(RuntimeError):\n    pass\n"
        "class AcceptanceError(ValueError):\n    pass\n"
        "class RaisedOnlyError(ValueError):\n    \"\"\"Named in its docstring: RaisedOnlyError.\"\"\"\n"
        "class SubError(CaughtError):\n    pass\n"
        "class Plain:\n    pass\n"
        "def run(x):\n"
        "    if x:\n        raise RaisedOnlyError('RaisedOnlyError') if x > 1 else SubError()\n"
        "    try:\n        return lib.f()\n"
        "    except (CaughtError, lib.AttributeCaughtError):\n        return Plain()\n"
    )
    users = ["from package import AcceptanceError, run\nwith pytest.raises(AcceptanceError):\n    run(2)\n",
             "from package import RaisedOnlyError\n"]  # imported, never named: not caught
    assert uncaught_exceptions([package], users) == ["RaisedOnlyError", "SubError"]
    assert uncaught_exceptions([package], []) == ["AcceptanceError", "RaisedOnlyError", "SubError"]


def test_every_exception_class_is_caught():
    package = [p.read_text() for p in Path(sparsegap.__file__).parent.glob("*.py")]
    users = [(REPO / "tests" / "test_acceptance.py").read_text()]
    users += [p.read_text() for p in (REPO / "bench").glob("*.py")]
    assert uncaught_exceptions(package, users) == []


def test_package_keeps_within_its_line_budget():
    sources = {p.name: p.read_text().splitlines() for p in sorted(Path(sparsegap.__file__).parent.glob("*.py"))}
    assert sum(map(len, sources.values())) <= LINE_CEILING
    assert [f"{name}:{number}" for name, lines in sources.items() for number, line in enumerate(lines, 1)
            if len(line) > LINE_WIDTH] == []
