"""Every public function, class and method has a caller in the package.

Each module under ``src/milnorcalc/`` except ``__init__.py`` is parsed
with ``ast``.  A public top-level function or class (no leading
underscore) must be loaded by name, imported or read as an attribute
somewhere in those modules; a public method (no leading underscore, so
no dunder either) must be read as an attribute, ``x.name``.  A local
variable of the same name is no caller: assigning a name is not a use,
and a method is not reached through a bare name.  Exports from
``__init__.py`` and uses in the tests do not count as callers.

``linalg.py`` imports nothing from the package, and the one
``ComputationCancelled`` is exported by it, by ``groebner`` and by
``milnorcalc``.
"""

import ast
import importlib
from pathlib import Path

import milnorcalc

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "milnorcalc"

# perfbench/tracer.py wraps both by name, so they stay until the
# [benchmark] change of ROADMAP item 1 retires the metrics they feed.
ALLOWED_UNUSED = {"saturate", "unit_inverse"}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _attributes(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _loads_and_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)


def _has_caller(name, attributes, loads):
    if "." in name:
        return name.split(".")[-1] in attributes
    return name in attributes | loads


def test_every_public_name_has_a_caller():
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    attributes = {name for tree in modules.values() for name in _attributes(tree)}
    loads = {name for tree in modules.values() for name in _loads_and_imports(tree)}
    defined = {name for tree in modules.values() for name in _public_definitions(tree)}
    unused = sorted(
        f"{module}: {name}"
        for module, tree in modules.items()
        for name in _public_definitions(tree)
        if name not in ALLOWED_UNUSED and not _has_caller(name, attributes, loads)
    )
    assert unused == []
    # An allowlisted name that is gone, or has gained a caller, leaves the list.
    assert ALLOWED_UNUSED <= defined
    assert not any(_has_caller(name, attributes, loads) for name in ALLOWED_UNUSED)


def test_linalg_imports_nothing_from_the_package():
    # Exact linear algebra stands alone: a checker of its results can use
    # it without the Groebner engine.
    modules = []
    for node in ast.walk(ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert "math" in modules
    assert [name for name in modules if name.startswith((".", "milnorcalc"))] == []


def test_one_cancellation_error_under_each_name():
    linalg = importlib.import_module("milnorcalc.linalg")
    groebner = importlib.import_module("milnorcalc.groebner")
    assert milnorcalc.ComputationCancelled is groebner.ComputationCancelled is linalg.ComputationCancelled
