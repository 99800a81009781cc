"""Every public function, class and method has a caller in the package.

Each module under ``src/milnorcalc/`` except ``__init__.py`` is parsed
with ``ast``.  A public top-level function or class, or a public method
(no leading underscore, so no dunder either), must be referred to by a
name, an attribute or an import somewhere in those modules.  Exports
from ``__init__.py`` and uses in the tests do not count as callers.
"""

import ast
from pathlib import Path

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


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)


def test_every_public_name_has_a_caller():
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    referenced = {name for tree in modules.values() for name in _referenced_names(tree)}
    defined = {name for tree in modules.values() for name in _public_definitions(tree)}
    unused = sorted(
        f"{module}: {name}"
        for module, tree in modules.items()
        for name in _public_definitions(tree)
        if name.split(".")[-1] not in referenced | ALLOWED_UNUSED
    )
    assert unused == []
    # An allowlisted name that is gone, or has gained a caller, leaves the list.
    assert ALLOWED_UNUSED <= defined
    assert not ALLOWED_UNUSED & referenced
