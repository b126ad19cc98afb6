"""Every function and class defined in the package is reached: named
somewhere in the package outside its own body, or exported from
``whitney/__init__``.  Code that only tests call belongs in the tests.

Read with the stdlib ``ast`` module only.  A name counts wherever it is
read as a name or an attribute, so a method is reached by any ``.name``
in the package; that over-approximates, which errs towards passing.
Dunders and the identity declarations (registered by their
``@_identity(...)`` decorator, never named) are skipped.
"""

import ast
from collections import Counter
from pathlib import Path

import whitney

PACKAGE = Path(whitney.__file__).parent

# methods of exported classes that are part of their interface on purpose;
# adding one here is a reviewed edit
KEPT = {
    "grammar.XYPoly.zero": "the additive identity of an exported type",
    "series.Egf.zero": "the additive identity of an exported type",
    "series.Egf.reverse_lagrange": "the second reversion route, which checks Egf.reverse",
}


def _named(node):
    """Counter of every name and attribute read inside `node`."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _definitions(node, prefix):
    """(qualified name, node) of every function and class inside `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _declared(fn):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_identity"
               for d in fn.decorator_list)


def unreached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    init = trees["__init__"]
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported |= {node.name for node in init.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module + "."):
            name = node.name
            if name.startswith("__") and name.endswith("__") or _declared(node):
                continue
            if name in exported or qualname in KEPT:
                continue
            if named[name] - _named(node)[name] <= 0:
                out.append(qualname)
    return out


def test_every_definition_is_reached():
    missing = unreached()
    assert not missing, "defined in the package, reached only from outside it: " + ", ".join(missing)
