"""Source hygiene: every private module-level helper of the package is used.

A private name (leading underscore) is invisible outside the package, so
one that no module of the package references is dead code: a helper left
behind when its last caller went away."""

import ast
from pathlib import Path

import qbranch

SOURCES = sorted(Path(qbranch.__file__).parent.glob("*.py"))


def _private_definitions(tree: ast.Module) -> set[str]:
    """Private module-level functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads, imports or reaches as an attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_sources_found():
    assert len(SOURCES) >= 9


def test_no_unreferenced_private_helpers():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    referenced = set().union(*(_references(t) for t in trees.values()))
    dead = sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) - referenced)
    assert dead == []
