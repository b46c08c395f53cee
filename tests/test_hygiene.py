"""Every module-level name in the package is read somewhere in the package
or exported: a function, class or constant that nothing in ``src/`` uses and
``__all__`` does not list is dead code or a test-only view that belongs in
``tests/oracles.py``."""

import ast
from pathlib import Path

import quartet_attrib

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quartet_attrib"


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_module_level_name_is_read_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_read, trees.values()))
    unread = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _defined(tree) - read - set(quartet_attrib.__all__)
    )
    assert not unread, unread
