"""Rules on the library source itself, read with `ast`."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peribrauer"


def test_no_assert_in_src():
    # an invariant is checked by raising, since `python -O` strips asserts
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def _references(tree) -> Counter:
    """Names used in the tree: loaded or stored names, attributes and
    imported names."""
    return Counter(node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_no_dead_private_helper_in_src():
    # a top-level `_name` is library-internal: something in src must use it
    # besides its own definition, or it is dead (or kept for the tests only)
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    helpers = [(name, node) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]
    assert helpers
    dead = [f"{name}:{node.name}" for name, node in helpers
            if used[node.name] <= _references(node)[node.name]]
    assert not dead, dead
