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


def _template(node) -> str | None:
    """The message of `raise E("...")` or `raise E(f"...")`, each f-string
    field read as `{}`; None for any other raise."""
    exc = node.exc
    if not (isinstance(exc, ast.Call) and exc.args):
        return None
    msg = exc.args[0]
    if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
        return msg.value
    if isinstance(msg, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in msg.values)
    return None


def test_one_raise_site_per_message():
    # a refusal is written once, in the function that checks it, and every
    # caller calls that function instead of raising the same message again
    sites: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and (template := _template(node)) is not None:
                sites.setdefault(template, []).append(f"{path.name}:{node.lineno}")
    assert sites
    repeated = [f"{template!r} at {', '.join(where)}"
                for template, where in sorted(sites.items()) if len(where) > 1]
    assert not repeated, "\n".join(repeated)


def test_no_unused_import_in_src():
    # every name a module-level import binds is used in that module;
    # `__init__.py` re-exports its imports, and `from __future__` binds none
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno}:{name}" for alias in node.names
                           if (name := (alias.asname or alias.name).split(".")[0]) not in loaded]
    assert not unused, unused
