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


def _is_tuple_new(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "tuple")


def test_tuple_new_builds_only_unchecked_records():
    # `tuple.__new__` skips a record's own constructor: an alias of it may
    # build `SkewDiagram`, whose constructor checks nothing, and a direct
    # call may build only `cls` inside that class's `__new__`, after its
    # check; so `Hook`'s ribbon check and `WeightDiagram`'s window check
    # run on every construction.  An alias is read by name in every
    # module, so one imported elsewhere is held to the same rule.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    aliases = {target.id for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and _is_tuple_new(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    assert aliases
    calls, found = 0, []
    for name, tree in trees.items():
        inside = {id(call) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "__new__"
                  for call in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            first = node.args[0].id if node.args and isinstance(node.args[0], ast.Name) else None
            if isinstance(node.func, ast.Name) and node.func.id in aliases:
                allowed = first == "SkewDiagram"
            elif _is_tuple_new(node.func):
                allowed = first == "cls" and id(node) in inside
            else:
                continue
            calls += 1
            if not allowed:
                found.append(f"{name}:{node.lineno}")
    assert calls and not found, found


def _call_graph() -> dict[str, set[str]]:
    """Every function, class and method of src by name, with the names of
    those its body refers to.  Two definitions of one name (a method and
    a function, say) share a node, and a local variable named like a
    definition counts as a reference: both can only add reaches."""
    defs: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs.setdefault(sub.name, []).append(sub)
    return {name: {ref for node in nodes for ref in _references(node) if ref in defs}
            for name, nodes in defs.items()}


# each oracle and the names it must not reach through any chain of calls
ORACLES = {
    "is_gamma": {"covering", "_pieces", "Hook", "is_gamma0"},
    "covering": {"is_gamma", "_pieces", "components"},
    "components": {"covering", "is_gamma", "hook_decompositions"},
    "generate_upsilon": {"is_gamma", "covering"},
    "hook_decompositions": {"covering", "_pieces", "components", "is_gamma", "is_gamma0"},
    "pi_set": {"covering", "is_gamma"},
    "rim_hook_of_flip": {"covering", "is_gamma"},
    "cartan_mult_sum": {"cartan_mult_witness", "cartan_matrix"},
    "cartan_mult_witness": {"cartan_mult_sum", "cartan_matrix"},
    "conjugate_skew": {"conjugate", "skew_from_pair"},
}


def test_oracles_stay_independent():
    # the independent oracles (membership, covering, the closures, the
    # decomposition search, the component split, the flip sets and the two
    # Cartan forms) derive from none of the others; this reads names in
    # the source, and test_skew::test_gamma_reads_no_covering what runs
    graph = _call_graph()
    found = []
    for oracle, banned in ORACLES.items():
        assert {oracle} | banned <= graph.keys(), ({oracle} | banned) - graph.keys()
        via = {oracle: None}  # each name reached, with the name it was reached from
        todo = [oracle]
        while todo:
            name = todo.pop()
            for ref in graph[name] - via.keys():
                via[ref] = name
                todo.append(ref)
        for name in sorted(banned & via.keys()):
            chain = [name]
            while via[chain[-1]]:
                chain.append(via[chain[-1]])
            found.append(" -> ".join(reversed(chain)))
    assert not found, found
