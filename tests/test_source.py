"""Rules on the library source itself, read with `ast`."""

import ast
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
