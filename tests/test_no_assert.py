"""The package validates with code that raises, never with ``assert``:
``python -O`` strips assert statements."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "latreg"


def test_no_assert_statements_in_the_package():
    found = []
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
