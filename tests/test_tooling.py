"""Source-level rules that the package keeps."""

import ast
from pathlib import Path

import latmin

PACKAGE = Path(latmin.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # soundness checks raise explicit errors, because python -O strips assert
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"
