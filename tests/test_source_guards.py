"""Checks on the package source itself."""

import ast
from pathlib import Path

import planecode


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a correctness guard must raise
    modules = sorted(Path(planecode.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
