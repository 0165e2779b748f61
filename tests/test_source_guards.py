"""Checks on the package source itself."""

import ast
from pathlib import Path

import planecode


def _package_nodes():
    modules = sorted(Path(planecode.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a correctness guard must raise
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _is_plane_line_sets(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "line_sets"
        and isinstance(node.value, ast.Name)
        and node.value.id == "plane"
    )


def test_no_loop_over_the_line_sets_of_a_plane():
    # a per-line scan of a point set goes through Plane.line_counts;
    # loops over a partial linear space's line_sets (pls) stay allowed
    found = []
    for name, node in _package_nodes():
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id == "enumerate":
                it = it.args[0] if it.args else it
            if _is_plane_line_sets(it):
                found.append(f"{name}:{it.lineno}")
    assert found == []


def test_float64_only_in_the_bounded_gf_p_products():
    # floating point is exact only under the bounds that these two functions check
    codes_path = Path(planecode.__file__).parent / "codes.py"
    allowed = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(ast.parse(codes_path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("matmul_mod_p", "rref_mod_p")
    ]
    assert len(allowed) == 2
    found = []
    for path in sorted(codes_path.parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if "float64" in line and not (path == codes_path and any(lineno in r for r in allowed)):
                found.append(f"{path.name}:{lineno}")
    assert found == []
