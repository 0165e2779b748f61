"""Checks on the package source itself."""

import ast
import builtins
import dataclasses
import inspect
from pathlib import Path

import planecode
from planecode.field import field_new
from planecode.geometry import pg2


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


_REMOVED_CACHES = {"pair_line_rows", "pair_point_rows"}
# names deleted with what they held; none may come back under the same name.
# The functions that only tests called, and the int64 elimination bound that
# no plane's characteristic reaches
_REMOVED_NAMES = _REMOVED_CACHES | {
    "point_counts",
    "secant_profile",
    "frobenius",
    "in_subfield",
    "elements",
    "pow",
    "check_subplane",
    "slope",
    "word_from_json",
    "nullspace_mod_p",
    "line_restriction_mu",
    "colour_classes",
    "_INT64_LIMIT",
    "used_lines",
    "line_mask",
    "_CHUNK_KEYS",
    # the quadrangle-closure search: the engine finds subplanes (an
    # embedding of PG(2,m) as a partial linear space) at every order
    "subplane_search",
    "SubplaneSearchOutcome",
    "_closure",
    "_lazy_rows",
    "_quadrangle_closures",
}


def _identifiers(node):
    for field in ("id", "attr", "name", "arg"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            yield value


def test_line_sets_only_on_a_partial_linear_space():
    # a Plane keeps each incidence relation once (lines, point_lines, the
    # join and meet tables): no frozensets per line and no row-tuple caches.
    # A partial linear space keeps its line_sets, read as pls.line_sets.
    pls_lines = set()
    for _, node in _package_nodes():
        if isinstance(node, ast.ClassDef) and node.name == "PartialLinearSpace":
            pls_lines |= set(range(node.lineno, node.end_lineno + 1))
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Attribute) and node.attr == "line_sets":
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            allowed = owner == "pls" or (
                owner == "self" and name == "antipodal.py" and node.lineno in pls_lines
            )
            if owner == "plane" or not allowed:
                found.append(f"{name}:{node.lineno}")
    assert found == []
    plane = pg2(field_new(2))
    for attr in ("line_sets", *_REMOVED_CACHES):
        assert not hasattr(plane, attr)


def test_removed_names_stay_gone():
    # a plane keeps no row-tuple caches of its pair tables, and an analysis
    # no per-point rows of line counts: the checks that read them gather
    # them from line_counts and the plane
    from planecode.analyze import WordAnalysis

    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if _REMOVED_NAMES.intersection(_identifiers(node))
        and not (isinstance(node, ast.Name) and node.id in vars(builtins))  # pow(x, e, p)
    ]
    assert found == []
    assert "point_counts" not in {f.name for f in dataclasses.fields(WordAnalysis)}


_REPO = Path(__file__).resolve().parents[1]
_CALLER_DIRS = ("src", "demos", "perfbench")


def _public_functions(source: str):
    """(name, first line, last line) of each public module-level function
    and public method, except the acceptance rows criterion(...) registers."""
    for node in ast.parse(source).body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            registered = any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "criterion"
                for d in getattr(fn, "decorator_list", ())
            )
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_") and not registered:
                yield fn.name, fn.lineno, fn.end_lineno


def _references(source: str):
    """(name, line) of each identifier, imported name or alias, and string
    constant (the benchmark tracer names the functions it wraps by string)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (node.name.rpartition(".")[2], node.asname):
                if name:
                    yield name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _uncalled(package: dict, callers: dict) -> list[str]:
    """Public functions of the package modules (name -> source) that no
    caller module (path -> source) references outside their own definition."""
    seen: dict[str, list] = {}
    for path, source in callers.items():
        for name, line in _references(source):
            seen.setdefault(name, []).append((path, line))
    return [
        f"{module}:{name}"
        for module, source in package.items()
        for name, first, last in _public_functions(source)
        if not any(path != module or not first <= line <= last for path, line in seen.get(name, ()))
    ]


def test_every_public_function_has_a_caller_outside_the_tests():
    # a function only tests call is behaviour no user reaches; an oracle a
    # test needs lives in that test file
    callers = {
        str(path.relative_to(_REPO)): path.read_text()
        for d in _CALLER_DIRS
        for path in sorted((_REPO / d).rglob("*.py"))
    }
    package = {path: source for path, source in callers.items() if path.startswith("src/planecode/")}
    assert len(package) >= 10
    assert _uncalled(package, callers) == []
    lone = "def used():\n    return unused\n\n\ndef unused():\n    return 'unused', unused\n"
    assert _uncalled({"m.py": lone}, {"m.py": lone}) == ["m.py:used"]
    rows = "@criterion('row')\ndef row(ctx):\n    pass\n"
    assert _uncalled({"m.py": rows}, {"m.py": rows}) == []


_FLOAT_DTYPES = ("float64", "float32", "float16")
_EXACT_PRODUCTS = ("exact_matmul", "rref_mod_p")


def _lines_naming(source: str, name: str, words, functions=()) -> list[str]:
    """Lines of a module naming any of `words`, except inside the functions
    named in `functions`."""
    allowed = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in functions
    ]
    return [
        f"{name}:{lineno}"
        for lineno, line in enumerate(source.splitlines(), start=1)
        if any(word in line for word in words) and not any(lineno in r for r in allowed)
    ]


def _float_dtype_lines(source: str, name: str) -> list[str]:
    """Lines naming a float dtype, except inside codes.py's exact float64
    product and its elimination kernel."""
    return _lines_naming(source, name, _FLOAT_DTYPES, _EXACT_PRODUCTS if name == "codes.py" else ())


def test_float64_only_in_the_bounded_gf_p_products():
    # floating point is exact only under the bounds that these two functions
    # check; every other product, the analyzer's counts too, goes through them
    package = Path(planecode.__file__).parent
    codes_source = (package / "codes.py").read_text()
    defined = {n.name for n in ast.walk(ast.parse(codes_source)) if isinstance(n, ast.FunctionDef)}
    assert set(_EXACT_PRODUCTS) <= defined
    found = []
    for path in sorted(package.glob("*.py")):
        found += _float_dtype_lines(path.read_text(), path.name)
    assert found == []
    for dtype in _FLOAT_DTYPES:
        stray = f"def counts(a):\n    return a.astype(np.{dtype})\n"
        assert _float_dtype_lines(stray, "analyze.py") == ["analyze.py:2"]
        assert _float_dtype_lines(stray.replace("counts", "matmul_mod_p"), "codes.py") == ["codes.py:2"]
    inside = "def exact_matmul(a, b, p):\n    return a.astype(np.float32)\n"
    assert _float_dtype_lines(inside, "codes.py") == []


def test_int32_in_codes_only_inside_the_elimination_kernel():
    # int32 arithmetic is exact only under the panel bound rref_mod_p checks
    source = (Path(planecode.__file__).parent / "codes.py").read_text()
    assert _lines_naming(source, "codes.py", ("int32",), ("rref_mod_p",)) == []
    stray = "def dual_basis(code):\n    return code.generator.astype(np.int32)\n"
    assert _lines_naming(stray, "codes.py", ("int32",), ("rref_mod_p",)) == ["codes.py:2"]


def test_no_recursion_limit_is_set_in_package():
    # the search engine keeps its own stack, so no depth needs a raised limit
    found = []
    for path in sorted(Path(planecode.__file__).parent.glob("*.py")):
        found += _lines_naming(path.read_text(), path.name, ("setrecursionlimit",))
    assert found == []


def test_no_float_remainder_in_package():
    # a float64 block of integers below 2^53 is reduced by an exact cast to
    # int64 and an int64 remainder, several times cheaper than np.fmod
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(planecode.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "fmod" in line
    ]
    assert found == []


def _na_results_outside_the_runner(source: str) -> tuple[list[int], int]:
    """Lines of analyze.py that build CheckResult(..., NA, ...) outside the
    checklist runner, and how many such calls the runner holds."""
    tree = ast.parse(source)
    runner = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_run_checklist"
    ]
    outside, inside = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult":
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(getattr(arg, "id", None) == "NA" for arg in args):
                if any(node.lineno in r for r in runner):
                    inside += 1
                else:
                    outside.append(node.lineno)
    return outside, inside


def test_na_results_only_in_the_checklist_runner():
    # each analyzer check states its hypothesis in analyze.CHECKLIST and the
    # one runner reports na; a new check cannot add its own else branch
    source = (Path(planecode.__file__).parent / "analyze.py").read_text()
    assert _na_results_outside_the_runner(source) == ([], 1)
    branch = "def f(a):\n    if not a.in_band:\n        CheckResult('x', NA, 'why')\n"
    assert _na_results_outside_the_runner(source + branch)[0] != []


_FIELD_TABLES = {"_mul_t", "_add_t", "_neg_t", "_inv_t"}
_TABLE_READERS = {"_pg2_lines", "_point_indices", "collineation"}


def _table_reads_outside_the_collineation_layer(source: str, name: str) -> list[str]:
    """Reads of Field's private tables in a module, except in field.py and
    in the three vectorised coordinate functions of geometry.py."""
    tree = ast.parse(source)
    allowed = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in _TABLE_READERS
    ] if name == "geometry.py" else []
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _FIELD_TABLES
        and name != "field.py" and not any(node.lineno in r for r in allowed)
    ]


def test_field_tables_only_in_the_collineation_layer():
    # vectorised field arithmetic on coordinates has one home: pg2's line
    # builder, the coordinate indexer and collineation; other modules call
    # Field methods or those three
    found = []
    for path in sorted(Path(planecode.__file__).parent.glob("*.py")):
        found += _table_reads_outside_the_collineation_layer(path.read_text(), path.name)
    assert found == []
    stray = "def slope(f, a, b):\n    return f._mul_t[a, b]\n"
    assert _table_reads_outside_the_collineation_layer(stray, "geometry.py") == ["geometry.py:2"]


def test_search_does_no_field_arithmetic_of_its_own():
    # slope certificates move points by geometry.collineation
    tree = ast.parse((Path(planecode.__file__).parent / "search.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "Field" not in imported
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not names & {"_adjugate3", "_matvec"}


def _whole_line_gathers(source: str, name: str) -> list[str]:
    """Subscripts indexed by a whole lines_arr (every line's points at once):
    line statistics are read over the lines through a support instead.  A
    single row, lines_arr[l], or a selection of rows is allowed."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and "lines_arr" in (getattr(node.slice, "attr", None), getattr(node.slice, "id", None))
    ]


def _pair_table_calls(source: str, name: str) -> list[str]:
    """Calls of geometry._pair_table outside Plane.pair_line and Plane.pair_point."""
    tree = ast.parse(source)
    allowed = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("pair_line", "pair_point")
    ] if name == "geometry.py" else []
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "_pair_table" in _identifiers(node.func)
        and not any(node.lineno in r for r in allowed)
    ]


def test_no_whole_plane_line_gathers_and_no_eager_join_tables():
    # a word's line sums and a point set's line counts cost what its support
    # reads; the N x N join and meet tables are built on their first read only
    found = []
    for path in sorted(Path(planecode.__file__).parent.glob("*.py")):
        source = path.read_text()
        found += _whole_line_gathers(source, path.name) + _pair_table_calls(source, path.name)
    assert found == []
    gather = "def line_values(w, plane):\n    return w.values[plane.lines_arr]\n"
    assert _whole_line_gathers(gather, "codes.py") == ["codes.py:2"]
    row = "def mu(w, plane, l):\n    return w.values[plane.lines_arr[l]].sum()\n"
    assert _whole_line_gathers(row, "codes.py") == []
    eager = "def _checked_lines(lines, n):\n    return _pair_table(lines, n)\n"
    assert _pair_table_calls(eager, "geometry.py") == ["geometry.py:2"]


def _mmap_uses(source: str, name: str) -> list[str]:
    """Uses of mmap in a module (its import aside), except inside
    geometry._pair_table: the join and meet tables are the one N x N
    allocation."""
    tree = ast.parse(source)
    allowed = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_pair_table"
    ] if name == "geometry.py" else []
    return sorted({
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if not isinstance(node, ast.alias)
        and "mmap" in _identifiers(node)
        and not any(node.lineno in r for r in allowed)
    })


def test_mmap_only_in_the_pair_tables():
    # plane construction and its axiom check allocate no N x N scratch; only
    # pair_line() and pair_point(), on first read, map N x N memory
    found = []
    for path in sorted(Path(planecode.__file__).parent.glob("*.py")):
        found += _mmap_uses(path.read_text(), path.name)
    assert found == []
    stray = "import mmap\n\n\ndef _checked_lines(lines, n):\n    return mmap.mmap(-1, n * n)\n"
    assert _mmap_uses(stray, "geometry.py") == ["geometry.py:5"]
    inside = stray.replace("_checked_lines", "_pair_table")
    assert _mmap_uses(inside, "geometry.py") == []
    assert _mmap_uses(inside, "codes.py") == ["codes.py:5"]


def test_options_the_code_works_out_stay_deleted():
    # frame pinning follows from the target, a plane's source and coordinates
    # from its field, and a word the analyzer refuses as non-dual cannot be
    # extracted from; no caller sets a recipe's sign, a Mobius-Kantor root or
    # a certificate's triangle and transversal
    from planecode import construct
    from planecode.analyze import extract_antipodal, extract_baer
    from planecode.antipodal import PartialLinearSpace, mobius_kantor_pls, mobius_kantor_points
    from planecode.codes import code_of_plane
    from planecode.geometry import Plane
    from planecode.search import embed_search, slope_certificate

    removed = [
        (embed_search, "normalize"),
        (code_of_plane, "allow_prime_mismatch"),
        (extract_baer, "override_non_dual"),
        (extract_antipodal, "override_non_dual"),
        (Plane.__init__, "source"),
        (Plane.__init__, "coords"),
        (construct.line_diff, "raw"),
        (construct.baer_diff, "raw"),
        (construct.subplane_diff, "raw"),
        (construct.antipodal_diff, "raw"),
        (construct._scaled, "raw"),
        (construct._disjoint_diff, "raw"),
        (mobius_kantor_points, "omega"),
        (mobius_kantor_pls, "omega"),
        (slope_certificate, "triangle"),
        (slope_certificate, "transversal"),
    ]
    assert [name for f, name in removed if name in inspect.signature(f).parameters] == []
    # one name per query: the join of a partial linear space is line_through, as on Plane
    assert not hasattr(PartialLinearSpace, "line_of")
