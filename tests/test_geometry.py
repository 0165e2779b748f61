import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planecode import geometry
from planecode.analyze import analyze, extract_baer
from planecode.construct import baer_diff
from planecode.field import FieldError, field_new
from planecode.formats import plane_from_text, plane_to_text
from planecode.geometry import (
    AxiomViolationError,
    BadShapeError,
    GeometryError,
    NotGeneratedError,
    NotSquareOrderError,
    NotThroughVertexError,
    SameLineError,
    SamePointError,
    SubplaneResult,
    TriangleSideError,
    _int_rows,
    _lazy_rows,
    _quadrangle_closures,
    _restricted_lines,
    baer_partition,
    baer_subfield_subplane,
    ceva_product,
    check_subplane,
    collineation,
    fundamental_triangle,
    menelaos_product,
    pg2,
    plane_from_incidence,
    singer_cycle,
    slope,
    subplane_result_from_points,
    subplane_search,
)

FANO_LINES = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


@pytest.fixture(scope="module")
def pg9():
    return pg2(field_new(3, 2))


@pytest.fixture(scope="module")
def pg4():
    return pg2(field_new(2, 2))


def test_fano_plane_counts():
    plane = pg2(field_new(2))
    assert plane.npoints == 7
    assert len(plane.lines) == 7
    assert all(len(l) == 3 for l in plane.lines)


def test_pg9_has_91_points(pg9):
    assert pg9.npoints == 91
    assert len(pg9.lines) == 91
    assert all(len(l) == 10 for l in pg9.lines)


def test_pg4_contains_order2_subplane(pg4):
    assert pg4.npoints == 21
    sub = baer_subfield_subplane(pg4)
    assert sub.order == 2
    assert len(sub.points) == 7


def test_pg2_determinism():
    a = pg2(field_new(3, 2))
    b = pg2(field_new(3, 2))
    assert a.coords == b.coords
    assert a.lines == b.lines


def test_ingest_fano():
    plane = plane_from_incidence(FANO_LINES, 2)
    assert plane.npoints == 7
    assert plane.source == "ingested"


def test_ingest_roundtrip_pg3():
    gen = pg2(field_new(3))
    back = plane_from_incidence([list(l) for l in gen.lines], 3)
    assert back.lines == gen.lines


def test_ingest_repeated_line_rejected():
    rows = [list(l) for l in FANO_LINES]
    rows[3] = list(rows[0])
    with pytest.raises(AxiomViolationError) as e:
        plane_from_incidence(rows, 2)
    assert e.value.axiom == "two lines through two points"


def test_ingest_bad_shape():
    with pytest.raises(BadShapeError):
        plane_from_incidence(FANO_LINES[:5], 2)
    with pytest.raises(BadShapeError):
        plane_from_incidence(FANO_LINES, 50 + 1)
    for huge in (2**31, 99999999999999999999999, -(2**31) - 1):
        rows = [list(l) for l in FANO_LINES]
        rows[6][2] = huge
        with pytest.raises(BadShapeError, match="32 bits"):
            plane_from_incidence(rows, 2)


def test_line_through_symmetric_on_fano():
    plane = pg2(field_new(2))
    for p in range(7):
        for q in range(p + 1, 7):
            l = plane.line_through(p, q)
            assert l == plane.line_through(q, p)
            assert p in frozenset(plane.lines[l]) and q in frozenset(plane.lines[l])
    with pytest.raises(SamePointError):
        plane.line_through(3, 3)


def test_meet_lies_on_both_lines(pg4):
    for l in range(0, 21, 5):
        for m in range(l + 1, 21, 3):
            x = pg4.meet(l, m)
            assert x in frozenset(pg4.lines[l]) and x in frozenset(pg4.lines[m])
    with pytest.raises(SameLineError):
        pg4.meet(2, 2)


def test_is_incident_agrees_with_the_lines(pg4, pg9):
    relabel = [3, 6, 0, 5, 1, 4, 2]
    fano = plane_from_incidence([[relabel[x] for x in l] for l in reversed(FANO_LINES)], 2)
    for plane in (pg4, pg9, fano):
        incident = 0
        for l, members in enumerate(plane.lines):
            for x in range(plane.npoints):
                assert plane.is_incident(x, l) == (x in members)
                incident += x in members
        assert incident == plane.npoints * (plane.order + 1)


def test_meet_of_lines_through_common_point(pg9):
    p, q, r = 0, 40, 77
    l1 = pg9.line_through(p, q)
    l2 = pg9.line_through(p, r)
    if l1 != l2:
        assert pg9.meet(l1, l2) == p


@pytest.mark.parametrize(
    "p,h,m,count",
    [(3, 2, 3, 13), (5, 2, 5, 31), (2, 2, 2, 7)],
)
def test_baer_subfield_subplane(p, h, m, count):
    plane = pg2(field_new(p, h))
    sub = baer_subfield_subplane(plane)
    assert sub.order == m
    assert len(sub.points) == count
    check_subplane(plane, sub)


def test_baer_subplane_needs_square_order():
    with pytest.raises(NotSquareOrderError):
        baer_subfield_subplane(pg2(field_new(7)))


def test_subplane_search_finds_fano_in_pg4(pg4):
    out = subplane_search(pg4, 2, limit=3)
    assert len(out.subplanes) == 3
    assert out.nodes == 3
    for sub in out.subplanes:
        assert sub.order == 2
        check_subplane(pg4, sub)


def test_subplane_search_pg4_exhaustive(pg4):
    out = subplane_search(pg4, 2, limit=1000)
    assert out.exhausted
    assert len(out.subplanes) == 360  # |PGL(3,4)| / |PGL(3,2)| Fano subplanes
    assert out.nodes == 2520
    for sub in out.subplanes:
        check_subplane(pg4, sub)


def test_subplane_search_pg9_baer(pg9):
    out = subplane_search(pg9, 3, limit=4)
    assert len(out.subplanes) == 4
    subfield = baer_subfield_subplane(pg9)
    assert out.subplanes[0].points == subfield.points
    for sub in out.subplanes:
        check_subplane(pg9, sub)


def test_subplane_search_budget_exceeded(pg9):
    out = subplane_search(pg9, 3, limit=10, budget=2)
    assert out.budget_exceeded
    assert not out.exhausted


@pytest.mark.slow
def test_subplane_search_pg9_no_order2(pg9):
    out = subplane_search(pg9, 2, limit=1)
    assert out.exhausted
    assert out.nodes == 1769040
    assert not out.budget_exceeded
    assert out.subplanes == []


def test_slope_of_diagonal_line_is_one(pg9):
    a1 = pg9.point_index((1, 0, 0))
    x = pg9.point_index((0, 1, 1))
    assert slope(pg9, 1, pg9.line_through(a1, x)) == 1


def test_slope_example_gf7():
    plane = pg2(field_new(7))
    a2 = plane.point_index((0, 1, 0))
    pt = plane.point_index((1, 0, 3))
    t2 = slope(plane, 2, plane.line_through(a2, pt))
    assert t2 == plane.field.inv(3) == 5


def test_slope_errors(pg9):
    a1, a2, a3 = fundamental_triangle(pg9)
    side = pg9.line_through(a1, a2)
    with pytest.raises(TriangleSideError):
        slope(pg9, 1, side)
    off = next(
        l for l in range(pg9.npoints)
        if a1 not in frozenset(pg9.lines[l])
    )
    with pytest.raises(NotThroughVertexError):
        slope(pg9, 1, off)


def _triangle_free_lines(plane):
    a1, a2, a3 = fundamental_triangle(plane)
    tri = {a1, a2, a3}
    return [l for l in range(plane.npoints) if not (tri & frozenset(plane.lines[l]))]


def _off_side_points(plane):
    a1, a2, a3 = fundamental_triangle(plane)
    sides = (
        frozenset(plane.lines[plane.line_through(a2, a3)])
        | frozenset(plane.lines[plane.line_through(a1, a3)])
        | frozenset(plane.lines[plane.line_through(a1, a2)])
    )
    return [p for p in range(plane.npoints) if p not in sides]


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_menelaos_and_ceva_exhaustive(p, h):
    plane = pg2(field_new(p, h))
    q = plane.order
    minus_one = plane.field.neg(1)
    lines = _triangle_free_lines(plane)
    assert len(lines) == (q - 1) ** 2
    for l in lines:
        assert menelaos_product(plane, l) == minus_one
    points = _off_side_points(plane)
    assert len(points) == (q - 1) ** 2
    for x in points:
        assert ceva_product(plane, x) == 1


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_any_two_lines_meet_exactly_once(p, h):
    plane = pg2(field_new(p, h))
    for l1 in range(plane.npoints):
        s1 = frozenset(plane.lines[l1])
        for l2 in range(l1 + 1, plane.npoints):
            assert len(s1 & frozenset(plane.lines[l2])) == 1


def test_ceva_unit_point_pg5():
    plane = pg2(field_new(5))
    x = plane.point_index((1, 1, 1))
    a1, a2, a3 = fundamental_triangle(plane)
    assert slope(plane, 1, plane.line_through(a1, x)) == 1
    assert slope(plane, 2, plane.line_through(a2, x)) == 1
    assert slope(plane, 3, plane.line_through(a3, x)) == 1
    assert ceva_product(plane, x) == 1


def test_menelaos_precondition(pg9):
    a1, _, _ = fundamental_triangle(pg9)
    through = pg9.point_lines[a1][0]
    with pytest.raises(NotThroughVertexError):
        menelaos_product(pg9, through)


# -- the loop implementations, kept as oracles ----------------------------------


def reference_pg2(field):
    """Points and lines of PG(2,q) by per-element field calls and an index dict."""
    q = field.q
    pts = [(0, 0, 1)] + [(0, 1, z) for z in range(q)]
    pts += [(1, y, z) for y in range(q) for z in range(q)]
    index = {c: i for i, c in enumerate(pts)}

    def normalize(v):
        for i in range(3):
            if v[i] != 0:
                s = field.inv(v[i])
                return (field.mul(s, v[0]), field.mul(s, v[1]), field.mul(s, v[2]))

    neg = field.neg
    lines = []
    for a, b, c in pts:
        if a == 1:
            v1, v2 = (neg(b), 1, 0), (neg(c), 0, 1)
        elif b == 1:
            v1, v2 = (1, 0, 0), (0, neg(c), 1)
        else:
            v1, v2 = (1, 0, 0), (0, 1, 0)
        members = [index[normalize(v2)]]
        for t in range(q):
            w = tuple(field.add(field.mul(t, v2[i]), v1[i]) for i in range(3))
            members.append(index[normalize(w)])
        lines.append(tuple(sorted(members)))
    return tuple(pts), tuple(lines)


def reference_validate(lines, n):
    """The line-by-line axiom check: pair_line, or the first violation raised."""
    N = n * n + n + 1
    lines = [tuple(sorted(l)) for l in lines]
    if len(lines) != N:
        raise BadShapeError(f"expected {N} lines, got {len(lines)}")
    degrees = np.zeros(N, dtype=np.int64)
    pair_line = np.full((N, N), -1, dtype=np.int32)
    for i, l in enumerate(lines):
        if len(l) != n + 1 or len(set(l)) != n + 1:
            raise AxiomViolationError("line size", (i, l))
        idx = np.fromiter(l, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= N:
            raise BadShapeError(f"line {i} has out-of-range point index")
        block = pair_line[np.ix_(idx, idx)].copy()
        np.fill_diagonal(block, -1)
        hit = np.argwhere(block >= 0)
        if hit.size:
            a, b = int(idx[hit[0][0]]), int(idx[hit[0][1]])
            raise AxiomViolationError(
                "two lines through two points", (a, b, int(pair_line[a, b]), i)
            )
        pair_line[np.ix_(idx, idx)] = i
        degrees[idx] += 1
    np.fill_diagonal(pair_line, -1)
    if (degrees != n + 1).any():
        bad = int(np.flatnonzero(degrees != n + 1)[0])
        raise AxiomViolationError("point degree", (bad, int(degrees[bad])))
    uncovered = np.argwhere(pair_line < 0)
    uncovered = uncovered[uncovered[:, 0] != uncovered[:, 1]]
    if uncovered.size:
        a, b = map(int, uncovered[0])
        raise AxiomViolationError("two points on no common line", (a, b))
    return pair_line


def reference_point_lines(lines, N):
    pl = [[] for _ in range(N)]
    for i, l in enumerate(lines):
        for pt in l:
            pl[pt].append(i)
    return tuple(tuple(ls) for ls in pl)


def reference_pair_point(point_lines, N):
    t = np.full((N, N), -1, dtype=np.int32)
    for pt, ls in enumerate(point_lines):
        idx = np.fromiter(ls, dtype=np.int64)
        t[np.ix_(idx, idx)] = pt
    np.fill_diagonal(t, -1)
    return t


ORACLE_FIELDS = {
    2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
    11: (11, 1), 13: (13, 1), 16: (2, 4), 25: (5, 2), 27: (3, 3), 32: (2, 5),
}


@pytest.mark.parametrize("q", sorted(ORACLE_FIELDS))
def test_pg2_matches_reference(q):
    field = field_new(*ORACLE_FIELDS[q])
    plane = pg2(field)
    coords, lines = reference_pg2(field)
    N = q * q + q + 1
    assert plane.coords == coords
    assert plane.lines == lines
    assert plane.lines_arr.dtype == np.int32
    assert np.array_equal(plane.lines_arr, np.array(lines))
    point_lines = reference_point_lines(lines, N)
    assert plane.point_lines == point_lines
    assert plane.point_lines_arr.dtype == np.int32
    assert np.array_equal(plane.point_lines_arr, np.array(point_lines))
    assert np.array_equal(plane.pair_line(), reference_validate(lines, q))
    assert np.array_equal(plane.pair_point(), reference_pair_point(point_lines, N))
    assert [plane.point_index(c) for c in coords] == list(range(N))


def test_pg2_refuses_a_field_without_tables():
    # 8192 elements: above the table limit, refused before pg2 is reached
    with pytest.raises(FieldError, match="lookup-table limit"):
        pg2(field_new(2, 13))


def _swap_between_lines(rows, rng):
    i, j = rng.sample(range(len(rows)), 2)
    x = rng.choice(sorted(set(rows[i]) - set(rows[j])))
    y = rng.choice(sorted(set(rows[j]) - set(rows[i])))
    rows[i][rows[i].index(x)], rows[j][rows[j].index(y)] = y, x


def _duplicate_line(rows, rng):
    i, j = rng.sample(range(len(rows)), 2)
    rows[j] = list(rows[i])


def _repeat_point(rows, rng):
    row = rows[rng.randrange(len(rows))]
    a, b = rng.sample(range(len(row)), 2)
    row[a] = row[b]


def _short_line(rows, rng):
    row = rows[rng.randrange(len(rows))]
    row.pop(rng.randrange(len(row)))


def _out_of_range(rows, rng):
    row = rows[rng.randrange(len(rows))]
    row[rng.randrange(len(row))] = rng.choice([-1, len(rows), len(rows) + 7])


def _missing_line(rows, rng):
    del rows[rng.randrange(len(rows))]


CORRUPTIONS = [
    _swap_between_lines, _duplicate_line, _repeat_point,
    _short_line, _out_of_range, _missing_line,
]


def _outcome(build):
    try:
        build()
    except AxiomViolationError as e:
        return AxiomViolationError, e.axiom, e.witness
    except GeometryError as e:
        return type(e), None, None
    return None


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("p,h", [(3, 1), (2, 2), (3, 2)])
def test_validate_matches_reference_on_corruptions(p, h, corrupt):
    plane = pg2(field_new(p, h))
    for seed in range(8):
        rng = random.Random(seed)
        rows = [list(l) for l in plane.lines]
        perm = list(range(plane.npoints))
        rng.shuffle(perm)
        rows = [[perm[x] for x in rows[i]] for i in perm]
        corrupt(rows, rng)
        for _ in range(seed % 3):  # later seeds add other faults, to test their order
            rng.choice(CORRUPTIONS)(rows, rng)
        got = _outcome(lambda: plane_from_incidence(rows, plane.order))
        want = _outcome(lambda: reference_validate(rows, plane.order))
        assert got is not None
        assert got == want


# -- point sets: line counts, the subplane validator, the coordinate index ------


def reference_check_subplane(plane, sub):
    """The line-by-line subplane check."""
    m = sub.order
    pts = set(sub.points)
    if len(pts) != m * m + m + 1 or len(sub.lines) != m * m + m + 1:
        raise GeometryError(f"not a subplane of order {m}: wrong sizes")
    for l in sub.lines:
        if len(frozenset(plane.lines[l]).intersection(pts)) != m + 1:
            raise GeometryError(f"line {l} does not meet the subplane in {m + 1} points")
    for l in range(plane.npoints):
        k = len(frozenset(plane.lines[l]).intersection(pts))
        if k > 1 and l not in sub.lines:
            raise GeometryError(f"line {l} meets the subplane in {k} points but is not listed")


def reference_subplane_result_from_points(plane, pts, m):
    """The frozenset scan over all lines, with the point-degree loop."""
    if len(pts) != m * m + m + 1:
        return None
    secants = []
    for l, ls in enumerate(map(frozenset, plane.lines)):
        k = len(ls & pts)
        if k > 1:
            if k != m + 1:
                return None
            secants.append(l)
    if len(secants) != m * m + m + 1:
        return None
    deg = {p: 0 for p in pts}
    for l in secants:
        for p in frozenset(plane.lines[l]) & pts:
            deg[p] += 1
    if any(d != m + 1 for d in deg.values()):
        return None
    return SubplaneResult(tuple(sorted(pts)), tuple(secants), m)


def reference_restricted_lines(plane, points, k):
    """The scan of extract_antipodal and mobius_kantor_pls: lines holding k
    of the points, as the sorted positions of those points."""
    local = {x: i for i, x in enumerate(points)}
    pset = set(points)
    lines = []
    for ls in map(frozenset, plane.lines):
        hit = ls & pset
        if len(hit) == k:
            lines.append(tuple(sorted(local[x] for x in hit)))
    return lines


def reference_normalize(f, v):
    """Scale a nonzero triple so its first nonzero coordinate is 1."""
    s = f.inv(next(c for c in v if c))
    return tuple(f.mul(s, c) for c in v)


def _check_outcome(plane, sub, check):
    try:
        check(plane, sub)
    except GeometryError:
        return False
    return True


def _candidate_sets(plane, m, found, rng):
    """The found subplanes, 5 one-point perturbations of each, the closures
    within the cap among the first 2000 quadrangles (at most 50) and 200
    random sets of m^2+m+1 points."""
    N, size = plane.npoints, m * m + m + 1
    sets = [frozenset(s.points) for s in found]
    for pts in list(sets):
        for _ in range(5):
            out = rng.choice(sorted(pts))
            new = rng.choice([x for x in range(N) if x not in pts])
            sets.append(pts - {out} | {new})
    closures = _quadrangle_closures(plane, range(N), size)
    sets += [cl for _, cl in zip(range(2000), closures) if cl is not None][:50]
    sets += [frozenset(rng.sample(range(N), size)) for _ in range(200)]
    return sets


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2), (3, 2), (5, 1)])
def test_ingested_join_table_matches_reference(p, h):
    plane = pg2(field_new(p, h))
    rng = random.Random(p * h)
    perm = list(range(plane.npoints))
    rng.shuffle(perm)
    rows = [[perm[x] for x in plane.lines[i]] for i in perm]
    ingested = plane_from_incidence(rows, plane.order)
    assert ingested._pair_line is None  # built on first read
    assert np.array_equal(ingested.pair_line(), reference_validate(rows, plane.order))
    assert ingested.pair_line() is ingested.pair_line()
    assert ingested.coords_arr is None


def test_the_word_path_builds_no_join_table(monkeypatch):
    built = []

    def recording(rows, N):
        built.append(N)
        return real(rows, N)

    real = geometry._pair_table
    monkeypatch.setattr(geometry, "_pair_table", recording)
    plane = pg2(field_new(7, 2))
    ingested = plane_from_text(plane_to_text(plane))
    for target in (plane, ingested):
        sub = baer_subfield_subplane(plane)
        for secant in sub.lines[:3]:
            w = baer_diff(target, sub, secant=secant)
            assert analyze(w, target).classification == "baer"
            assert extract_baer(w, target) == (sub, secant)
        assert target._pair_line is None and target._pair_point is None
    assert built == []
    assert plane.line_through(0, 1) == next(i for i, l in enumerate(plane.lines) if {0, 1} <= set(l))
    assert built == [plane.npoints]


def test_pg2_of_order_121_stays_under_500_mb():
    # the pair-coverage bitmap (one byte per cell) is the largest allocation;
    # an int32 join table alone would be 872 MB
    code = (
        "import resource\n"
        "from planecode.field import field_new\n"
        "from planecode.geometry import pg2\n"
        "plane = pg2(field_new(11, 2))\n"
        "print(plane.npoints, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    npoints, peak_kb = map(int, out.stdout.split())
    assert npoints == 121 * 121 + 121 + 1
    assert peak_kb < 500 * 1024


@pytest.mark.parametrize(
    "q,m,limit,budget",
    [(4, 2, 1000, 10**6), (9, 2, 10, 3000), (9, 3, 60, 10**6), (16, 2, 30, 10**6), (25, 2, 10, 3000)],
)
def test_subplane_validator_matches_reference(q, m, limit, budget):
    p, h = ORACLE_FIELDS[q]
    plane = pg2(field_new(p, h))
    found = subplane_search(plane, m, limit=limit, budget=budget).subplanes
    assert len(found) == {4: 360, 9: 60 if m == 3 else 0, 16: 30, 25: 0}[q]
    if h == 2 and p == m:
        found.append(baer_subfield_subplane(plane))
    rng = random.Random(q * 10 + m)
    accepted = 0
    for pts in _candidate_sets(plane, m, found, rng):
        got = subplane_result_from_points(plane, pts, m)
        assert got == reference_subplane_result_from_points(plane, pts, m)
        accepted += got is not None
        sub = got or SubplaneResult(tuple(sorted(pts)), tuple(range(len(pts))), m)
        want = _check_outcome(plane, sub, reference_check_subplane)
        assert _check_outcome(plane, sub, check_subplane) == want == (got is not None)
    assert accepted >= len(found)


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_baer_subplanes_match_reference(q):
    plane = pg2(field_new(*ORACLE_FIELDS[q]))
    sub = baer_subfield_subplane(plane)
    assert sub == reference_subplane_result_from_points(plane, frozenset(sub.points), sub.order)
    reference_check_subplane(plane, sub)


def test_check_subplane_refuses_wrong_points_or_lines(pg9):
    sub = baer_subfield_subplane(pg9)
    outside = next(x for x in range(pg9.npoints) if x not in sub.points)
    tangent = next(l for l in range(pg9.npoints) if l not in sub.lines)
    cases = {
        "swapped point": (sub.points[:-1] + (outside,), sub.lines),
        "missing secant": (sub.points, sub.lines[1:]),
        "extra listed line": (sub.points, sub.lines + (tangent,)),
        "tangent for a secant": (sub.points, sub.lines[1:] + (tangent,)),
        "repeated secant": (sub.points, sub.lines + sub.lines[:1]),
    }
    for name, (points, lines) in cases.items():
        bad = SubplaneResult(points, lines, sub.order)
        with pytest.raises(GeometryError):
            reference_check_subplane(pg9, bad)
        with pytest.raises(GeometryError):
            check_subplane(pg9, bad)
    check_subplane(pg9, SubplaneResult(sub.points[::-1], sub.lines[::-1], sub.order))


def test_validator_refuses_a_negative_index_alias(pg4):
    pts = list(baer_subfield_subplane(pg4).points)
    pts[3] -= pg4.npoints  # the same point for numpy, not for the plane
    assert subplane_result_from_points(pg4, frozenset(pts), 2) is None
    assert reference_subplane_result_from_points(pg4, frozenset(pts), 2) is None
    pts[3] += 2 * pg4.npoints
    assert subplane_result_from_points(pg4, frozenset(pts), 2) is None


def test_line_counts(pg9):
    rng = random.Random(5)
    for size in (0, 1, 2, 13, 40, 91):
        pts = rng.sample(range(pg9.npoints), size)
        want = [len(ls & set(pts)) for ls in map(frozenset, pg9.lines)]
        for form in (pts, set(pts), frozenset(pts), tuple(pts), np.array(pts, dtype=np.int32)):
            got = pg9.line_counts(form)
            assert got.dtype == np.int64
            assert got.tolist() == want
    assert pg9.line_counts([5, 5, 7]).tolist() == pg9.line_counts([5, 7]).tolist()
    for bad in (-1, pg9.npoints, 10**30):
        with pytest.raises(GeometryError):
            pg9.line_counts([0, bad])


@pytest.mark.parametrize("q,k", [(4, 2), (9, 3), (9, 4), (25, 5)])
def test_restricted_lines_match_reference(q, k):
    plane = pg2(field_new(*ORACLE_FIELDS[q]))
    rng = random.Random(q + k)
    for size in (k, 2 * k, 5 * k, plane.npoints // 2):
        pts = rng.sample(range(plane.npoints), size)  # an unsorted sequence
        assert _restricted_lines(plane, pts, k) == reference_restricted_lines(plane, pts, k)
        pts.sort()
        assert _restricted_lines(plane, pts, k) == reference_restricted_lines(plane, pts, k)


@pytest.mark.parametrize("q", sorted(ORACLE_FIELDS))
def test_point_index_matches_the_coordinate_dict(q):
    field = field_new(*ORACLE_FIELDS[q])
    plane = pg2(field)
    index = {c: i for i, c in enumerate(plane.coords)}  # the dict point_index used
    for c in plane.coords:
        for s in range(1, q):
            v = tuple(field.mul(s, x) for x in c)
            assert plane.point_index(v) == index[reference_normalize(field, v)] == index[c]
    for bad in ((0, 0, 0), (q, 0, 0), (0, 1, q), (-1, 1, 1), (1, 1), (1, 0, 0, 0)):
        with pytest.raises(GeometryError):
            plane.point_index(bad)


def test_point_index_needs_a_generated_plane():
    plane = plane_from_incidence(FANO_LINES, 2)
    with pytest.raises(NotGeneratedError):
        plane.point_index((1, 0, 0))


def test_pair_rows_share_int_objects(pg9):
    for table in (pg9.pair_line(), pg9.pair_point()):
        rows = _int_rows(table, pg9.npoints)
        assert rows == tuple(tuple(r) for r in table.tolist())
        assert all(rows[i][i] == -1 for i in range(pg9.npoints))
        seen = {}
        for row in rows:
            for x in row:
                assert seen.setdefault(x, x) is x
        assert len(seen) == pg9.npoints + 1


def test_lazy_rows_build_each_row_on_first_read(pg9):
    for table in (pg9.pair_line(), pg9.pair_point()):
        rows, build = _lazy_rows(table)
        assert build(5) == tuple(table[5].tolist()) and rows[5][5] == -1
        assert [i for i, r in enumerate(rows) if r is not None] == [5]
        whole = _int_rows(table, pg9.npoints)
        assert tuple(rows[i] or build(i) for i in range(pg9.npoints)) == whole


def test_subplane_search_converts_only_the_rows_it_reads():
    import tracemalloc

    plane = pg2(field_new(7, 2))
    plane.pair_point()  # the meet table is built before tracing
    tracemalloc.start()
    try:
        out = subplane_search(plane, 7, limit=1, budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first quadrangle closes to the GF(7) subplane; converting both
    # 2451 x 2451 tables to row tuples first peaked at 93 MiB
    assert (out.nodes, len(out.subplanes), out.exhausted) == (1, 1, False)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("limit", [0, -1])
def test_subplane_search_needs_a_positive_limit(pg4, limit):
    with pytest.raises(GeometryError, match="limit"):
        subplane_search(pg4, 2, limit=limit)


# -- collineations ----------------------------------------------------------------


def _matmul(f, a, b):
    return [
        [f.add(f.add(f.mul(a[r][0], b[0][c]), f.mul(a[r][1], b[1][c])), f.mul(a[r][2], b[2][c]))
         for c in range(3)]
        for r in range(3)
    ]


def _det(f, a):
    def minor(r1, c1, r2, c2):
        return f.sub(f.mul(a[r1][c1], a[r2][c2]), f.mul(a[r1][c2], a[r2][c1]))

    terms = (f.mul(a[0][0], minor(1, 1, 2, 2)), f.mul(a[0][1], minor(1, 0, 2, 2)),
             f.mul(a[0][2], minor(1, 0, 2, 1)))
    return f.add(f.sub(terms[0], terms[1]), terms[2])


def _random_matrix(f, rng):
    """A random nonsingular 3x3 matrix over f, by rejection on Field arithmetic."""
    while True:
        a = [[rng.randrange(f.q) for _ in range(3)] for _ in range(3)]
        if _det(f, a):
            return a


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25])
def test_collineation_maps_lines_onto_lines(q):
    plane = pg2(field_new(*ORACLE_FIELDS[q]))
    N, h = plane.npoints, plane.field.h
    rng = random.Random(q)
    for frob in sorted({0, h - 1, rng.randrange(h)}):
        g = collineation(plane, _random_matrix(plane.field, rng), frob)
        assert np.array_equal(np.sort(g), np.arange(N))
        # a line's image: the join of the images of two of its points
        img = g[plane.lines_arr]
        line_image = plane.pair_line()[img[:, 0], img[:, 1]]
        assert np.array_equal(np.sort(line_image), np.arange(N))
        assert np.array_equal(np.sort(img, axis=1), plane.lines_arr[line_image])


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_collineation_composition_is_the_semilinear_product(q):
    # (A, s) after (B, t) is x -> A (B x^(p^t))^(p^s) = A B^(p^s) x^(p^(s+t))
    plane = pg2(field_new(*ORACLE_FIELDS[q]))
    f = plane.field
    rng = random.Random(100 + q)
    for _ in range(4):
        a, b = _random_matrix(f, rng), _random_matrix(f, rng)
        s, t = rng.randrange(f.h), rng.randrange(f.h)
        b_twisted = [[f.pow(x, f.p**s) for x in row] for row in b]
        product = collineation(plane, _matmul(f, a, b_twisted), (s + t) % f.h)
        assert np.array_equal(collineation(plane, a, s)[collineation(plane, b, t)], product)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25])
def test_frobenius_has_order_h(q):
    plane = pg2(field_new(*ORACLE_FIELDS[q]))
    g = collineation(plane, np.eye(3, dtype=np.int64), frob=1)
    perm = np.arange(plane.npoints)
    for k in range(1, plane.field.h + 1):
        perm = g[perm]
        assert np.array_equal(perm, np.arange(plane.npoints)) == (k == plane.field.h)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_frobenius_images_match_field_powers(q):
    plane = pg2(field_new(*ORACLE_FIELDS[q]))
    f = plane.field
    assert np.array_equal(plane.coords_arr, np.array(plane.coords))
    for frob in range(f.h):
        want = [plane.point_index(tuple(f.pow(x, f.p**frob) for x in c)) for c in plane.coords]
        assert collineation(plane, np.eye(3, dtype=np.int64), frob).tolist() == want


def test_collineation_rejections(pg9):
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(NotGeneratedError):
        collineation(plane_from_incidence(FANO_LINES, 2), eye)
    not_over_gf9 = [
        [[1, 0], [0, 1]], eye[:2], [[1, 0, 0], [0, 1], [0, 0, 1]], "eye", eye * 1.0,
        [[1, 0, 0], [0, 1, 0], [0, 0, 9]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
    ]
    for bad in not_over_gf9:
        with pytest.raises(GeometryError, match="3x3"):
            collineation(pg9, bad)
    for frob in (-1, 2, 1.0):
        with pytest.raises(GeometryError, match="frob"):
            collineation(pg9, eye, frob)
    rng = random.Random(9)
    singular = 0
    for _ in range(300):  # singular exactly when the determinant vanishes
        a = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        if _det(pg9.field, a):
            collineation(pg9, a)
        else:
            singular += 1
            with pytest.raises(GeometryError, match="singular"):
                collineation(pg9, a)
    assert singular > 0


def test_baer_orbit_under_two_random_collineations(pg9):
    rng = random.Random(5)
    gens = [collineation(pg9, _random_matrix(pg9.field, rng)) for _ in range(2)]
    start = baer_subfield_subplane(pg9).points
    orbit, frontier = {start}, [start]
    while frontier:
        pts = np.array(frontier.pop())
        for g in gens:
            image = tuple(sorted(g[pts].tolist()))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    assert len(orbit) == 7560  # |PGL(3,9)| / |PGL(3,3)|
    assert all(subplane_result_from_points(pg9, frozenset(s), 3) is not None for s in orbit)


# the first monic cubic x^3 + c2 x^2 + c1 x + c0, by (c2, c1, c0), whose
# companion matrix is a Singer cycle (found by the scan; pinned here)
SINGER_CUBICS = {4: (1, 1, 2), 9: (0, 1, 4), 16: (0, 1, 9), 25: (0, 1, 6), 49: (0, 1, 15), 64: (0, 1, 6)}
SQUARE_FIELDS = {4: (2, 2), 9: (3, 2), 16: (2, 4), 25: (5, 2), 49: (7, 2), 64: (2, 6)}


@pytest.mark.parametrize("q", sorted(SINGER_CUBICS))
def test_singer_cycle_is_one_n_cycle_that_maps_lines_onto_lines(q):
    plane = pg2(field_new(*SQUARE_FIELDS[q]))
    f, N = plane.field, plane.npoints
    g = singer_cycle(plane)
    c2, c1, c0 = SINGER_CUBICS[q]
    companion = [[0, 0, f.neg(c0)], [1, 0, f.neg(c1)], [0, 1, f.neg(c2)]]
    assert np.array_equal(g, collineation(plane, companion))
    perm, x, seen = g.tolist(), 0, []
    for _ in range(N):
        seen.append(x)
        x = perm[x]
    assert x == 0 and sorted(seen) == list(range(N))  # one cycle through all N points
    images = {tuple(sorted(perm[pt] for pt in line)) for line in plane.lines}
    assert images == set(plane.lines)


@pytest.mark.parametrize("q", [9, 25, 49])
def test_baer_partition_members_are_disjoint_subplanes_covering_the_plane(q):
    plane = pg2(field_new(*SQUARE_FIELDS[q]))
    m = plane.field.p
    members = baer_partition(plane)
    assert len(members) == m * m - m + 1
    for sub in members:
        assert sub.order == m and len(sub.points) == m * m + m + 1
        check_subplane(plane, sub)
    points = [x for sub in members for x in sub.points]
    assert sorted(points) == list(range(plane.npoints))  # disjoint, and covering
    firsts = [sub.points[0] for sub in members]
    assert firsts == sorted(firsts) and firsts[0] == 0


def test_singer_cycle_and_baer_partition_refusals(pg9):
    ingested = plane_from_text(plane_to_text(pg9))
    for fn in (singer_cycle, baer_partition):
        with pytest.raises(NotGeneratedError):
            fn(ingested)
    for p, h in ((5, 1), (2, 3), (3, 3)):
        with pytest.raises(NotSquareOrderError):
            baer_partition(pg2(field_new(p, h)))


def test_baer_partition_raises_on_a_member_that_fails_validation(pg9, monkeypatch):
    monkeypatch.setattr(geometry, "subplane_result_from_points", lambda plane, pts, m: None)
    with pytest.raises(GeometryError, match="not a Baer subplane"):
        baer_partition(pg9)
