import pytest

from planecode.field import field_new
from planecode.geometry import (
    AxiomViolationError,
    BadShapeError,
    NotSquareOrderError,
    NotThroughVertexError,
    SameLineError,
    SamePointError,
    TriangleSideError,
    baer_subfield_subplane,
    ceva_product,
    check_subplane,
    fundamental_triangle,
    menelaos_product,
    pg2,
    plane_from_incidence,
    slope,
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


def test_line_through_symmetric_on_fano():
    plane = pg2(field_new(2))
    for p in range(7):
        for q in range(p + 1, 7):
            l = plane.line_through(p, q)
            assert l == plane.line_through(q, p)
            assert p in plane.line_sets[l] and q in plane.line_sets[l]
    with pytest.raises(SamePointError):
        plane.line_through(3, 3)


def test_meet_lies_on_both_lines(pg4):
    for l in range(0, 21, 5):
        for m in range(l + 1, 21, 3):
            x = pg4.meet(l, m)
            assert x in pg4.line_sets[l] and x in pg4.line_sets[m]
    with pytest.raises(SameLineError):
        pg4.meet(2, 2)


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
        if a1 not in pg9.line_sets[l]
    )
    with pytest.raises(NotThroughVertexError):
        slope(pg9, 1, off)


def _triangle_free_lines(plane):
    a1, a2, a3 = fundamental_triangle(plane)
    tri = {a1, a2, a3}
    return [l for l in range(plane.npoints) if not (tri & plane.line_sets[l])]


def _off_side_points(plane):
    a1, a2, a3 = fundamental_triangle(plane)
    sides = (
        plane.line_sets[plane.line_through(a2, a3)]
        | plane.line_sets[plane.line_through(a1, a3)]
        | plane.line_sets[plane.line_through(a1, a2)]
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
        s1 = plane.line_sets[l1]
        for l2 in range(l1 + 1, plane.npoints):
            assert len(s1 & plane.line_sets[l2]) == 1


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
