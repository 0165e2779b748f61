import functools
import random

import pytest

import planecode.search as search
from planecode.antipodal import (
    AntipodalError,
    NotAntipodalError,
    NotARootError,
    PartialLinearSpace,
    PLSError,
    UnsupportedOrderError,
    antipodal_from_pg24,
    cyclic_antipodal,
    find_good_triangle,
    is_good_triangle,
    isomorphism,
    mobius_kantor_pls,
    mobius_kantor_points,
    validate_antipodal,
)
from planecode.field import field_new
from planecode.geometry import pg2

FANO_LINES = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
]


def test_pls_rejects_two_lines_through_a_pair():
    with pytest.raises(PLSError):
        PartialLinearSpace(4, [(0, 1, 2), (0, 1, 3)])


def test_cyclic_order2_validates():
    pls = cyclic_antipodal(2)
    assert pls.n_points == 8
    assert all(len(l) == 3 for l in pls.lines)
    ap = validate_antipodal(pls)
    assert ap.order == 2


def test_cyclic_order3_validates():
    pls = cyclic_antipodal(3)
    assert pls.n_points == 14
    assert all(len(l) == 4 for l in pls.lines)
    ap = validate_antipodal(pls)
    assert ap.order == 3


def test_cyclic_order4_unsupported():
    with pytest.raises(UnsupportedOrderError):
        cyclic_antipodal(4)


def test_fano_is_not_antipodal():
    with pytest.raises(NotAntipodalError):
        validate_antipodal(PartialLinearSpace(7, FANO_LINES))


@pytest.mark.parametrize("order", [2, 3])
def test_perp_involutions_and_line_perp(order):
    ap = validate_antipodal(cyclic_antipodal(order))
    pls = ap.pls
    for p in range(pls.n_points):
        assert ap.perp_point[ap.perp_point[p]] == p
        assert not pls.collinear(p, ap.perp_point[p])
    for i, l in enumerate(pls.lines):
        j = ap.perp_line[i]
        assert ap.perp_line[j] == i
        assert not (pls.line_sets[i] & pls.line_sets[j])
        assert frozenset(ap.perp_point[p] for p in l) == pls.line_sets[j]


def test_point_degree_counts():
    for order in (2, 3):
        ap = validate_antipodal(cyclic_antipodal(order))
        for ls in ap.pls.point_lines:
            assert len(ls) == order + 1


def test_antipodal_from_pg24_counts_and_validation():
    pls = antipodal_from_pg24()
    assert pls.n_points == 14
    assert len(pls.lines) == 14
    assert all(len(l) == 4 for l in pls.lines)
    ap = validate_antipodal(pls)
    assert ap.order == 3


def test_pg24_complement_isomorphic_to_cyclic():
    a = antipodal_from_pg24()
    b = cyclic_antipodal(3)
    mapping = isomorphism(a, b)
    assert mapping is not None
    mapped = sorted(tuple(sorted(mapping[p] for p in l)) for l in a.lines)
    assert mapped == sorted(b.lines)


def test_isomorphism_search_counts_are_pinned():
    # a partial linear space as the target: two placed images may have no
    # join, or a forced line image may miss a later point of its source
    # line; both count as incidence prunes
    out = search.embed_search(antipodal_from_pg24(), cyclic_antipodal(3))
    assert out.status == "found"
    assert out.stats.nodes == 34
    assert out.stats.prunes == {"incidence": 10, "non_incidence": 0}


def test_isomorphism_rejects_different_structures():
    assert isomorphism(cyclic_antipodal(2), cyclic_antipodal(3)) is None


@pytest.mark.parametrize("order,automorphisms", [(2, 48), (3, 336)])
def test_isomorphism_engine_finds_every_automorphism(order, automorphisms):
    x = cyclic_antipodal(order)
    out = search.embed_search(x, x, cap=10**6)
    assert out.status == "found"
    assert len(out.embeddings) == automorphisms
    assert len({e.point_map for e in out.embeddings}) == automorphisms


def relabelled(pls, seed):
    rng = random.Random(seed)
    perm = list(range(pls.n_points))
    rng.shuffle(perm)
    lines = [tuple(perm[p] for p in l) for l in pls.lines]
    rng.shuffle(lines)
    return PartialLinearSpace(pls.n_points, lines)


# same point and line counts, line sizes and point degrees, not isomorphic:
# the cyclic 9_3 configuration and Pappus (AG(2,3) minus a parallel class),
# an 8-cycle and two 4-cycles
CYCLIC_9_3 = PartialLinearSpace(9, [tuple((b + s) % 9 for b in (0, 1, 3)) for s in range(9)])
PAPPUS = PartialLinearSpace(
    9, [tuple(3 * x + (k * x + c) % 3 for x in range(3)) for k in range(3) for c in range(3)]
)
CYCLE_8 = PartialLinearSpace(8, [(i, (i + 1) % 8) for i in range(8)])
TWO_CYCLES_4 = PartialLinearSpace(
    8, [(i, (i + 1) % 4) for i in range(4)] + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
)
MODELS = {"mk": cyclic_antipodal(2), "ap3": cyclic_antipodal(3), "pg24": antipodal_from_pg24()}
ORACLE_PAIRS = [
    pytest.param(x, relabelled(x, seed), id=f"{name}-relabel{seed}")
    for name, x in MODELS.items()
    for seed in range(3)
] + [
    pytest.param(MODELS["pg24"], MODELS["ap3"], id="pg24-ap3"),
    pytest.param(CYCLIC_9_3, PAPPUS, id="cyclic93-pappus"),
    pytest.param(CYCLE_8, TWO_CYCLES_4, id="c8-c4c4"),
    pytest.param(PAPPUS, relabelled(PAPPUS, 5), id="pappus-relabel5"),
    pytest.param(PartialLinearSpace(8, FANO_LINES + [(0, 7)]), MODELS["mk"], id="fano+line-mk"),
]


def levi_graph(pls):
    """Bipartite point-line incidence graph; the side attribute keeps
    points from being matched to lines."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from((("p", x) for x in range(pls.n_points)), side="point")
    g.add_nodes_from((("l", i) for i in range(len(pls.lines))), side="line")
    g.add_edges_from((("p", x), ("l", i)) for i, l in enumerate(pls.lines) for x in l)
    return g


@pytest.mark.parametrize("a,b", ORACLE_PAIRS)
def test_isomorphism_agrees_with_vf2_on_levi_graphs(a, b):
    nx = pytest.importorskip("networkx")
    expected = nx.is_isomorphic(
        levi_graph(a), levi_graph(b), node_match=lambda u, v: u["side"] == v["side"]
    )
    mapping = isomorphism(a, b)
    assert (mapping is not None) == expected
    if mapping is not None:
        assert sorted(mapping) == list(range(b.n_points))
        assert sorted(tuple(sorted(mapping[p] for p in l)) for l in a.lines) == sorted(b.lines)


def test_isomorphism_raises_when_the_budget_runs_out(monkeypatch):
    monkeypatch.setattr(
        search, "embed_search", functools.partial(search.embed_search, budget=3)
    )
    with pytest.raises(AntipodalError, match="budget"):
        isomorphism(antipodal_from_pg24(), cyclic_antipodal(3))


def test_mobius_kantor_gf7():
    f = field_new(7)
    pts = mobius_kantor_points(f)
    assert len(pts) == 8
    assert pts[4] == (0, 1, 3)  # the root 3 of x^2-x+1, the lesser of 3 and 5
    plane = pg2(f)
    pls, ambient = mobius_kantor_pls(plane)
    assert len(set(ambient)) == 8
    ap = validate_antipodal(pls)
    assert ap.order == 2


def test_mobius_kantor_matches_cyclic_model():
    # the listed point order realizes the circulant incidence matrix exactly
    for f in (field_new(7), field_new(2, 2), field_new(3)):
        plane = pg2(f)
        pls, _ = mobius_kantor_pls(plane)
        assert sorted(pls.lines) == sorted(cyclic_antipodal(2).lines)


def test_mobius_kantor_gf4_primitive_root():
    f = field_new(2, 2)
    roots = f.solve_monic_quadratic(f.neg(1), 1)
    assert set(roots) == {2, 3}  # the two elements outside GF(2)
    pls, _ = mobius_kantor_pls(pg2(f))
    assert validate_antipodal(pls).order == 2


def test_mobius_kantor_gf5_has_no_root():
    with pytest.raises(NotARootError):
        mobius_kantor_points(field_new(5))


def test_find_good_triangle_order3():
    ap = validate_antipodal(cyclic_antipodal(3))
    a, b, c = find_good_triangle(ap)
    assert is_good_triangle(ap, a, b, c)


def test_find_good_triangle_needs_order3():
    ap = validate_antipodal(cyclic_antipodal(2))
    with pytest.raises(AntipodalError):
        find_good_triangle(ap)


def test_is_good_triangle_rejects_invalid():
    ap = validate_antipodal(cyclic_antipodal(3))
    line = ap.pls.lines[0]
    assert not is_good_triangle(ap, line[0], line[1], line[2])


def reference_mobius_kantor_pls(plane):
    """The coordinate dict and the frozenset scan over all lines."""
    f = plane.field
    index = {c: i for i, c in enumerate(plane.coords)}

    def normalize(v):
        s = f.inv(next(x for x in v if x))
        return tuple(f.mul(s, x) for x in v)

    pts = [index[normalize(c)] for c in mobius_kantor_points(f)]
    local = {p: i for i, p in enumerate(pts)}
    lines = []
    for ls in map(frozenset, plane.lines):
        hit = ls & set(pts)
        if len(hit) >= 3:
            assert len(hit) == 3
            lines.append(tuple(sorted(local[p] for p in hit)))
    return PartialLinearSpace(8, lines), tuple(pts)


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2), (7, 1), (3, 2), (13, 1)])
def test_mobius_kantor_matches_reference(p, h):
    plane = pg2(field_new(p, h))
    pls, pts = mobius_kantor_pls(plane)
    want_pls, want_pts = reference_mobius_kantor_pls(plane)
    assert pts == want_pts
    assert pls.lines == want_pls.lines  # the same lines in the same order
