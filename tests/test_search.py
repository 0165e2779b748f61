import hashlib
import inspect
import os
import sys

import pytest

from planecode import search
from planecode.antipodal import (
    AntipodalError,
    antipodal_from_pg24,
    cyclic_antipodal,
    find_good_triangle,
    isomorphism,
    mobius_kantor_pls,
    PartialLinearSpace,
    validate_antipodal,
)
import numpy as np

from planecode.field import field_new
from planecode.geometry import (
    GeometryError,
    NotGeneratedError,
    baer_partition,
    baer_subfield_subplane,
    collineation,
    fundamental_triangle,
    plane_from_incidence,
    pg2,
    singer_cycle,
)
from planecode.search import (
    Embedding,
    NoQuadrangleError,
    SearchError,
    embed_search,
    normalize_frame,
    slope_certificate,
    verify_embedding,
)

MK = cyclic_antipodal(2)
AP3 = cyclic_antipodal(3)


def plane_of(q):
    return pg2(
        {2: field_new(2), 3: field_new(3), 4: field_new(2, 2), 5: field_new(5),
         7: field_new(7), 8: field_new(2, 3), 9: field_new(3, 2),
         11: field_new(11), 13: field_new(13), 16: field_new(2, 4)}[q]
    )


def ingested(plane):
    """The same plane read from its incidence rows: same indices, no field,
    so the search on it is the plain one."""
    return plane_from_incidence(plane.lines, plane.order)


def relabelled(plane, seed):
    """The plane's lines as a partial linear space, its points permuted by a
    seeded draw."""
    perm = np.random.default_rng(seed).permutation(plane.npoints)
    return PartialLinearSpace(plane.npoints, [[int(perm[x]) for x in l] for l in plane.lines])


def test_normalize_frame_mk_matches_hand_derived_seed():
    # triples {0,1,3}-style collinearities single out (P1, P2, P3, P6)
    assert normalize_frame(MK) == (0, 1, 2, 5)


def test_normalize_frame_order3_exists():
    seed = normalize_frame(AP3)
    assert len(set(seed)) == 4


def test_normalize_frame_single_line_fails():
    pls = PartialLinearSpace(3, [(0, 1, 2)])
    with pytest.raises(NoQuadrangleError):
        normalize_frame(pls)


def test_pls_target_default_is_plain_search():
    out = embed_search(MK, MK, cap=100)
    assert out.status == "found"
    assert len(out.embeddings) == 48  # the automorphisms of the Moebius-Kantor configuration
    assert out.stats.nodes == 592
    assert MK.source == "abstract"


def test_mk_embeds_in_pg27():
    out = embed_search(MK, plane_of(7))
    assert out.status == "found"
    emb = out.embeddings[0]
    assert verify_embedding(MK, plane_of(7), emb)[0]


def test_mk_does_not_embed_in_pg25():
    out = embed_search(MK, plane_of(5))
    assert out.status == "exhausted-none"
    assert out.embeddings == []


def test_order3_embeds_in_pg24():
    out = embed_search(AP3, plane_of(4))
    assert out.status == "found"
    assert verify_embedding(AP3, plane_of(4), out.embeddings[0])[0]


def test_order3_does_not_embed_in_pg29():
    out = embed_search(AP3, plane_of(9))
    assert out.status == "exhausted-none"


def test_order3_embeds_in_pg216_with_subfield_coordinates():
    plane = plane_of(16)
    out = embed_search(AP3, plane)
    assert out.status == "found"
    f = plane.field
    emb = out.embeddings[0]
    # all image coordinates lie in the GF(4) subfield, the roots of x^4 = x
    gf4 = {x for x in range(f.q) if f.mul(f.mul(x, x), f.mul(x, x)) == x}
    assert len(gf4) == 4
    for p in emb.point_map:
        assert set(plane.coords[p]) <= gf4


def test_budget_exceeded_is_not_mislabeled():
    out = embed_search(MK, plane_of(5), budget=10)
    assert out.status == "budget-exceeded"
    assert out.embeddings == []


def test_plain_search_counts_are_pinned():
    # every embedding of MK into PG(2,3), with the engine's work counted
    out = embed_search(MK, ingested(plane_of(3)), cap=10**6)
    assert out.status == "found"
    assert len(out.embeddings) == 5616
    assert out.stats.nodes == 31681
    assert out.stats.prunes == {"incidence": 0, "non_incidence": 5928}
    out = embed_search(AP3, ingested(plane_of(5)), budget=100_000)
    assert out.status == "budget-exceeded"
    assert out.embeddings == []
    assert out.stats.nodes == 100_001
    assert out.stats.prunes == {"incidence": 20248, "non_incidence": 10808}


def test_the_engine_offers_unused_points_and_forces_distinct_line_images(monkeypatch):
    # the engine tests neither injectivity: every offered image must be
    # unused, and the determined line images must stay pairwise distinct
    real = search._Searcher.assign
    offered = []

    def checked(self, d, v):
        assert not self.used[v], (d, v)
        offered.append(v)
        ok = real(self, d, v)
        if ok:
            images = [l for l in self.lmap if l >= 0]
            assert len(set(images)) == len(images), images
        return ok

    monkeypatch.setattr(search._Searcher, "assign", checked)

    def run(pls, target, **kwargs):
        before = len(offered)
        out = embed_search(pls, target, **kwargs)
        assert len(offered) - before == out.stats.nodes  # each node went through the oracle
        return out

    out = run(MK, ingested(plane_of(3)), cap=10**6)
    assert (len(out.embeddings), out.stats.nodes) == (5616, 31681)
    assert run(AP3, ingested(plane_of(5)), budget=100_000).status == "budget-exceeded"
    out = run(AP3, plane_of(4), cap=10**6)  # the frame pinned
    assert (len(out.embeddings), out.stats.nodes) == (2, 21)
    before = len(offered)
    assert isomorphism(antipodal_from_pg24(), AP3) is not None  # a pls target
    assert len(offered) - before == 34
    pg9 = plane_of(9)
    first = run(MK, pg9).embeddings[0]
    out = run(MK, pg9, cap=200, exclude=frozenset(first.point_map))
    assert len(out.embeddings) == 200
    assert not set(first.point_map) & {v for e in out.embeddings for v in e.point_map}


def test_a_source_deeper_than_the_recursion_limit_is_searched():
    # one stack frame per placed point would need 73 here: the engine keeps
    # its own stack, so 40 frames above the caller are enough
    plane = plane_of(8)
    source = relabelled(plane, 8)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        out = embed_search(source, plane)
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == "found" and out.stats.nodes == 73
    assert verify_embedding(source, plane, out.embeddings[0])[0]


def test_a_relabelled_pg216_is_searched_as_pinned():
    # a 273-point source: its counts and its first embedding are pinned whole
    plane = plane_of(16)
    out = embed_search(relabelled(plane, 16), plane)
    assert out.status == "found" and out.stats.nodes == 332
    assert out.stats.prunes == {"incidence": 5, "non_incidence": 2}
    emb = out.embeddings[0]
    assert emb.point_map[:10] == (17, 1, 0, 34, 106, 26, 226, 155, 248, 180)
    assert emb.line_map[:10] == (191, 193, 123, 270, 15, 56, 133, 39, 176, 25)
    digest = hashlib.sha256(repr((emb.point_map, emb.line_map)).encode()).hexdigest()
    assert digest == "b5bcfc1385a575e1caf6e1f1e0e41757b3f15036b77bb7a33b587bdaf922d5f5"


def scanned_plan(pls, pinned):
    """The reference for search._placement_plan: the engine's former scan of
    every unplaced point at every node.  It takes the first unplaced pinned
    point, else the most lines with two placed points, then the most with
    one, the least index on a tie.  A depth forces the lines its point is
    the second placed point of, each with the first."""
    placed = [0] * len(pls.lines)
    done = [False] * pls.n_points
    plan = []
    for _ in range(pls.n_points):
        p = next((x for x in pinned if not done[x]), None)
        if p is None:
            best_score = (-1, -1)
            for x in range(pls.n_points):
                if done[x]:
                    continue
                ndet = sum(placed[li] >= 2 for li in pls.point_lines[x])
                nhalf = sum(placed[li] == 1 for li in pls.point_lines[x])
                if (ndet, nhalf) > best_score:
                    p, best_score = x, (ndet, nhalf)
        done[p] = True
        forced = []
        for li in pls.point_lines[p]:
            placed[li] += 1
            if placed[li] == 2:
                forced.append((li, next(x for x in pls.lines[li] if done[x] and x != p)))
        plan.append((p, tuple(forced)))
    return plan


PLAN_SOURCES = {
    "mk": MK,
    "ap3": AP3,
    "pg24-complement": antipodal_from_pg24(),
    **{f"pg{m}": PartialLinearSpace(plane_of(m).npoints, plane_of(m).lines) for m in (2, 3, 4)},
    "pg8-relabelled": relabelled(plane_of(8), 8),
}


@pytest.mark.parametrize("pin", [True, False], ids=["pinned", "unpinned"])
@pytest.mark.parametrize("name", PLAN_SOURCES)
def test_the_placement_plan_matches_the_per_node_scan(name, pin):
    pls = PLAN_SOURCES[name]
    # embed_search pins normalize_frame's seed, in its order, to a frame;
    # the plan reads only the pinned points, not their images
    pinned = dict(zip(normalize_frame(pls), (0, 1, 2, 3))) if pin else {}
    assert search._placement_plan(pls, pinned) == scanned_plan(pls, pinned)


def test_search_determinism():
    a = embed_search(MK, plane_of(7), cap=2)
    b = embed_search(MK, plane_of(7), cap=2)
    assert a.status == b.status
    assert a.embeddings == b.embeddings


def test_verify_fano_subplane_identity_embedding():
    # A Fano subplane of PG(2,4), taken as an abstract structure, embeds via
    # the identity: ambient extended lines meet the subplane in exactly its
    # own lines, so non-incidence survives even though those lines carry two
    # further ambient points each.
    plane = plane_of(4)
    sub = baer_subfield_subplane(plane)
    local = {p: i for i, p in enumerate(sub.points)}
    lines = [
        tuple(sorted(local[p] for p in frozenset(plane.lines[l]) & set(sub.points)))
        for l in sub.lines
    ]
    pls = PartialLinearSpace(7, lines)
    emb = Embedding(tuple(sub.points), tuple(sub.lines))
    ok, witness = verify_embedding(pls, plane, emb)
    assert ok, witness


def test_verify_mk_configuration_in_ambient_plane():
    plane = plane_of(7)
    pls, ambient = mobius_kantor_pls(plane)
    line_map = [
        plane.line_through(ambient[l[0]], ambient[l[1]]) for l in pls.lines
    ]
    ok, witness = verify_embedding(pls, plane, Embedding(ambient, tuple(line_map)))
    assert ok, witness


def test_verify_rejects_non_injective_point_map():
    plane = plane_of(7)
    pls, ambient = mobius_kantor_pls(plane)
    bad = list(ambient)
    bad[1] = bad[0]
    line_map = [plane.line_through(ambient[l[0]], ambient[l[1]]) for l in pls.lines]
    ok, witness = verify_embedding(pls, plane, Embedding(tuple(bad), tuple(line_map)))
    assert not ok
    assert witness[0] == "point-injectivity"


# Cross-validation of the frame-normalization argument: with and without
# frame fixing the searches must agree on existence.  The none-cells below
# exhaust trees of ~10^6..10^8 nodes in pure Python; the worst ones (about
# 10 minutes to 1.5 hours each) only run when PLANECODE_XVAL_FULL=1.
XVAL_CELLS = [
    (MK, 3), (MK, 4), (MK, 5), (MK, 7), (MK, 9), (AP3, 4), (AP3, 5),
]
XVAL_SLOW_CELLS = [(MK, 8), (AP3, 7), (AP3, 8), (AP3, 9)]
if os.environ.get("PLANECODE_XVAL_FULL"):
    XVAL_CELLS = XVAL_CELLS + XVAL_SLOW_CELLS


@pytest.mark.slow
@pytest.mark.parametrize(
    "pls,q", XVAL_CELLS,
    ids=[f"{'mk' if s is MK else 'ap3'}-q{q}" for s, q in XVAL_CELLS],
)
def test_normalized_and_plain_search_agree(pls, q):
    plane = plane_of(q)
    norm = embed_search(pls, plane)
    plain = embed_search(pls, ingested(plane), budget=10**10)
    assert norm.status in ("found", "exhausted-none")
    assert plain.status in ("found", "exhausted-none")
    assert (norm.status == "found") == (plain.status == "found")


def test_slope_certificate_order3_in_pg24():
    plane = plane_of(4)
    out = embed_search(AP3, plane)
    ap = validate_antipodal(AP3)
    cert = slope_certificate(ap, plane, out.embeddings[0])
    assert cert.holds
    assert cert.product == plane.field.neg(1)


def test_slope_certificate_records_its_triangle_and_transversal():
    plane = plane_of(4)
    ap = validate_antipodal(AP3)
    cert = slope_certificate(ap, plane, embed_search(AP3, plane).embeddings[0])
    assert cert.triangle == find_good_triangle(ap)
    k = set(cert.triangle) | {ap.perp_point[v] for v in cert.triangle}
    avoiding = [i for i, l in enumerate(AP3.line_sets) if not l & k]
    assert cert.transversal == avoiding[0]


def test_slope_certificate_needs_a_good_triangle():
    # an order-2 antipodal plane has no good triangle
    plane = plane_of(7)
    out = embed_search(MK, plane)
    ap = validate_antipodal(MK)
    with pytest.raises(AntipodalError, match="good triangle"):
        slope_certificate(ap, plane, out.embeddings[0])


def test_mk_has_no_valid_transversal():
    # order 2: the triangle, its antipodes and the side points exhaust the
    # configuration, so no structure line avoids them
    plane = plane_of(7)
    out = embed_search(MK, plane)
    ap = validate_antipodal(MK)
    triangles = [
        (a, b, c)
        for a in range(8) for b in range(a + 1, 8) for c in range(b + 1, 8)
    ]
    from planecode.antipodal import is_good_triangle

    assert not any(is_good_triangle(ap, *t) for t in triangles)


def test_slope_certificate_verifies_the_embedding_first():
    plane = plane_of(4)
    ap = validate_antipodal(AP3)
    emb = embed_search(AP3, plane).embeddings[0]
    reversed_points = Embedding(emb.point_map[::-1], emb.line_map)
    with pytest.raises(SearchError, match="witness .'incidence'"):
        slope_certificate(ap, plane, reversed_points)
    with pytest.raises(SearchError, match="witness .'shape', 3"):
        slope_certificate(ap, plane, Embedding(emb.point_map[:3], emb.line_map))
    for bad in (plane.npoints, -1):  # -1 would alias the last line
        line_map = (bad,) + emb.line_map[1:]
        with pytest.raises(SearchError, match=f"witness .'line-range', {bad}"):
            slope_certificate(ap, plane, Embedding(emb.point_map, line_map))
        point_map = emb.point_map[:-1] + (bad,)
        with pytest.raises(SearchError, match=f"witness .'point-range', {bad}"):
            slope_certificate(ap, plane, Embedding(point_map, emb.line_map))


def _moved(plane, emb, g):
    """The embedding followed by the point permutation g of a collineation;
    a line's image is the join of the images of two of its points."""
    lines = tuple(int(plane.pair_line()[g[plane.lines[l][0]], g[plane.lines[l][1]]])
                  for l in emb.line_map)
    return Embedding(tuple(int(g[v]) for v in emb.point_map), lines)


@pytest.mark.parametrize("pls,q", [(MK, 9), (AP3, 4), (AP3, 16)])
def test_collineations_move_a_frame_embedding_to_embeddings(pls, q):
    plane = plane_of(q)
    f = plane.field
    emb = embed_search(pls, plane).embeddings[0]
    rng = np.random.default_rng(q)
    moved = 0
    while moved < 5:
        a = rng.integers(0, f.q, size=(3, 3))
        try:
            g = collineation(plane, a, int(rng.integers(f.h)))
        except GeometryError:  # a singular draw
            continue
        image = _moved(plane, emb, g)
        assert verify_embedding(pls, plane, image) == (True, None)
        if pls is AP3:
            assert slope_certificate(validate_antipodal(AP3), plane, image).holds
        moved += 1


PG4 = plane_of(4)
GENERATED_ONLY = {
    "point_index": lambda pl, emb: pl.point_index((1, 0, 0)),
    "collineation": lambda pl, emb: collineation(pl, np.eye(3, dtype=np.int64)),
    "baer_subfield_subplane": lambda pl, emb: baer_subfield_subplane(pl),
    "singer_cycle": lambda pl, emb: singer_cycle(pl),
    "baer_partition": lambda pl, emb: baer_partition(pl),
    "fundamental_triangle": lambda pl, emb: fundamental_triangle(pl),
    "mobius_kantor_pls": lambda pl, emb: mobius_kantor_pls(pl),
    "slope_certificate": lambda pl, emb: slope_certificate(validate_antipodal(AP3), pl, emb),
}


@pytest.mark.parametrize("name", GENERATED_ONLY)
def test_generated_only_entry_points_refuse_an_ingested_plane(name):
    # each works on PG(2,4) itself; its ingested copy has the same incidences
    emb = embed_search(AP3, PG4).embeddings[0]
    GENERATED_ONLY[name](PG4, emb)
    with pytest.raises(NotGeneratedError, match=f"{name} needs a generated plane"):
        GENERATED_ONLY[name](ingested(PG4), emb)


@pytest.mark.parametrize("cap", [0, -5])
def test_embed_search_needs_a_positive_cap(cap):
    with pytest.raises(SearchError, match="cap"):
        embed_search(MK, plane_of(3), cap=cap)


@pytest.mark.parametrize("exclude", [{99999}, {-3}, {0, 13}])
def test_embed_search_refuses_excluded_points_outside_the_plane(exclude):
    with pytest.raises(SearchError, match="excluded"):
        embed_search(MK, plane_of(3), exclude=frozenset(exclude))
    with pytest.raises(SearchError, match="excluded"):
        embed_search(MK, MK, exclude=frozenset(exclude))
