import time

import numpy as np
import pytest

from planecode.antipodal import cyclic_antipodal
from planecode.codes import is_dual_word
from planecode.construct import (
    ConstructError,
    LineIndexError,
    NotDisjointError,
    NotSecantError,
    NotVerifiedEmbeddingError,
    RecipeCheckError,
    SameLineError,
    _set_diff,
    antipodal_diff,
    baer_diff,
    disjoint_baer_pair,
    line_diff,
    subplane_diff,
)
from planecode.field import field_new
from planecode.formats import plane_from_text, plane_to_text
from planecode.geometry import (
    NotGeneratedError,
    NotSquareOrderError,
    baer_partition,
    baer_subfield_subplane,
    pg2,
    subplane_result_from_points,
)
from planecode.search import Embedding, embed_search


@pytest.fixture(scope="module")
def pg9():
    return pg2(field_new(3, 2))


@pytest.fixture(scope="module")
def pg25():
    return pg2(field_new(5, 2))


def test_line_diff_weights(pg9, pg25):
    assert line_diff(pg9, 0, 1).weight == 18
    assert line_diff(pg25, 0, 1).weight == 50
    pg4 = pg2(field_new(2, 2))
    w = line_diff(pg4, 2, 17)
    assert w.weight == 8  # attains the 2q upper bound, above q+p=6
    assert is_dual_word(w, pg4)[0]


def test_line_diff_same_line(pg9):
    with pytest.raises(SameLineError):
        line_diff(pg9, 4, 4)


def test_line_indices_outside_the_plane_are_refused(pg9):
    sub = baer_subfield_subplane(pg9)
    for l1, l2 in ((-1, 0), (0, 91), (91, 91), (-91, 5)):
        with pytest.raises(LineIndexError, match=r"outside 0\.\.90"):
            line_diff(pg9, l1, l2)
    for secant in (-1, 91, 999):
        with pytest.raises(LineIndexError):
            baer_diff(pg9, sub, secant=secant)
    assert issubclass(LineIndexError, ConstructError)


def test_recipe_guards_raise_without_asserts(pg9, monkeypatch):
    """The duality guards are explicit raises, so they survive python -O."""
    import planecode.construct as construct

    monkeypatch.setattr(construct, "is_dual_word", lambda w, plane: (False, 7))
    with pytest.raises(RecipeCheckError, match="line 7"):
        line_diff(pg9, 0, 1)
    with pytest.raises(RecipeCheckError, match="line 7"):
        baer_diff(pg9, baer_subfield_subplane(pg9))


def test_line_diff_weight_guard_raises(pg9, monkeypatch):
    import planecode.construct as construct

    monkeypatch.setattr(construct, "word_diff", lambda a, b: a)
    with pytest.raises(RecipeCheckError, match="weight"):
        line_diff(pg9, 0, 1)


def test_line_diff_normalized_leading_symbol(pg9):
    w = line_diff(pg9, 5, 3)
    assert int(w.values[w.support[0]]) == 1
    raw = _set_diff(pg9, pg9.lines[5], pg9.lines[3])
    assert raw.weight == w.weight
    assert w == raw.scale(pow(int(raw.values[raw.support[0]]), -1, 3))


def test_baer_diff_pg9(pg9):
    sub = baer_subfield_subplane(pg9)
    w = baer_diff(pg9, sub)
    assert w.weight == 15  # 2p^2 - p for p = 3
    assert is_dual_word(w, pg9)[0]
    sizes = sorted(np.unique(w.values[w.support], return_counts=True)[1].tolist())
    assert sizes == [6, 9]  # p^2 - p and p^2


def test_baer_diff_pg4_weight():
    pg4 = pg2(field_new(2, 2))
    w = baer_diff(pg4, baer_subfield_subplane(pg4))
    assert w.weight == 6  # 2p^2 - p for p = 2
    assert is_dual_word(w, pg4)[0]


def test_baer_diff_pg25(pg25):
    sub = baer_subfield_subplane(pg25)
    w = baer_diff(pg25, sub)
    assert w.weight == 45
    assert is_dual_word(w, pg25)[0]
    sizes = sorted(np.unique(w.values[w.support], return_counts=True)[1].tolist())
    assert sizes == [20, 25]


def test_baer_diff_secant_choice_and_error(pg9):
    sub = baer_subfield_subplane(pg9)
    w0 = baer_diff(pg9, sub)
    w1 = baer_diff(pg9, sub, secant=sub.lines[1])
    assert w0 != w1 and w0.weight == w1.weight == 15
    non_secant = next(l for l in range(pg9.npoints) if l not in set(sub.lines))
    with pytest.raises(NotSecantError):
        baer_diff(pg9, sub, secant=non_secant)


def test_subplane_diff_disjoint_baer_pair(pg9):
    s1, s2 = disjoint_baer_pair(pg9)
    assert (s1, s2) == tuple(baer_partition(pg9)[:2])
    assert s1.points == (0, 22, 23, 24, 37, 42, 44, 56, 60, 61, 75, 78, 81)
    assert s2.points == (1, 3, 5, 8, 17, 21, 31, 39, 49, 62, 67, 80, 84)
    assert not set(s1.points) & set(s2.points)
    w, dual = subplane_diff(pg9, s1, s2)
    assert w.weight == 26
    # two Baer subplanes meet every line in 1 mod p points, so the
    # difference is always orthogonal to every line
    assert dual


@pytest.mark.parametrize("p,h,weight", [(2, 2, 14), (2, 4, 42)])
def test_disjoint_baer_pair_at_non_prime_baer_order(p, h, weight):
    # PG(2,4) and PG(2,16) (Baer order 2 and 4): the Singer partition has
    # members at every square order, prime Baer order or not
    plane = pg2(field_new(p, h))
    s1, s2 = disjoint_baer_pair(plane)
    assert not set(s1.points) & set(s2.points)
    w, dual = subplane_diff(plane, s1, s2)
    assert dual and w.weight == weight == 2 * (s1.order**2 + s1.order + 1)


def test_disjoint_baer_pair_pg25_is_fast(pg25):
    t0 = time.perf_counter()
    s1, s2 = disjoint_baer_pair(pg25)
    assert time.perf_counter() - t0 < 1.0
    for sub in (s1, s2):
        assert subplane_result_from_points(pg25, frozenset(sub.points), sub.order) == sub
    assert not set(s1.points) & set(s2.points)


def test_disjoint_baer_pair_refusals(pg9):
    with pytest.raises(NotGeneratedError):
        disjoint_baer_pair(plane_from_text(plane_to_text(pg9)))
    for p, h in ((5, 1), (2, 3), (3, 3)):
        with pytest.raises(NotSquareOrderError):
            disjoint_baer_pair(pg2(field_new(p, h)))


def test_subplane_diff_rejects_overlap(pg9):
    sub = baer_subfield_subplane(pg9)
    with pytest.raises(NotDisjointError):
        subplane_diff(pg9, sub, sub)


def test_antipodal_diff_weight16_experiment(pg9):
    mk = cyclic_antipodal(2)
    first = embed_search(mk, pg9).embeddings[0]
    second = embed_search(
        mk, pg9, exclude=frozenset(first.point_map)
    ).embeddings[0]
    w, dual = antipodal_diff(pg9, (mk, first), (mk, second))
    assert w.weight == 16  # 2p^2 - 2p + 4 for p = 3
    assert dual == is_dual_word(w, pg9)[0]
    assert not dual  # so criterion 10 has no antipodal word to analyse at q=9


def test_antipodal_diff_rejects_overlapping_images(pg9):
    mk = cyclic_antipodal(2)
    emb = embed_search(mk, pg9).embeddings[0]
    with pytest.raises(NotDisjointError):
        antipodal_diff(pg9, (mk, emb), (mk, emb))


def test_antipodal_diff_rejects_unverified(pg9):
    mk = cyclic_antipodal(2)
    emb = embed_search(mk, pg9).embeddings[0]
    broken = Embedding(tuple([emb.point_map[0]] * 8), emb.line_map)
    with pytest.raises(NotVerifiedEmbeddingError):
        antipodal_diff(pg9, (mk, broken), (mk, emb))
