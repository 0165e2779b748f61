import numpy as np
import pytest

from planecode.analyze import (
    ColourGraph,
    NotDualWordError,
    StructureMismatchError,
    analyze,
    extract_antipodal,
    extract_baer,
)
from planecode.codes import CodeWord, code_of_plane, dual_basis, is_dual_word
from planecode.construct import baer_diff, line_diff
from planecode.field import field_new
from planecode.geometry import baer_subfield_subplane, pg2

PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.fixture(scope="module")
def pg9():
    return pg2(field_new(3, 2))


@pytest.fixture(scope="module")
def pg25():
    return pg2(field_new(5, 2))


def test_baer_word_analysis_pg9(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    a = analyze(w, pg9)
    assert a.weight == 15 and a.epsilon == 1 and a.in_band
    assert a.colours == {1: 6, 2: 9}  # small class gets colour 1
    assert a.classification == "baer"
    assert a.tangents == 0
    assert not a.failed()
    for name in ("summu", "clmod", "cmod", "2secants", "even_colours",
                 "boundmu", "gap_0_or_p", "secant_counts", "class_vs_2secants"):
        assert a.check(name).status == "pass", name
    assert a.check("colour_graph").status == "na"  # needs p >= 7


def test_baer_word_analysis_pg25(pg25):
    w = baer_diff(pg25, baer_subfield_subplane(pg25))
    a = analyze(w, pg25)
    assert a.weight == 45 and a.epsilon == 3 and a.in_band
    assert sorted(a.colours.values()) == [20, 25]
    assert a.classification == "baer"
    assert not a.failed()


def test_line_diff_out_of_band(pg9):
    a = analyze(line_diff(pg9, 0, 1), pg9)
    assert a.weight == 18
    assert a.epsilon == 4 and not a.in_band
    assert sorted(a.colours.values()) == [9, 9]
    assert a.classification == "two-colour-other"
    for name in ("summu", "clmod", "cmod", "no_tangents"):
        assert a.check(name).status == "pass"
    for name in ("2secants", "boundmu", "gap_0_or_p", "secant_counts"):
        assert a.check(name).status == "na"
    assert not a.failed()


def test_zero_word_override(pg9):
    a = analyze(CodeWord(3, np.zeros(91, dtype=np.int64)), pg9)
    assert a.weight == 0 and a.colours == {}
    assert a.classification == "none"
    assert not a.failed()


def test_non_dual_word_rejected_without_override(pg9):
    w = CodeWord(3, np.eye(91, dtype=np.int64)[0])
    with pytest.raises(NotDualWordError):
        analyze(w, pg9)
    a = analyze(w, pg9, override_non_dual=True)
    assert not a.dual
    assert a.classification == "none"
    assert a.check("clmod").status == "na"


def test_secant_profile_of_baer_word(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    a = analyze(w, pg9)
    vals = a.canonical.values[a.support]
    for i in range(a.support.size):
        if vals[i] == 2:  # the p^2 class: all other lines are 2-secants
            assert int(a.x[i]) == 6
        else:  # the secant-line class
            assert int(a.x[i]) == 9
    # every point sees one long secant or only 2/3-secants
    assert int(a.line_counts.max()) == 6  # the secant minus subplane points


def test_secant_profile_multiset(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    a = analyze(w, pg9)
    vals = a.canonical.values
    for pt in a.support.tolist():
        profile = a.secant_profile(pt, pg9)
        assert sum(profile.values()) == 10  # q+1 lines through every point
        if vals[pt] == 1:  # secant-line class: one long secant, rest 2-secants
            assert profile == {2: 9, 6: 1}
        else:  # subplane class: p+1 subplane secants of size 3
            assert profile == {2: 6, 3: 4}


def test_mu_values_baer_word(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    a = analyze(w, pg9)
    assert a.mu + a.mu_neg == 3 * 15
    assert a.mu % 3 == 0 and a.mu_neg % 3 == 0
    assert abs(a.mu - a.mu_neg) == a.epsilon * 3


def test_random_dual_words_pass_applicable_checks(pg9):
    rng = np.random.default_rng(7)
    dual = dual_basis(code_of_plane(pg9, 3))
    for _ in range(100):
        coeffs = rng.integers(0, 3, size=dual.dimension)
        w = CodeWord(3, (coeffs @ dual.generator) % 3)
        if w.weight == 0:
            continue
        a = analyze(w, pg9)
        assert not a.failed(), a.to_report()


def test_colour_graph_structure_exhaustive():
    for p in PRIMES_TO_31:
        g = ColourGraph(p)
        info = g.full_structure()
        assert len(info["components"]) == 1  # connected path
        assert info["loops"] == ((p + 1) // 2,)
        deg1 = [v for v, d in info["degrees"].items() if d == 1]
        assert deg1 == [1]


def test_colour_graph_induced_components():
    g = ColourGraph(7)
    assert g.components([1, 6]) == [(1, 6)]
    assert g.components([1, 6, 3, 4]) == [(1, 6), (3, 4)]
    assert g.components([1, 2, 5, 6]) == [(1, 2, 5, 6)]


@pytest.mark.parametrize("p,h", [(3, 2), (5, 2)])
def test_extract_baer_roundtrip(p, h):
    plane = pg2(field_new(p, h))
    sub = baer_subfield_subplane(plane)
    secant = sub.lines[2]
    w = baer_diff(plane, sub, secant=secant)
    got_sub, got_secant = extract_baer(w, plane)
    assert got_sub.points == sub.points
    assert got_secant == secant


def test_extract_baer_rejects_line_diff(pg9):
    with pytest.raises(StructureMismatchError):
        extract_baer(line_diff(pg9, 0, 1), pg9)


def test_extract_baer_scalar_invariance(pg9):
    sub = baer_subfield_subplane(pg9)
    w = baer_diff(pg9, sub).scale(2)
    got_sub, _ = extract_baer(w, pg9)
    assert got_sub.points == sub.points


def test_extract_antipodal_requires_classification(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    with pytest.raises(StructureMismatchError):
        extract_antipodal(w, pg9)


def test_extract_antipodal_open_experiment(pg9):
    # Whether two disjoint order-2 configurations in this plane can give a
    # dual word is open; run the canonical pair and take whichever branch
    # reality picks, never asserting duality.
    from planecode.antipodal import cyclic_antipodal
    from planecode.construct import antipodal_diff
    from planecode.search import embed_search

    mk = cyclic_antipodal(2)
    e1 = embed_search(mk, pg9).embeddings[0]
    e2 = embed_search(mk, pg9, exclude=frozenset(e1.point_map)).embeddings[0]
    w, dual = antipodal_diff(pg9, (mk, e1), (mk, e2))
    assert w.weight == 16
    if dual:
        (pts1, ap1), (pts2, ap2) = extract_antipodal(w, pg9)
        assert ap1.order == ap2.order == 2
        assert set(pts1) | set(pts2) == set(w.support.tolist())
    else:
        with pytest.raises(StructureMismatchError):
            extract_antipodal(w, pg9, override_non_dual=True)


def test_fuzz_no_false_positive_on_shuffled_words(pg9):
    # scramble a valid baer word's support; the result keeps the colour
    # sizes but is no longer dual, and must never classify or extract
    rng = np.random.default_rng(3)
    base = baer_diff(pg9, baer_subfield_subplane(pg9))
    for _ in range(20):
        perm = rng.permutation(91)
        w = CodeWord(3, base.values[perm])
        if is_dual_word(w, pg9)[0]:  # pragma: no cover - astronomically rare
            continue
        a = analyze(w, pg9, override_non_dual=True)
        assert a.classification == "none"
        with pytest.raises((StructureMismatchError, NotDualWordError)):
            extract_baer(w, pg9, override_non_dual=True)


def test_canonicalization_prefers_min_x_in_top_colour(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    for lam in (1, 2):
        a = analyze(w.scale(lam), pg9)
        assert a.colours == {1: 6, 2: 9}
        assert np.array_equal(a.canonical.values, analyze(w, pg9).canonical.values)


def test_extract_antipodal_class_scan_matches_reference(pg9, monkeypatch):
    # No dual antipodal word is known here, so force the classification of
    # two disjoint Mobius-Kantor configurations to run the class scans.
    import planecode.analyze as analyzer
    from planecode.antipodal import PartialLinearSpace, cyclic_antipodal
    from planecode.construct import antipodal_diff
    from planecode.search import embed_search

    monkeypatch.setattr(analyzer, "_classify", lambda a: "antipodal")
    mk = cyclic_antipodal(2)
    for e1 in embed_search(mk, pg9, cap=2).embeddings:
        e2 = embed_search(mk, pg9, exclude=frozenset(e1.point_map)).embeddings[0]
        w, _ = antipodal_diff(pg9, (mk, e1), (mk, e2))
        got = extract_antipodal(w, pg9, override_non_dual=True)
        c = analyze(w, pg9, override_non_dual=True).canonical
        for (pts, ap), lam in zip(got, (1, 2)):
            want = np.flatnonzero(c.values == lam).tolist()
            local = {x: i for i, x in enumerate(want)}
            lines = [
                tuple(sorted(local[x] for x in ls & set(want)))
                for ls in map(frozenset, pg9.lines)
                if len(ls & set(want)) == 3
            ]
            assert pts == tuple(want)
            assert ap.pls.lines == PartialLinearSpace(8, lines).lines
            assert ap.order == 2
