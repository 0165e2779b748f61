import dataclasses
import functools
import types
from collections import Counter

import numpy as np
import pytest

import planecode.acceptance as acceptance
import planecode.analyze as analyzer
from planecode.analyze import (
    CHECKLIST,
    FAIL,
    NA,
    PASS,
    CheckResult,
    ColourGraph,
    NotDualWordError,
    StructureMismatchError,
    analyze,
    extract_antipodal,
    extract_baer,
)
from planecode.codes import (
    CodesError,
    CodeWord,
    LengthMismatchError,
    code_of_plane,
    dual_basis,
    is_dual_word,
    line_sums,
)
from planecode.construct import _set_diff, baer_diff, line_diff
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


def secant_profile(a, point, plane):
    """The multiset {|line cap support|: count} over the lines through a
    support point; the 2/3/4-secant counts are its x/y/z entries."""
    sizes, freq = np.unique(a.line_counts[plane.point_lines_arr[point]], return_counts=True)
    return dict(zip(sizes.tolist(), freq.tolist()))


def test_secant_profile_multiset(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    a = analyze(w, pg9)
    vals = a.canonical.values
    for pt in a.support.tolist():
        profile = secant_profile(a, pt, pg9)
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
        with pytest.raises(NotDualWordError):
            extract_antipodal(w, pg9)


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
        with pytest.raises(NotDualWordError):
            extract_baer(w, pg9)


def test_canonicalization_prefers_min_x_in_top_colour(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    for lam in (1, 2):
        a = analyze(w.scale(lam), pg9)
        assert a.colours == {1: 6, 2: 9}
        assert np.array_equal(a.canonical.values, analyze(w, pg9).canonical.values)


def test_extract_antipodal_class_scan_matches_reference(pg9, monkeypatch):
    # No dual antipodal word is known here, so let the analyzer take the
    # non-dual difference of two disjoint Mobius-Kantor configurations and
    # force its classification, to run the class scans.
    import planecode.analyze as analyzer
    from planecode.antipodal import PartialLinearSpace, cyclic_antipodal
    from planecode.construct import antipodal_diff
    from planecode.search import embed_search

    monkeypatch.setattr(analyzer, "_classify", lambda a: "antipodal")
    monkeypatch.setattr(analyzer, "analyze", functools.partial(analyze, override_non_dual=True))
    mk = cyclic_antipodal(2)
    for e1 in embed_search(mk, pg9, cap=2).embeddings:
        e2 = embed_search(mk, pg9, exclude=frozenset(e1.point_map)).embeddings[0]
        w, _ = antipodal_diff(pg9, (mk, e1), (mk, e2))
        got = extract_antipodal(w, pg9)
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


# -- the checklist against the branch-per-check code it replaced ---------------
#
# The three functions below are the analyzer's canonical scaling and checks as
# they were written before the checklist table: one branch per check, each
# with its own na case.  They are kept verbatim as oracles.


def reference_canonicalize(word, x_counts, support):
    """Scale the word so colour 1 occurs; among those scalings prefer one
    where a point of K_{p-1} attains the minimal 2-secant count, then the
    lexicographically least value vector."""
    p = word.p
    if p == 2 or word.weight == 0:
        return word
    colours = sorted({int(v) for v in word.values[support]})
    if not x_counts.size:
        candidates = [word.scale(pow(c, p - 2, p)) for c in colours]
        return min(candidates, key=lambda w: tuple(w.values))
    xmin = int(x_counts.min())
    min_pts = support[x_counts == int(xmin)]
    best = None
    for c in colours:
        cand = word.scale(pow(c, p - 2, p))
        pref = bool((cand.values[min_pts] == p - 1).any())
        key = (not pref, tuple(cand.values))
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def reference_run_checks(a, plane):
    p = a.p
    checks = a.checks
    c = a.canonical
    eps = a.epsilon

    # (a) mu(c) + mu(-c) = p * weight: an identity for every vector
    checks.append(
        CheckResult(
            "summu",
            PASS if a.mu + a.mu_neg == p * a.weight else FAIL,
            f"{a.mu}+{a.mu_neg} vs p*w={p * a.weight}",
        )
    )

    if not a.dual or a.weight == 0:
        na = "non-dual word" if not a.dual else "zero word"
        for name in (
            "clmod", "cmod", "no_tangents", "2secants", "even_colours",
            "boundmu", "gap_0_or_p", "secant_counts", "class_vs_2secants",
            "class_structure_implications", "colour_graph",
        ):
            checks.append(CheckResult(name, NA, na))
        a.colour_components = ColourGraph(p).components(a.colours) if a.colours else []
        return

    # (b) per-line mu(c|l) = 0 mod p, read off the analysed word: c is a unit
    # multiple of it, so both have the same lines with a nonzero sum (a record
    # whose canonical word was tampered with keeps the word's verdict)
    line_mu = a.word.values[plane.lines_arr].sum(axis=1)
    bad = np.flatnonzero(line_mu % p)
    checks.append(
        CheckResult("clmod", PASS if bad.size == 0 else FAIL,
                    "" if bad.size == 0 else f"line {int(bad[0])}")
    )
    # (c) mu(c) = 0 mod p
    checks.append(CheckResult("cmod", PASS if a.mu % p == 0 else FAIL, f"mu={a.mu}"))
    # dual words admit no tangent lines
    checks.append(
        CheckResult("no_tangents", PASS if a.tangents == 0 else FAIL, f"{a.tangents} tangents")
    )

    band = a.in_band

    # (d) x_P >= 2p+1-eps for all support points
    if band:
        bound = 2 * p + 1 - eps
        ok = bool((a.x >= bound).all())
        worst = int(a.x.min()) if a.x.size else 0
        checks.append(CheckResult("2secants", PASS if ok else FAIL, f"min x={worst}, bound {bound}"))
    else:
        checks.append(CheckResult("2secants", NA, "outside the weight band"))

    # (e) even number of colours (odd p, in band)
    if band and p > 2:
        checks.append(
            CheckResult("even_colours", PASS if len(a.colours) % 2 == 0 else FAIL,
                        f"{len(a.colours)} colours")
        )
    else:
        checks.append(CheckResult("even_colours", NA, "needs odd p and the weight band"))

    # (f) |mu(c) - mu(-c)| <= eps * p
    if band:
        diff = abs(a.mu - a.mu_neg)
        checks.append(
            CheckResult("boundmu", PASS if diff <= eps * p else FAIL, f"|diff|={diff} vs {eps * p}")
        )
    else:
        checks.append(CheckResult("boundmu", NA, "outside the weight band"))

    # (g) two-colour class size gap in {0, p}
    if band and set(a.colours) == {1, p - 1}:
        gap = abs(a.colours[1] - a.colours[p - 1])
        checks.append(
            CheckResult("gap_0_or_p", PASS if gap in (0, p) else FAIL, f"gap={gap}")
        )
    else:
        checks.append(CheckResult("gap_0_or_p", NA, "needs exactly the colours {1, p-1}"))

    # (h) secant count inequalities and the exact 2-secant identity
    if band:
        lower1 = p * p + 2 * p + 2 - eps
        lower2 = 2 * p * p + 2 * p + 3 - eps
        ok1 = bool((2 * a.x + a.y >= lower1).all())
        ok2 = bool((3 * a.x + 2 * a.y + a.z >= lower2).all())
        per_point = a.line_counts[plane.point_lines_arr[a.support]]
        big = per_point >= 4
        correction = ((per_point - 3) * big).sum(axis=1)
        ok3 = bool((a.x == 2 * p + 1 - eps + correction).all())
        status = PASS if ok1 and ok2 and ok3 else FAIL
        checks.append(CheckResult("secant_counts", status, f"{ok1},{ok2},{ok3}"))
    else:
        checks.append(CheckResult("secant_counts", NA, "outside the weight band"))

    # (i) x_A <= |K_{p-lambda}| for A in K_lambda
    if band and p > 2:
        ok = True
        detail = ""
        vals = c.values[a.support]
        for i, pt in enumerate(a.support):
            lam = int(vals[i])
            opp = a.colours.get(p - lam, 0)
            if int(a.x[i]) > opp:
                ok, detail = False, f"point {int(pt)}: x={int(a.x[i])} > |K_{p - lam}|={opp}"
                break
        checks.append(CheckResult("class_vs_2secants", PASS if ok else FAIL, detail))
    else:
        checks.append(CheckResult("class_vs_2secants", NA, "needs odd p and the weight band"))

    # conditional class-size/2-secant structure statements, verified as
    # implications on the concrete word (hypotheses are often vacuous)
    if band and p > 2:
        ok, detail = reference_kvsx_conditionals(a, plane)
        checks.append(CheckResult("class_structure_implications", PASS if ok else FAIL, detail))
    else:
        checks.append(
            CheckResult("class_structure_implications", NA, "needs odd p and the weight band")
        )

    # (j) colour graph components; at most 2 for eps in {1,2}, p >= 7
    graph = ColourGraph(p)
    a.colour_components = graph.components(a.colours) if a.colours else []
    if band and eps in (1, 2) and p >= 7:
        ncomp = len(a.colour_components)
        ok = ncomp <= 2 and (ncomp < 2 or any((p + 1) // 2 in comp for comp in a.colour_components))
        checks.append(CheckResult("colour_graph", PASS if ok else FAIL, f"{ncomp} components"))
    else:
        checks.append(CheckResult("colour_graph", NA, "needs eps in {1,2} and p >= 7"))


def reference_kvsx_conditionals(a, plane):
    """If an opposite class has size 2p+1-eps, every point of the class has
    exactly that many 2-secants and lies only on 2- and 3-secants, with the
    opposite class exactly the far ends of its 2-secants; size 2p+2-eps
    forces one 4-secant and p^2-2p-2+eps 3-secants instead."""
    p, eps = a.p, a.epsilon
    c = a.canonical
    vals = c.values[a.support]
    pos_of = {int(pt): i for i, pt in enumerate(a.support)}
    for i, pt in enumerate(a.support):
        if int(a.x[i]) == 2 * p + 1 - eps:
            lam = int(vals[i])
            if a.colours.get(p - lam, 0) != 2 * p + 1 - eps:
                return False, f"x({int(pt)}) minimal but opposite class size differs"
    for lam, _size in a.colours.items():
        opp = a.colours.get(p - lam, 0)
        members = [int(pt) for i, pt in enumerate(a.support) if int(vals[i]) == lam]
        if opp == 2 * p + 1 - eps:
            for pt in members:
                i = pos_of[pt]
                if int(a.x[i]) != 2 * p + 1 - eps:
                    return False, f"colour {lam}: x({pt}) != 2p+1-eps"
                if int(a.z[i]) != 0 or int(a.x[i] + a.y[i]) != plane.order + 1:
                    return False, f"colour {lam}: point {pt} not on 2/3-secants only"
                ends = set()
                for li in plane.point_lines[pt]:
                    if int(a.line_counts[li]) == 2:
                        other = next(
                            x for x in plane.lines[li]
                            if x != pt and c.values[x] != 0
                        )
                        ends.add(other)
                opp_pts = {int(q) for q in a.support if int(c.values[q]) == p - lam}
                if ends != opp_pts:
                    return False, f"colour {lam}: 2-secant ends differ from opposite class"
        if opp == 2 * p + 2 - eps:
            for pt in members:
                i = pos_of[pt]
                good = (
                    int(a.x[i]) == 2 * p + 2 - eps
                    and int(a.z[i]) == 1
                    and int(a.y[i]) == p * p - 2 * p - 2 + eps
                )
                if not good:
                    return False, f"colour {lam}: point {pt} profile mismatch"
    return True, ""


@pytest.fixture(scope="module")
def pg49():
    return pg2(field_new(7, 2))


def _base_records(pg9, pg25, pg49):
    """(record, plane): in-band Baer words for p = 3, 5, 7, out-of-band,
    random dual, non-dual and zero words."""
    rng = np.random.default_rng(17)
    dual9 = dual_basis(code_of_plane(pg9, 3))
    words = [(baer_diff(pl, baer_subfield_subplane(pl)), pl) for pl in (pg9, pg25, pg49)]
    words += [(line_diff(pg9, 0, 1), pg9), (line_diff(pg25, 3, 7), pg25)]
    words += [
        (CodeWord(3, rng.integers(0, 3, size=dual9.dimension) @ dual9.generator), pg9)
        for _ in range(3)
    ]
    two_points = np.zeros(91, dtype=np.int64)
    two_points[[5, 40]] = (2, 1)
    words += [(CodeWord(3, two_points), pg9)]
    words += [(CodeWord(5, rng.integers(0, 5, size=651)), pg25)]
    words += [(CodeWord(3, np.zeros(91, dtype=np.int64)), pg9)]
    return [(analyze(w, pl, override_non_dual=True), pl) for w, pl in words]


def _perturbed(a):
    """Records with one or two fields changed; each check fails on some."""
    p = a.p
    out = [
        {},
        {"x": a.x + 1}, {"x": a.x - 1}, {"y": a.y + 1}, {"z": a.z + 1},
        {"mu": a.mu + 1}, {"mu": a.mu - 1}, {"mu_neg": a.mu_neg + 2 * p},
        {"tangents": a.tangents + 1},
        {"dual": not a.dual}, {"in_band": not a.in_band}, {"dual": True, "in_band": True},
    ]
    if a.epsilon is not None:
        out += [{"epsilon": a.epsilon + d} for d in (-1, 1)]
    if a.colours:
        first, last = min(a.colours), max(a.colours)
        out += [
            {"colours": {**a.colours, first: a.colours[first] + 1}},
            {"colours": {k: v for k, v in a.colours.items() if k != last}},
        ]
        if p > 3:  # a third colour, off the colour graph's component of 1
            out.append({"colours": {**a.colours, 3: 1}})
    if a.weight:
        # another nonzero value at one support point: the support stays
        v = a.canonical.values.copy()
        v[a.support[0]] = v[a.support[0]] % (p - 1) + 1
        out += [{"canonical": CodeWord(p, v)}, {"canonical": a.canonical.scale(p - 1)}]
    # the colour graph needs eps in {1, 2} and p >= 7
    out += [{**change, "epsilon": eps} for change in list(out) for eps in (1, 2)]
    return [dataclasses.replace(a, checks=[], **change) for change in out]


def _report(a):
    return [(c.name, c.status, c.detail) for c in a.checks]


def test_checklist_matches_the_reference_on_perturbed_records(pg9, pg25, pg49):
    failed = set()
    records = 0
    for base, plane in _base_records(pg9, pg25, pg49):
        for rec in _perturbed(base):
            mine, ref = rec, dataclasses.replace(rec, checks=[])
            analyzer._run_checklist(mine, plane)
            reference_run_checks(ref, plane)
            assert _report(mine) == _report(ref)
            assert mine.colour_components == ref.colour_components
            failed |= {c.name for c in mine.failed()}
            records += 1
    assert records > 500
    assert failed == {name for name, _, _ in CHECKLIST}


def test_checklist_states_each_check_once_in_report_order(pg9):
    names = [name for name, _, _ in CHECKLIST]
    assert names == [
        "summu", "clmod", "cmod", "no_tangents", "2secants", "even_colours",
        "boundmu", "gap_0_or_p", "secant_counts", "class_vs_2secants",
        "class_structure_implications", "colour_graph",
    ]
    for a in (
        analyze(line_diff(pg9, 0, 1), pg9),
        analyze(CodeWord(3, np.eye(91, dtype=np.int64)[0]), pg9, override_non_dual=True),
    ):
        assert [c.name for c in a.checks] == names
        tally = a.tally()
        assert list(tally) == [PASS, NA, FAIL]
        assert sum(tally.values()) == len(names)
        assert tally[NA] == sum(c.status == NA for c in a.checks) > 0
    a = analyze(CodeWord(3, np.eye(91, dtype=np.int64)[0]), pg9, override_non_dual=True)
    assert a.tally() == {PASS: 1, NA: 11, FAIL: 0}
    assert {c.detail for c in a.checks[1:]} == {"non-dual word"}


def _canonical_corpus(pg9, pg25, pg49):
    """Random dual, Baer, line and non-dual sparse words for p = 2, 3, 5, 7."""
    rng = np.random.default_rng(23)
    pg4, pg7 = pg2(field_new(2, 2)), pg2(field_new(7))
    out = []
    for p, plane, dual_plane, square in (
        (2, pg4, pg4, pg4), (3, pg9, pg9, pg9), (5, pg25, pg25, pg25), (7, pg7, pg7, pg49),
    ):
        dual = dual_basis(code_of_plane(dual_plane, p))
        for _ in range(15):
            msg = rng.integers(0, p, size=dual.dimension)
            out.append((CodeWord(p, (msg @ dual.generator) % p), dual_plane))
        sub = baer_subfield_subplane(square)
        out += [(baer_diff(square, sub, secant=s), square) for s in sub.lines[:3]]
        n = square.npoints
        for _ in range(4):
            a, b = rng.choice(n, 2, replace=False)
            out.append((line_diff(square, int(a), int(b)), square))
        for _ in range(10):
            v = np.zeros(plane.npoints, dtype=np.int64)
            pos = rng.choice(plane.npoints, int(rng.integers(1, 12)), replace=False)
            v[pos] = rng.integers(1, p, size=pos.size) if p > 2 else 1
            out.append((CodeWord(p, v), plane))
    return out


def test_canonicalize_is_scaling_invariant_and_matches_the_reference(pg9, pg25, pg49):
    # the canonical word of every scaling of w, one at a time and in one chunk
    seen = set()
    for w, plane in _canonical_corpus(pg9, pg25, pg49):
        a = analyze(w, plane, override_non_dual=True)
        want = reference_canonicalize(w, a.x, a.support)
        assert a.canonical == want
        scaled = [w.scale(lam) for lam in range(1, w.p)]
        batch = analyzer.analyze_words(scaled, plane, override_non_dual=True)
        for v, b in zip(scaled, batch):
            assert analyze(v, plane, override_non_dual=True).canonical == want
            assert b.canonical == want
        seen.add((w.p, a.dual))
    assert seen == {(p, d) for p in (2, 3, 5, 7) for d in (True, False)}


def test_one_line_gather_gives_the_verdict_and_the_line_counts(pg9):
    rng = np.random.default_rng(8)
    dual9 = dual_basis(code_of_plane(pg9, 3))
    words = [baer_diff(pg9, baer_subfield_subplane(pg9)), line_diff(pg9, 2, 5)]
    words += [CodeWord(3, rng.integers(0, 3, size=dual9.dimension) @ dual9.generator % 3)]
    words += [CodeWord(3, rng.integers(0, 3, size=91) * (rng.random(91) < d)) for d in (0.1, 0.6)]
    for w in words:
        a = analyze(w, pg9, override_non_dual=True)
        assert (a.dual, a.witness) == is_dual_word(w, pg9)
        assert a.line_counts.dtype == np.int64
        assert np.array_equal(a.line_counts, pg9.line_counts(w.support))
        assert a.check("clmod").status == (PASS if a.dual and w.weight else NA)
    assert [is_dual_word(w, pg9)[0] for w in words] == [True, True, True, False, False]
    for length in (90, 92):
        with pytest.raises(LengthMismatchError):
            analyze(CodeWord(3, np.zeros(length, dtype=np.int64)), pg9, override_non_dual=True)


def reference_line_values(w, plane):
    """The full gather the line statistics once read: row l holds w on line l."""
    return w.values[plane.lines_arr]


def _words_for_line_statistics(plane, p, rng):
    """Sparse dual words (Baer-diff, line-diff), a dense dual word (a random
    combination of line differences), sparse and dense non-dual words, and
    the zero word."""
    N = plane.npoints
    words = [line_diff(plane, 0, 1), line_diff(plane, N - 1, 3)]
    words.append(baer_diff(plane, baer_subfield_subplane(plane)))
    dense = np.zeros(N, dtype=np.int64)
    for _ in range(3 * plane.order):
        a, b = rng.choice(N, 2, replace=False)
        dense += int(rng.integers(1, p)) * _set_diff(plane, plane.lines[a], plane.lines[b]).values
    words.append(CodeWord(p, dense))
    for d in (0.02, 0.5, 1):
        v = rng.integers(0, p, size=N) * (rng.random(N) < d)
        v[rng.integers(N)] = 1  # never the zero word
        words.append(CodeWord(p, v))
    words.append(CodeWord(p, np.zeros(N, dtype=np.int64)))
    return words


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_line_statistics_from_the_support_match_the_full_gather(p):
    plane = pg2(field_new(p, 2))
    rng = np.random.default_rng(p)
    verdicts = []
    for w in _words_for_line_statistics(plane, p, rng):
        on_lines = reference_line_values(w, plane)
        bad = np.flatnonzero(on_lines.sum(axis=1) % p)
        want = (not bad.size, int(bad[0]) if bad.size else None)
        sums = line_sums(w, plane)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, on_lines.sum(axis=1))
        assert is_dual_word(w, plane) == want
        a = analyze(w, plane, override_non_dual=True)
        assert (a.dual, a.witness) == want
        assert a.line_counts.dtype == np.int64
        assert np.array_equal(a.line_counts, np.count_nonzero(on_lines, axis=1))
        verdicts.append(want[0])
    assert verdicts[:4] == [True] * 4 and verdicts[-1]
    assert not any(verdicts[4:7])  # the random words are not dual
    with pytest.raises(LengthMismatchError):
        line_sums(CodeWord(p, np.ones(plane.npoints + 1, dtype=np.int64)), plane)


def _dense_dual_words(plane, p, rng, count):
    """Random combinations of 3q line differences: dual words of high weight."""
    N = plane.npoints
    pool = np.array([
        _set_diff(plane, plane.lines[a], plane.lines[b]).values
        for a, b in (rng.choice(N, 2, replace=False) for _ in range(3 * plane.order))
    ])
    coeffs = rng.integers(0, p, size=(count, len(pool)))
    return [CodeWord(p, v) for v in coeffs @ pool % p]


def _batch_corpus(plane, p, rng):
    """_CHUNK_WORDS + 1 words: two dense dual words, then dense dual words,
    Baer and line words, sparse and dense non-dual words and the zero word
    in a seeded order."""
    N = plane.npoints
    sub = baer_subfield_subplane(plane)
    words = [baer_diff(plane, sub, secant=s) for s in sub.lines[:3]]
    words += [line_diff(plane, int(a), int(b))
              for a, b in (rng.choice(N, 2, replace=False) for _ in range(4))]
    for d in (0.01, 0.05, 0.5, 0.9):
        v = rng.integers(1, p, size=N) * (rng.random(N) < d) if p > 2 else rng.random(N) < d
        v[rng.integers(N)] = 1  # never the zero word
        words.append(CodeWord(p, v))
    words.append(CodeWord(p, np.zeros(N, dtype=np.int64)))
    dense = _dense_dual_words(plane, p, rng, analyzer._CHUNK_WORDS + 1 - len(words))
    rest = dense[2:] + words
    return dense[:2] + [rest[i] for i in rng.permutation(len(rest))]


def _same_record(a, b):
    assert a.to_report() == b.to_report()
    assert (a.dual, a.witness, a.canonical) == (b.dual, b.witness, b.canonical)
    for name in ("support", "line_counts", "x", "y", "z"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), name


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_batches_match_the_support_path(p, monkeypatch):
    plane = pg2(field_new(p, 2))
    words = _batch_corpus(plane, p, np.random.default_rng(40 + p))
    chunk = analyzer._CHUNK_WORDS
    assert len(words) == chunk + 1
    want = [analyze(w, plane, override_non_dual=True) for w in words]  # one word: the support path
    assert ("baer" in {a.classification for a in want}) == (p > 2)
    assert [a.dual for a in want].count(False) == 4 and want[0].dual and want[1].dual
    paths = []
    for name in ("_support_statistics", "_product_statistics"):
        real = getattr(analyzer, name)
        monkeypatch.setattr(analyzer, name, lambda *a, real=real, name=name: paths.append(name) or real(*a))
    for n in (1, 2, chunk - 1, chunk, chunk + 1):
        paths.clear()
        got = list(analyzer.analyze_words(iter(words[:n]), plane, override_non_dual=True))
        assert len(got) == n
        for a, b in zip(got, want):
            _same_record(a, b)
        lone = ["_support_statistics"] if n % chunk == 1 else []
        assert paths == ["_product_statistics"] * (n // chunk + (n % chunk > 1)) + lone
    # the products' line sums, left in the buffers, are the support path's
    buffers = np.empty((3, chunk, plane.npoints), dtype=np.int64)
    witnesses = analyzer._product_statistics(words[:chunk], plane, buffers).witnesses
    assert witnesses == [a.witness for a in want[:chunk]]
    for w, sums in zip(words, buffers[0]):
        assert np.array_equal(sums, line_sums(w, plane))


# criterion 10's detail at seed 0, as the per-word analyzer gave it
CRITERION_10_SEED_0 = (
    "q=4: 501 words, 0 failed checks (pass 2004, na 4008, fail 0); "
    "q=9: 503 words, 0 failed checks (pass 2019, na 4017, fail 0); "
    "q=25: 502 words, 0 failed checks (pass 2015, na 4009, fail 0)"
)


def test_criterion_10_batches_match_one_word_at_a_time(monkeypatch):
    calls = []
    real = acceptance.analyze_words

    def capture(words, plane, *args):
        calls.append((list(words), plane))
        return real(calls[-1][0], plane, *args)

    monkeypatch.setattr(acceptance, "analyze_words", capture)
    row = acceptance.criterion_10_analyzer_suite(acceptance.AcceptanceContext(seed=0))
    assert row.passed and row.detail == CRITERION_10_SEED_0
    assert [(plane.order, len(words)) for words, plane in calls] == [(4, 501), (9, 503), (25, 502)]
    for words, plane in calls:
        batch = list(analyzer.analyze_words(words, plane))
        assert len(batch) == len(words)
        for w, a in zip(words, batch):
            _same_record(a, analyze(w, plane))


@pytest.mark.parametrize("p", [2, 3])
def test_prime_order_planes_analyse_alike_in_a_batch_and_alone(p):
    # q = p: a line meets a support in at most q+1 < 5 points
    plane = pg2(field_new(p))
    rng = np.random.default_rng(p)
    words = [line_diff(plane, 0, 1), CodeWord(p, np.zeros(plane.npoints, dtype=np.int64))]
    words += [CodeWord(p, rng.integers(0, p, size=plane.npoints)) for _ in range(6)]
    batch = list(analyzer.analyze_words(words, plane, override_non_dual=True))
    for w, a in zip(words, batch):
        _same_record(a, analyze(w, plane, override_non_dual=True))
        rows = plane.line_counts(w.support)[plane.point_lines_arr[w.support]]
        for k, got in ((2, a.x), (3, a.y), (4, a.z)):
            assert got.tolist() == (rows == k).sum(axis=1).tolist()


def test_check_results_are_frozen_and_na_results_shared(pg9):
    a, b = analyze(line_diff(pg9, 0, 1), pg9), analyze(line_diff(pg9, 5, 2), pg9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.checks[0].status = FAIL
    shared = [(c, d) for c, d in zip(a.checks, b.checks) if c.status == NA]
    assert len(shared) == 8 and all(c is d for c, d in shared)


def test_the_encoded_product_refuses_sums_beyond_2_to_the_53(monkeypatch):
    # synthetic: PG(2,2)'s incidence under a claimed order q, so that
    # B = (q+1)(p-1)+1 = q+2 at p = 2; no plane of that order is built
    plane = pg2(field_new(2))
    words = [CodeWord(2, np.eye(7, dtype=np.int64)[i]) for i in (0, 3)]  # no 2-, 3- or 4-secant
    buffers = np.empty((3, 2, 7), dtype=np.int64)
    want = [is_dual_word(w, plane)[1] for w in words]

    def statistics(q):
        fake = types.SimpleNamespace(order=q, npoints=7, point_lines_arr=plane.point_lines_arr)
        return analyzer._product_statistics(words, fake, buffers)

    # the largest q whose encoded line sums, at most (q+1)(B+1), stay below 2^53
    q = 94906263
    assert (q + 1) * (q + 3) < 2**53 <= (q + 2) * (q + 4)
    stats = statistics(q)
    assert stats.witnesses == want
    assert np.array_equal(stats.line_counts, [plane.line_counts(w.support) for w in words])
    # beyond it, and where B*(q+1) itself reaches 2^53
    reach = 94906265
    assert (reach + 2) * (reach + 1) >= 2**53 > (reach + 1) * reach
    for q in (q + 1, reach):
        with pytest.raises(CodesError, match=r"not exact in float64 \(bound 2\^53\)"):
            statistics(q)


def test_a_batch_refuses_what_analyze_refuses(pg9):
    dual = [line_diff(pg9, 0, 1), baer_diff(pg9, baer_subfield_subplane(pg9))]
    bad = CodeWord(3, np.eye(91, dtype=np.int64)[7])
    witness = is_dual_word(bad, pg9)[1]
    records = analyzer.analyze_words([dual[0], bad, dual[1]], pg9)
    assert next(records).word == dual[0]
    with pytest.raises(NotDualWordError, match=f"witness line {witness}$"):
        next(records)
    assert [a.witness for a in analyzer.analyze_words([bad] * 3, pg9, override_non_dual=True)] == [
        witness
    ] * 3
    for length in (90, 92):
        records = analyzer.analyze_words([*dual, CodeWord(3, np.zeros(length, dtype=np.int64))], pg9)
        with pytest.raises(LengthMismatchError):
            next(records)  # before any record
    with pytest.raises(analyzer.AnalyzeError, match="mix the primes"):
        list(analyzer.analyze_words([dual[0], CodeWord(2, dual[0].values % 2)], pg9))
    assert list(analyzer.analyze_words([], pg9)) == []
    assert list(analyzer.analyze_words(iter(()), pg9)) == []


def test_a_dense_batch_at_q49_stays_within_its_memory_bound(pg49):
    # 200 dense dual words at q=49 (N = 2451): the union of every chunk's
    # supports is all N points, so their incidence is N x N, 48 MB as
    # doubles.  The batch path holds three 64 x N int64 arrays (3.8 MB), the
    # chunk's values (1.3 MB), its concatenated supports and one block of
    # 106 points at a time (2.1 MB as doubles), with a product of 64 x N
    # doubles and its integer copy (1.3 MB each): 14 MiB above the input,
    # bounded here by 20 MiB.
    import tracemalloc

    words = _dense_dual_words(pg49, 7, np.random.default_rng(49), 200)
    assert min(w.weight for w in words) > 2000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tally = Counter()
        for a in analyzer.analyze_words(words, pg49):
            tally.update(a.tally())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert tally[FAIL] == 0 and sum(tally.values()) == 12 * len(words)
    assert peak < 20 * 2**20, peak / 2**20
