"""The acceptance battery: one callable per criterion, shared by the test
suite and the `suite acceptance` CLI command.

Each row is declared once, by `criterion(name, budget)`: its check returns
(ok, detail), and the row returns a CriterionResult with its number, pass
flag, detail string and wall time; a stated runtime budget is part of the
pass condition.  Randomized rows take an explicit seed (default 0).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .analyze import FAIL, NA, PASS, analyze, analyze_words, extract_baer
from .antipodal import (
    antipodal_from_pg24,
    cyclic_antipodal,
    isomorphism,
    validate_antipodal,
)
from .codes import (
    CodeWord,
    code_of_plane,
    dual_basis,
    enumerate_min_weight,
    indicator,
    is_dual_word,
    matmul_mod_p,
)
from .construct import baer_diff, disjoint_baer_pair, line_diff, subplane_diff
from .field import field_new
from .geometry import (
    baer_subfield_subplane,
    ceva_product,
    fundamental_triangle,
    menelaos_product,
    pg2,
)
from .search import embed_search, verify_embedding


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"


class AcceptanceContext:
    """Caches planes/codes across criteria and carries the dual words that
    later rows re-check."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._planes: dict[tuple[int, int], object] = {}
        self._codes: dict[tuple[int, int], object] = {}
        self._dual_codes: dict[tuple[int, int], object] = {}
        self.checked_words: list[tuple[int, int, int]] = []  # (q, p, weight)

    def plane(self, p: int, h: int):
        key = (p, h)
        if key not in self._planes:
            self._planes[key] = pg2(field_new(p, h))
        return self._planes[key]

    def code(self, p: int, h: int):
        key = (p, h)
        if key not in self._codes:
            self._codes[key] = code_of_plane(self.plane(p, h), p)
        return self._codes[key]

    def dual_code(self, p: int, h: int):
        key = (p, h)
        if key not in self._dual_codes:
            self._dual_codes[key] = dual_basis(self.code(p, h))
        return self._dual_codes[key]


# the rows in suite order, appended by `criterion`; run_all reads the list at
# call time, so a row may be swapped in place (perfbench/tracing.py times them so)
ALL_CRITERIA: list = []


def criterion(name: str, budget: float | None = None):
    """Register a check returning (ok, detail) as the next acceptance row.

    The row times the check, fails when a budget is given and the time is
    not under it, and is numbered by its position in ALL_CRITERIA."""

    def register(check):
        number = len(ALL_CRITERIA) + 1

        @functools.wraps(check)
        def row(ctx: AcceptanceContext) -> CriterionResult:
            t0 = time.perf_counter()
            ok, detail = check(ctx)
            seconds = time.perf_counter() - t0
            ok = bool(ok) and (budget is None or seconds < budget)
            return CriterionResult(number, name, ok, detail, seconds)

        ALL_CRITERIA.append(row)
        return row

    return register


def _tally_text(tally) -> str:
    """Analyzer check counts, so that a "0 failed" made of na checks shows."""
    return f"(pass {tally[PASS]}, na {tally[NA]}, fail {tally[FAIL]})"


@criterion("dimension formula", budget=60)
def criterion_1_dimension_formula(ctx: AcceptanceContext):
    cases = [
        (2, 1, 4), (3, 1, 7), (2, 2, 10), (5, 1, 16), (7, 1, 29),
        (2, 3, 28), (3, 2, 37), (2, 4, 82), (5, 2, 226),
    ]
    got = []
    ok = True
    for p, h, want in cases:
        dim = ctx.code(p, h).dimension
        got.append(dim)
        ok &= dim == want
    return ok, f"dims {got}"


@criterion("primal minimum weight")
def criterion_2_primal_minimum(ctx: AcceptanceContext):
    ok = True
    details = []
    for p, h in ((2, 1), (3, 1), (2, 2)):
        plane = ctx.plane(p, h)
        n = plane.order
        res = enumerate_min_weight(ctx.code(p, h))
        expected = set()
        for l in plane.lines:
            base = indicator(l, plane.npoints, p)
            for lam in range(1, p):
                expected.add(tuple(base.scale(lam).values))
        found = {tuple(w.values) for w in res.words}
        ok &= res.min_weight == n + 1 and found == expected
        details.append(f"q={n}: d={res.min_weight}, {len(found)} words")
    return ok, "; ".join(details)


@criterion("dual minimum weight, even q")
def criterion_3_dual_minimum_even(ctx: AcceptanceContext):
    r2 = enumerate_min_weight(ctx.dual_code(2, 1))
    r4 = enumerate_min_weight(ctx.dual_code(2, 2))
    ok = (
        r2.min_weight == 4 and r2.words_checked == 8
        and r4.min_weight == 6 and r4.words_checked == 2048
    )
    return ok, (f"q=2: {r2.min_weight} ({r2.words_checked} words); "
                f"q=4: {r4.min_weight} ({r4.words_checked} words)")


@criterion("dual minimum weight, prime q")
def criterion_4_dual_minimum_prime(ctx: AcceptanceContext):
    r = enumerate_min_weight(ctx.dual_code(3, 1))
    ok = r.min_weight == 6 and r.words_checked == 729
    return ok, f"q=3: {r.min_weight} ({r.words_checked} words)"


@criterion("Baer-diff upper-bound witnesses", budget=300)
def criterion_5_baer_witnesses(ctx: AcceptanceContext):
    ok = True
    details = []
    for p, want in ((3, 15), (5, 45), (7, 91)):
        plane = ctx.plane(p, 2)
        w = baer_diff(plane, baer_subfield_subplane(plane))
        dual = is_dual_word(w, plane)[0]
        tally = analyze(w, plane).tally()
        ok &= w.weight == want and dual and not tally[FAIL]
        ctx.checked_words.append((p * p, p, w.weight))
        details.append(f"q={p * p}: weight {w.weight}, dual={dual}, "
                       f"failed checks {tally[FAIL]} {_tally_text(tally)}")
    return ok, "; ".join(details)


@criterion("Baer structure round-trip")
def criterion_6_isbaer_roundtrip(ctx: AcceptanceContext):
    ok = True
    details = []
    for p in (3, 5, 7):
        plane = ctx.plane(p, 2)
        sub = baer_subfield_subplane(plane)
        secant = sub.lines[0]
        w = baer_diff(plane, sub, secant=secant)
        got_sub, got_secant = extract_baer(w, plane)
        round_trip = got_sub.points == sub.points and got_secant == secant
        ok &= round_trip
        details.append(f"p={p}: {'ok' if round_trip else 'MISMATCH'}")
    # criteria 5 and 6 are the only users of PG(2,49); free its N x N tables
    ctx._planes.pop((7, 2), None)
    return ok, "; ".join(details)


MK_CELLS = {3: True, 4: True, 5: False, 7: True, 8: False, 9: True, 11: False, 13: True}
AP3_CELLS = {4: True, 5: False, 7: False, 8: False, 9: False, 16: True}
FIELD_OF = {
    3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
    9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4),
}


@criterion("embedding truth table", budget=1800)
def criterion_7_embedding_truth_table(ctx: AcceptanceContext):
    ok = True
    details = []
    for pls, cells, tag in (
        (cyclic_antipodal(2), MK_CELLS, "mk"),
        (cyclic_antipodal(3), AP3_CELLS, "ap3"),
    ):
        for q, should_exist in cells.items():
            plane = ctx.plane(*FIELD_OF[q])
            out = embed_search(pls, plane)
            if should_exist:
                good = out.status == "found" and verify_embedding(
                    pls, plane, out.embeddings[0]
                )[0]
            else:
                good = out.status == "exhausted-none"
            ok &= good
            if not good:
                details.append(f"{tag} q={q}: got {out.status}")
    return ok, ("; ".join(details) if details else
                f"{len(MK_CELLS) + len(AP3_CELLS)} cells match the closed-form conditions")


@criterion("Menelaos and Ceva products")
def criterion_8_menelaos_ceva(ctx: AcceptanceContext):
    ok = True
    details = []
    for q in (3, 4, 5, 7, 9):
        plane = ctx.plane(*FIELD_OF[q])
        a1, a2, a3 = fundamental_triangle(plane)
        sides = [plane.line_through(a2, a3), plane.line_through(a1, a3), plane.line_through(a1, a2)]
        minus_one = plane.field.neg(1)
        lines = np.flatnonzero(plane.line_counts((a1, a2, a3)) == 0).tolist()
        points = np.setdiff1d(np.arange(plane.npoints), plane.lines_arr[sides]).tolist()
        men = all(menelaos_product(plane, l) == minus_one for l in lines)
        cev = all(ceva_product(plane, x) == 1 for x in points)
        ok &= men and cev and len(lines) == (q - 1) ** 2 and len(points) == (q - 1) ** 2
        details.append(f"q={q}: {len(lines)}+{len(points)} cases")
    return ok, "; ".join(details)


@criterion("antipodal models")
def criterion_9_antipodal_models(ctx: AcceptanceContext):
    ok = True
    ap2 = validate_antipodal(cyclic_antipodal(2))
    ap3 = validate_antipodal(cyclic_antipodal(3))
    ok &= ap2.order == 2 and ap2.pls.n_points == 8
    ok &= ap3.order == 3 and ap3.pls.n_points == 14
    comp = antipodal_from_pg24()
    apc = validate_antipodal(comp)
    ok &= apc.order == 3
    mapping = isomorphism(comp, cyclic_antipodal(3))
    ok &= mapping is not None
    for ap in (ap2, ap3, apc):
        pls = ap.pls
        for pt in range(pls.n_points):
            ok &= ap.perp_point[ap.perp_point[pt]] == pt
            ok &= not pls.collinear(pt, ap.perp_point[pt])
        for i, l in enumerate(pls.lines):
            j = ap.perp_line[i]
            ok &= ap.perp_line[j] == i
            ok &= frozenset(ap.perp_point[x] for x in l) == pls.line_sets[j]
    return ok, "orders 2/3 cyclic + complement model validated; isomorphism found"


def random_dual_words(dual_code, rng, count: int) -> list[CodeWord]:
    """`count` words from uniform message draws, one rng.integers call per
    word, so a seed gives the same words however they are multiplied out.
    One product per 100 words keeps the temporaries small."""
    p, gen = dual_code.p, dual_code.generator
    words: list[CodeWord] = []
    for start in range(0, count, 100):
        draws = range(min(100, count - start))
        coeffs = np.array([rng.integers(0, p, size=gen.shape[0]) for _ in draws])
        words.extend(CodeWord(p, v) for v in matmul_mod_p(coeffs, gen, p))
    return words


@criterion("analyzer theorem suite", budget=600)
def criterion_10_analyzer_suite(ctx: AcceptanceContext):
    rng = np.random.default_rng(ctx.seed)
    ok = True
    details = []
    for p, h in ((2, 2), (3, 2), (5, 2)):
        plane = ctx.plane(p, h)
        q = plane.order
        words = [line_diff(plane, 0, 1)]
        if h == 2:
            words.append(baer_diff(plane, baer_subfield_subplane(plane)))
        if q == 9:
            s1, s2 = disjoint_baer_pair(plane)
            w, dual = subplane_diff(plane, s1, s2)
            if dual:
                words.append(w)
            # no antipodal word: the difference of the first two disjoint MK
            # embeddings has weight 16 and is not in the dual code
        words.extend(w for w in random_dual_words(ctx.dual_code(p, h), rng, 500) if w.weight)
        tally = Counter()
        for w, a in zip(words, analyze_words(words, plane)):
            tally.update(a.tally())
            ctx.checked_words.append((q, p, w.weight))
        ok &= tally[FAIL] == 0
        details.append(f"q={q}: {len(words)} words, {tally[FAIL]} failed checks "
                       + _tally_text(tally))
    return ok, "; ".join(details)


@criterion("Bagchi bound")
def criterion_11_bagchi_bound(ctx: AcceptanceContext):
    if not ctx.checked_words:
        return False, "no words recorded by criteria 5/10"
    bad = [
        (q, weight)
        for q, p, weight in ctx.checked_words
        if weight < 2 * (q + 1 - q // p)
    ]
    return not bad, (f"{len(ctx.checked_words)} dual words checked"
                     + (f"; violations {bad[:3]}" if bad else ""))


def run_all(seed: int = 0) -> list[CriterionResult]:
    ctx = AcceptanceContext(seed=seed)
    return [f(ctx) for f in ALL_CRITERIA]
