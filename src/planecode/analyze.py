"""Diagnostics for dual code words: colours, secants, identities, structure.

Given a dual word and its plane of order p^2, the analyzer computes the
colour classes K_lambda, the per-point secant profile (x_A, y_A, z_A and the
full line-intersection multiset), mu of the word and its negative, the
colour graph, and a checklist of identities and inequalities.  Checks whose
hypotheses fail (wrong plane order, weight outside the band
[2p^2-2p+3, 2p^2-p], missing colour pattern) are reported as not-applicable
rather than silently skipped: the analyzer doubles as a debugging tool for
words outside the band.

Extremal two-colour words are classified and their geometry re-extracted:
class sizes {p^2, p^2-p} yield the Baer-subplane-minus-secant form, equal
classes of size p^2-p+2 yield two embedded antipodal planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .antipodal import (
    AntipodalError,
    AntipodalPlane,
    PartialLinearSpace,
    validate_antipodal,
)
from .codes import CodeWord, indicator, is_dual_word, word_diff
from .geometry import Plane, SubplaneResult, _restricted_lines, subplane_result_from_points
from .field import is_prime

PASS, FAIL, NA = "pass", "fail", "na"


class AnalyzeError(ValueError):
    pass


class NotDualWordError(AnalyzeError):
    pass


class StructureMismatchError(AnalyzeError):
    def __init__(self, step: str, detail=""):
        self.step = step
        super().__init__(f"structure extraction failed at: {step} {detail}".rstrip())


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | na
    detail: str = ""


@dataclass
class ColourGraph:
    """Vertices 1..p-1, alpha ~ beta iff alpha+beta in {p, p+1}; the full
    graph is the path 1, p-1, 2, p-2, ... with a loop at (p+1)/2."""

    p: int

    def adjacent(self, a: int, b: int) -> bool:
        return a + b == self.p or a + b == self.p + 1

    def components(self, colours) -> list[tuple[int, ...]]:
        rest = set(colours)
        comps = []
        while rest:
            seed = min(rest)
            comp = {seed}
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for y in list(rest - comp):
                    if self.adjacent(x, y):
                        comp.add(y)
                        frontier.append(y)
            comps.append(tuple(sorted(comp)))
            rest -= comp
        return comps

    def full_structure(self) -> dict:
        verts = range(1, self.p)
        deg = {
            v: sum(1 for u in verts if u != v and self.adjacent(u, v))
            + (1 if self.adjacent(v, v) else 0)
            for v in verts
        }
        return {
            "components": self.components(verts),
            "degrees": deg,
            "loops": tuple(v for v in verts if self.adjacent(v, v)),
        }


@dataclass
class WordAnalysis:
    word: CodeWord
    canonical: CodeWord
    p: int
    weight: int
    epsilon: int | None  # weight - (2p^2-2p+2) when the plane order is p^2
    in_band: bool
    dual: bool
    tangents: int
    colours: dict[int, int]  # colour -> class size, for the canonical word
    mu: int
    mu_neg: int
    x: np.ndarray  # per-support-point 2-secant counts (canonical scaling irrelevant)
    y: np.ndarray
    z: np.ndarray
    support: np.ndarray
    line_counts: np.ndarray  # |line cap support| per line
    checks: list[CheckResult] = dc_field(default_factory=list)
    colour_components: list[tuple[int, ...]] = dc_field(default_factory=list)
    classification: str = "none"

    def check(self, name: str) -> CheckResult:
        return next(c for c in self.checks if c.name == name)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    def secant_profile(self, point: int, plane: Plane) -> dict[int, int]:
        """Full multiset {|line cap support|: count} over the lines through
        a support point; the 2/3/4-secant counts are its x/y/z entries."""
        counts = self.line_counts[plane.point_lines_arr[point]]
        sizes, freq = np.unique(counts, return_counts=True)
        return {int(s): int(f) for s, f in zip(sizes, freq)}

    def to_report(self) -> dict:
        return {
            "weight": self.weight,
            "epsilon": self.epsilon,
            "applicable": self.in_band,
            "dual": self.dual,
            "tangents": self.tangents,
            "mu": self.mu,
            "mu_neg": self.mu_neg,
            "colours": {str(k): v for k, v in sorted(self.colours.items())},
            "colour_components": [list(c) for c in self.colour_components],
            "checks": [
                {"name": c.name, "status": c.status, **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
            "classification": self.classification,
        }


def canonicalize(word: CodeWord, x_counts: np.ndarray, support: np.ndarray) -> CodeWord:
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


def analyze(word: CodeWord, plane: Plane, override_non_dual: bool = False) -> WordAnalysis:
    """Full diagnostic record for a word against its plane."""
    p = word.p
    if not is_prime(p):
        raise AnalyzeError(f"word symbol prime {p} is not prime")
    dual, witness = is_dual_word(word, plane)
    if not dual and not override_non_dual:
        raise NotDualWordError(f"word is not in the dual code; witness line {witness}")

    support = word.support
    line_counts = plane.line_counts(support)
    tangents = int((line_counts == 1).sum())

    per_point = line_counts[plane.point_lines_arr[support]] if support.size else np.zeros((0, plane.order + 1), dtype=np.int64)
    x = (per_point == 2).sum(axis=1)
    y = (per_point == 3).sum(axis=1)
    z = (per_point == 4).sum(axis=1)

    canonical = canonicalize(word, x, support)
    colours = {lam: int(pos.size) for lam, pos in canonical.colour_classes().items()}

    square = plane.order == p * p
    epsilon = word.weight - (2 * p * p - 2 * p + 2) if square else None
    in_band = square and epsilon is not None and 1 <= epsilon <= p - 2 and dual

    a = WordAnalysis(
        word=word,
        canonical=canonical,
        p=p,
        weight=word.weight,
        epsilon=epsilon,
        in_band=in_band,
        dual=dual,
        tangents=tangents,
        colours=colours,
        mu=canonical.mu(),
        mu_neg=canonical.neg().mu(),
        x=x,
        y=y,
        z=z,
        support=support,
        line_counts=line_counts,
    )
    _run_checks(a, plane)
    a.classification = _classify(a)
    return a


def _run_checks(a: WordAnalysis, plane: Plane) -> None:
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

    # (b) per-line mu(c|l) = 0 mod p
    line_mu = c.values[plane.lines_arr].sum(axis=1)
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
        ok, detail = _kvsx_conditionals(a, plane)
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


def _kvsx_conditionals(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
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


def _classify(a: WordAnalysis) -> str:
    p = a.p
    if not a.dual or len(a.colours) < 2:
        return "none"
    if len(a.colours) == 2:
        sizes = sorted(a.colours.values(), reverse=True)
        if sizes == [p * p, p * p - p] and a.weight == 2 * p * p - p:
            return "baer"
        if sizes == [p * p - p + 2] * 2 and a.weight == 2 * p * p - 2 * p + 4:
            return "antipodal"
        return "two-colour-other"
    return "multi-colour"


def extract_baer(
    word: CodeWord, plane: Plane, override_non_dual: bool = False
) -> tuple[SubplaneResult, int]:
    """Rebuild the Baer subplane and secant behind an extremal two-colour word.

    Requires a dual two-colour word with class sizes p^2 and p^2-p (weight
    2p^2-p).  Returns (subplane, secant line index) such that the word is a
    scalar multiple of subplane-minus-secant.
    """
    a = analyze(word, plane, override_non_dual=override_non_dual)
    p = a.p
    if a.classification != "baer":
        raise StructureMismatchError(
            "precondition", f"classification is {a.classification!r}, not 'baer'"
        )
    c = a.canonical
    big = p * p
    lam_big = next(lam for lam, size in a.colours.items() if size == big)
    k_big = np.flatnonzero(c.values == lam_big)
    k_small = np.flatnonzero((c.values != 0) & (c.values != lam_big))

    small_set = set(k_small.tolist())
    full = np.flatnonzero(plane.line_counts(k_small) == len(small_set))
    if full.size != 1:
        raise StructureMismatchError("no single line containing all of the small class")
    secant = int(full[0])
    if not set(plane.lines[secant]).isdisjoint(k_big.tolist()):
        raise StructureMismatchError("secant line meets the large class")
    aa = [pt for pt in plane.lines[secant] if pt not in small_set]
    if len(aa) != p + 1:
        raise StructureMismatchError("secant remainder is not p+1 points", f"{len(aa)}")
    sub = subplane_result_from_points(plane, frozenset(k_big.tolist()) | frozenset(aa), p)
    if sub is None:
        raise StructureMismatchError("reassembled point set is not a subplane", f"of order {p}")
    rebuilt = word_diff(
        indicator(sub.points, plane.npoints, p),
        indicator(plane.lines[secant], plane.npoints, p),
    )
    if not _scalar_multiple(word, rebuilt):
        raise StructureMismatchError("word is not a scalar multiple of subplane minus secant")
    return sub, secant


def _scalar_multiple(a: CodeWord, b: CodeWord) -> bool:
    if a.p != b.p or a.weight != b.weight or not np.array_equal(a.support, b.support):
        return False
    if a.weight == 0:
        return True
    i = int(a.support[0])
    lam = (int(a.values[i]) * pow(int(b.values[i]), a.p - 2, a.p)) % a.p
    return np.array_equal(a.values, (b.values * lam) % a.p)


def extract_antipodal(
    word: CodeWord, plane: Plane, override_non_dual: bool = False
) -> tuple[tuple[tuple[int, ...], AntipodalPlane], tuple[tuple[int, ...], AntipodalPlane]]:
    """Split an equal-two-colour word of weight 2p^2-2p+4 into its two point
    classes and validate each, with its induced p-secant line structure, as
    an antipodal plane of order p-1."""
    a = analyze(word, plane, override_non_dual=override_non_dual)
    p = a.p
    if a.classification != "antipodal":
        raise StructureMismatchError(
            "precondition", f"classification is {a.classification!r}, not 'antipodal'"
        )
    c = a.canonical
    out = []
    for lam in (1, p - 1):
        pts = np.flatnonzero(c.values == lam)
        try:
            pls = PartialLinearSpace(pts.size, _restricted_lines(plane, pts, p))
            ap = validate_antipodal(pls)
        except AntipodalError as e:
            raise StructureMismatchError(f"class {lam} is not antipodal", str(e))
        if ap.order != p - 1:
            raise StructureMismatchError(
                f"class {lam} has order {ap.order}, expected {p - 1}"
            )
        out.append((tuple(pts.tolist()), ap))
    return out[0], out[1]
