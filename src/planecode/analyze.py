"""Diagnostics for dual code words: colours, secants, identities, structure.

Given a dual word and its plane of order p^2, the analyzer computes the
colour classes K_lambda, the per-point secant counts x_A, y_A, z_A, the
size of every line's meet with the support, mu of the word and its
negative, the colour graph, and a checklist of identities and
inequalities.  Each check states its hypothesis once (dual word, weight
band [2p^2-2p+3, 2p^2-p], odd p, colour pattern); a check whose hypothesis
fails is reported as not-applicable with the reason rather than silently
skipped: the analyzer doubles as a debugging tool for words outside the
band.

Extremal two-colour words are classified and their geometry re-extracted:
class sizes {p^2, p^2-p} yield the Baer-subplane-minus-secant form, equal
classes of size p^2-p+2 yield two embedded antipodal planes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .antipodal import (
    AntipodalError,
    AntipodalPlane,
    PartialLinearSpace,
    validate_antipodal,
)
from .codes import CodeWord, LengthMismatchError, exact_matmul, is_dual_word
from .construct import _set_diff
from .geometry import Plane, SubplaneResult, _restricted_lines, subplane_result_from_points
from .field import prime_of_power

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
    witness: int | None  # the first line whose values do not sum to 0 mod p
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

    def tally(self) -> dict[str, int]:
        """How many checks passed, were not applicable, and failed."""
        return {s: sum(c.status == s for c in self.checks) for s in (PASS, NA, FAIL)}

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
    lexicographically least value vector.  All scalings share the support
    and differ at each of its points, so the value at support[0] orders them."""
    p = word.p
    if p == 2 or word.weight == 0:
        return word
    vals = word.values[support]
    # scaled by c^-1, a point of value v lands in K_{p-1} exactly when c = p - v
    preferred = set((p - vals[x_counts == x_counts.min()]).tolist())
    first = int(vals[0])
    c = min(set(vals.tolist()), key=lambda c: (c not in preferred, first * pow(c, p - 2, p) % p))
    return word.scale(pow(c, p - 2, p))


# The batch path works on chunks of _CHUNK_WORDS words and on blocks of
# points whose incidence with the lines has at most _BLOCK_CELLS cells: it
# holds five chunk x N int64 arrays and one block at a time (2 MB of double
# precision in a product), so no temporary grows with N^2.
_CHUNK_WORDS = 64
_BLOCK_CELLS = 1 << 18


def analyze(word: CodeWord, plane: Plane, override_non_dual: bool = False) -> WordAnalysis:
    """Full diagnostic record for a word against its plane: analyze_words
    for one word, which reads the lines through its support."""
    _check_words([word], plane)
    return _analysis(word, plane, *_support_statistics(word, plane), override_non_dual)


def analyze_words(
    words, plane: Plane, override_non_dual: bool = False
) -> Iterator[WordAnalysis]:
    """analyze(w, plane, override_non_dual) for each word, in order.

    The words share one prime, the plane's characteristic (else
    AnalyzeError), and the plane's length (else LengthMismatchError), both
    checked before the first record.  A lone word reads the lines through
    its support; two or more go in chunks of _CHUNK_WORDS through exact
    products with the incidence, which cost less per word in a batch but
    more for one word alone."""
    words = list(words)
    if not words:
        return
    _check_words(words, plane)
    # line sums, line counts, x, y, z of the words of a chunk, reused by the chunks
    n = min(len(words), _CHUNK_WORDS)
    buffers = np.empty((5, n, plane.npoints), dtype=np.int64) if n > 1 else None
    for start in range(0, len(words), _CHUNK_WORDS):
        chunk = words[start : start + _CHUNK_WORDS]
        if len(chunk) == 1:
            stats = [_support_statistics(chunk[0], plane)]
        else:
            stats = _product_statistics(chunk, plane, buffers)
        for w, (witness, line_counts, x, y, z) in zip(chunk, stats):
            yield _analysis(w, plane, witness, line_counts, x, y, z, override_non_dual)


def _check_words(words: list[CodeWord], plane: Plane) -> None:
    """Raise unless the words share one prime, the characteristic of the
    plane, and the plane's length."""
    p = words[0].p
    if any(w.p != p for w in words):
        raise AnalyzeError(f"the words mix the primes {sorted({w.p for w in words})}")
    char = prime_of_power(plane.order)
    if p != char:
        raise AnalyzeError(
            f"word prime {p} is not the characteristic {char} of a plane of order {plane.order}"
        )
    for w in words:
        if w.length != plane.npoints:
            raise LengthMismatchError(
                f"word length {w.length} does not match plane with {plane.npoints} points"
            )


def _support_statistics(w: CodeWord, plane: Plane):
    """(witness, line counts, x, y, z) of one word, read over the lines
    through its support."""
    line_counts = plane.line_counts(w.support)
    rows = np.take(line_counts, plane.point_lines_arr[w.support])  # the lines through each point
    x, y, z = ((rows == k).sum(axis=1) for k in (2, 3, 4))
    return is_dual_word(w, plane)[1], line_counts, x, y, z


def _incidence_block(plane: Plane, points: np.ndarray) -> np.ndarray:
    """The 0/1 incidence of the points (rows) with every line (columns)."""
    block = np.zeros((points.size, plane.npoints), dtype=np.uint8)
    block[np.arange(points.size)[:, None], plane.point_lines_arr[points]] = 1
    return block


def _product_statistics(words: list[CodeWord], plane: Plane, buffers: np.ndarray):
    """(witness, line counts, x, y, z) of each word of a chunk, from five
    exact products (codes.exact_matmul) with the incidence I of the points
    of U, the union of the supports, with the lines: the line sums (values
    on U) @ I, whose first line not 0 mod p is the witness, and the line
    counts (support on U) @ I, then x, y and z as (counts == k) @ I.T for
    k = 2, 3, 4, read at each word's support.  I is built in blocks of
    points, once for the sums and counts and once for x, y, z.  The line
    sums stay in buffers[0] until the next chunk."""
    p, n = words[0].p, len(words)
    values = np.stack([w.values for w in words])
    union = np.flatnonzero(values.any(axis=0))
    step = max(1, _BLOCK_CELLS // plane.npoints)
    blocks = [union[s : s + step] for s in range(0, union.size, step)]
    buf = buffers[:, :n]
    buf.fill(0)
    sums, counts, secants = buf[0], buf[1], buf[2:]
    for points in blocks:
        on_u = values[:, points]
        both = exact_matmul(np.concatenate([on_u, on_u != 0]), _incidence_block(plane, points), p)
        sums += both[:n]
        counts += both[n:]
    # x, y and z read only the lines that meet some support in 2, 3 or 4
    # points: none, on the dense random dual words of PG(2,25)
    near = np.flatnonzero(((counts >= 2) & (counts <= 4)).any(axis=0))
    if near.size:
        kinds = (counts[:, near] == np.array([2, 3, 4])[:, None, None]).reshape(3 * n, -1)
        for points in blocks:
            got = exact_matmul(kinds, _incidence_block(plane, points)[:, near].T, p)
            secants[:, :, points] = got.reshape(3, n, -1)
    bad = sums % p != 0
    first = bad.argmax(axis=1)
    dual = ~bad[np.arange(n), first]
    for i, w in enumerate(words):
        x, y, z = secants[:, i, w.support]
        yield None if dual[i] else int(first[i]), counts[i].copy(), x, y, z


def _analysis(
    word: CodeWord, plane: Plane, witness, line_counts, x, y, z, override_non_dual: bool
) -> WordAnalysis:
    """The record of a word from its line statistics (the witness is None
    for a dual word): canonical scaling, colours, mu and the checklist."""
    p = word.p
    dual = witness is None
    if not dual and not override_non_dual:
        raise NotDualWordError(f"word is not in the dual code; witness line {witness}")
    support = word.support
    canonical = canonicalize(word, x, support)
    sizes = np.bincount(canonical.values[support], minlength=p).tolist()
    square = plane.order == p * p
    epsilon = word.weight - (2 * p * p - 2 * p + 2) if square else None

    a = WordAnalysis(
        word=word,
        canonical=canonical,
        p=p,
        weight=word.weight,
        epsilon=epsilon,
        in_band=square and dual and 1 <= epsilon <= p - 2,
        dual=dual,
        witness=witness,
        tangents=int((line_counts == 1).sum()),
        colours={lam: n for lam, n in enumerate(sizes) if lam and n},
        mu=canonical.mu(),
        mu_neg=int(np.remainder(-canonical.values[support], p).sum()),  # mu(-c), its symbols in [0, p)
        x=x,
        y=y,
        z=z,
        support=support,
        line_counts=line_counts,
    )
    _run_checklist(a, plane)
    a.classification = _classify(a)
    return a


# The checklist.  Each check states its hypothesis once, as a sequence of
# (condition, reason) pairs: the first condition the word fails makes the
# check na with that reason; a word that meets them all gets the test's
# (ok, detail).  Every hypothesis but ANY starts with DUAL.
ANY = ()
DUAL = ((lambda a: a.dual, "non-dual word"), (lambda a: a.weight > 0, "zero word"))
BAND = DUAL + ((lambda a: a.in_band, "outside the weight band"),)
ODD_BAND = DUAL + ((lambda a: a.in_band and a.p > 2, "needs odd p and the weight band"),)
TWO_COLOURS = DUAL + (
    (lambda a: a.in_band and set(a.colours) == {1, a.p - 1}, "needs exactly the colours {1, p-1}"),
)
SMALL_EPS = DUAL + (
    (lambda a: a.in_band and a.epsilon in (1, 2) and a.p >= 7, "needs eps in {1,2} and p >= 7"),
)


def _summu(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (a) mu(c) + mu(-c) = p * weight: an identity for every vector
    return a.mu + a.mu_neg == a.p * a.weight, f"{a.mu}+{a.mu_neg} vs p*w={a.p * a.weight}"


def _clmod(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (b) per-line mu(c|l) = 0 mod p; c is a unit multiple of the word, so the
    # lines where c's values sum to nonzero are the word's
    return a.witness is None, "" if a.witness is None else f"line {a.witness}"


def _cmod(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (c) mu(c) = 0 mod p
    return a.mu % a.p == 0, f"mu={a.mu}"


def _no_tangents(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # dual words admit no tangent lines
    return a.tangents == 0, f"{a.tangents} tangents"


def _two_secants(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (d) x_P >= 2p+1-eps for all support points
    bound = 2 * a.p + 1 - a.epsilon
    return bool((a.x >= bound).all()), f"min x={int(a.x.min())}, bound {bound}"


def _even_colours(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (e) an even number of colours
    return len(a.colours) % 2 == 0, f"{len(a.colours)} colours"


def _boundmu(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (f) |mu(c) - mu(-c)| <= eps * p
    diff = abs(a.mu - a.mu_neg)
    return diff <= a.epsilon * a.p, f"|diff|={diff} vs {a.epsilon * a.p}"


def _gap_0_or_p(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (g) two-colour class size gap in {0, p}
    gap = abs(a.colours[1] - a.colours[a.p - 1])
    return gap in (0, a.p), f"gap={gap}"


def _secant_counts(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (h) secant count inequalities and the exact 2-secant identity
    p, eps = a.p, a.epsilon
    ok1 = bool((2 * a.x + a.y >= p * p + 2 * p + 2 - eps).all())
    ok2 = bool((3 * a.x + 2 * a.y + a.z >= 2 * p * p + 2 * p + 3 - eps).all())
    rows = np.take(a.line_counts, plane.point_lines_arr[a.support])  # the lines through each point
    correction = ((rows - 3) * (rows >= 4)).sum(axis=1)
    ok3 = bool((a.x == 2 * p + 1 - eps + correction).all())
    return ok1 and ok2 and ok3, f"{ok1},{ok2},{ok3}"


def _class_vs_2secants(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (i) x_A <= |K_{p-lambda}| for A in K_lambda
    vals = a.canonical.values[a.support]
    sizes = np.zeros(a.p + 1, dtype=np.int64)
    sizes[list(a.colours)] = list(a.colours.values())
    over = np.flatnonzero(a.x > sizes[a.p - vals])
    if not over.size:
        return True, ""
    i = int(over[0])
    lam = a.p - int(vals[i])
    return False, f"point {int(a.support[i])}: x={int(a.x[i])} > |K_{lam}|={int(sizes[lam])}"


def _kvsx_conditionals(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    """If an opposite class has size 2p+1-eps, every point of the class has
    exactly that many 2-secants and lies only on 2- and 3-secants, with the
    opposite class exactly the far ends of its 2-secants; size 2p+2-eps
    forces one 4-secant and p^2-2p-2+eps 3-secants instead.  These are
    implications on the concrete word; their hypotheses are often vacuous."""
    p, eps = a.p, a.epsilon
    values = a.canonical.values
    vals = values[a.support]
    low = 2 * p + 1 - eps
    for i in np.flatnonzero(a.x == low):
        if a.colours.get(p - int(vals[i]), 0) != low:
            return False, f"x({int(a.support[i])}) minimal but opposite class size differs"
    for lam in a.colours:
        opp = a.colours.get(p - lam, 0)
        members = np.flatnonzero(vals == lam)
        if opp == low:
            opp_pts = set(a.support[vals == p - lam].tolist())
            for i in members:
                pt = int(a.support[i])
                if int(a.x[i]) != low:
                    return False, f"colour {lam}: x({pt}) != 2p+1-eps"
                if int(a.z[i]) != 0 or int(a.x[i] + a.y[i]) != plane.order + 1:
                    return False, f"colour {lam}: point {pt} not on 2/3-secants only"
                through = plane.point_lines_arr[pt]
                ends = plane.lines_arr[through[a.line_counts[through] == 2]]
                if set(ends[(values[ends] != 0) & (ends != pt)].tolist()) != opp_pts:
                    return False, f"colour {lam}: 2-secant ends differ from opposite class"
        if opp == low + 1:
            for i in members:
                if (a.x[i], a.z[i], a.y[i]) != (low + 1, 1, p * p - 2 * p - 2 + eps):
                    return False, f"colour {lam}: point {int(a.support[i])} profile mismatch"
    return True, ""


def _colour_graph(a: WordAnalysis, plane: Plane) -> tuple[bool, str]:
    # (j) colour graph components: at most 2, and if 2, one holds (p+1)/2
    comps = a.colour_components
    ok = len(comps) <= 2 and (len(comps) < 2 or any((a.p + 1) // 2 in c for c in comps))
    return ok, f"{len(comps)} components"


# name, hypothesis, test; in report order
CHECKLIST = (
    ("summu", ANY, _summu),
    ("clmod", DUAL, _clmod),
    ("cmod", DUAL, _cmod),
    ("no_tangents", DUAL, _no_tangents),
    ("2secants", BAND, _two_secants),
    ("even_colours", ODD_BAND, _even_colours),
    ("boundmu", BAND, _boundmu),
    ("gap_0_or_p", TWO_COLOURS, _gap_0_or_p),
    ("secant_counts", BAND, _secant_counts),
    ("class_vs_2secants", ODD_BAND, _class_vs_2secants),
    ("class_structure_implications", ODD_BAND, _kvsx_conditionals),
    ("colour_graph", SMALL_EPS, _colour_graph),
)


def _run_checklist(a: WordAnalysis, plane: Plane) -> None:
    a.colour_components = ColourGraph(a.p).components(a.colours)
    for name, hypothesis, test in CHECKLIST:
        reason = next((why for holds, why in hypothesis if not holds(a)), None)
        if reason:
            a.checks.append(CheckResult(name, NA, reason))
        else:
            ok, detail = test(a, plane)
            a.checks.append(CheckResult(name, PASS if ok else FAIL, detail))


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


def extract_baer(word: CodeWord, plane: Plane) -> tuple[SubplaneResult, int]:
    """Rebuild the Baer subplane and secant behind an extremal two-colour word.

    Requires a dual two-colour word with class sizes p^2 and p^2-p (weight
    2p^2-p).  Returns (subplane, secant line index) such that the word is a
    scalar multiple of subplane-minus-secant.
    """
    a = analyze(word, plane)
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
    line = plane.lines_arr[secant].tolist()
    if not set(line).isdisjoint(k_big.tolist()):
        raise StructureMismatchError("secant line meets the large class")
    aa = [pt for pt in line if pt not in small_set]
    if len(aa) != p + 1:
        raise StructureMismatchError("secant remainder is not p+1 points", f"{len(aa)}")
    sub = subplane_result_from_points(plane, frozenset(k_big.tolist()) | frozenset(aa), p)
    if sub is None:
        raise StructureMismatchError("reassembled point set is not a subplane", f"of order {p}")
    if not _scalar_multiple(word, _set_diff(plane, sub.points, line)):
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
    word: CodeWord, plane: Plane
) -> tuple[tuple[tuple[int, ...], AntipodalPlane], tuple[tuple[int, ...], AntipodalPlane]]:
    """Split an equal-two-colour word of weight 2p^2-2p+4 into its two point
    classes and validate each, with its induced p-secant line structure, as
    an antipodal plane of order p-1."""
    a = analyze(word, plane)
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
