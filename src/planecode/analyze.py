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

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

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


@dataclass(frozen=True)
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
        statuses = [c.status for c in self.checks]
        return {s: statuses.count(s) for s in (PASS, NA, FAIL)}

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


# The batch path works on chunks of _CHUNK_WORDS words and on blocks of
# points whose incidence with the lines has at most _BLOCK_CELLS cells: it
# holds three chunk x N int64 arrays and one block at a time (2 MB of double
# precision in a product), so no temporary grows with N^2.
_CHUNK_WORDS = 64
_BLOCK_CELLS = 1 << 18


class _ChunkStatistics(NamedTuple):
    """The line statistics of a chunk of words.  The support entries of the
    words are concatenated in word order, each tagged with its word."""

    witnesses: list  # per word: the first line not 0 mod p, None for a dual word
    line_counts: np.ndarray  # words x N: |line cap support|
    owner: np.ndarray  # per entry: the index of its word in the chunk
    values: np.ndarray  # per entry: the word's value there
    secants: np.ndarray  # per entry: x + S*y + S^2*z at its point (_secant_code)


def analyze(word: CodeWord, plane: Plane, override_non_dual: bool = False) -> WordAnalysis:
    """Full diagnostic record for a word against its plane: analyze_words
    for a chunk of one word."""
    return next(analyze_words([word], plane, override_non_dual))


def analyze_words(
    words, plane: Plane, override_non_dual: bool = False
) -> Iterator[WordAnalysis]:
    """analyze(w, plane, override_non_dual) for each word, in order.

    The words share one prime, the plane's characteristic (else
    AnalyzeError), and the plane's length (else LengthMismatchError), both
    checked before the first record.  A lone word reads the lines through
    its support; two or more go in chunks of _CHUNK_WORDS through exact
    products with the incidence, which cost less per word in a batch but
    more for one word alone.  Either way the rest of each chunk is computed
    once over the concatenated supports (_records)."""
    words = list(words)
    if not words:
        return
    _check_words(words, plane)
    # line sums, line counts and secant codes of a chunk's words, reused by the chunks
    n = min(len(words), _CHUNK_WORDS)
    buffers = np.empty((3, n, plane.npoints), dtype=np.int64) if n > 1 else None
    for start in range(0, len(words), _CHUNK_WORDS):
        chunk = words[start : start + _CHUNK_WORDS]
        if len(chunk) == 1:
            stats = _support_statistics(chunk[0], plane)
        else:
            stats = _product_statistics(chunk, plane, buffers)
        yield from _records(chunk, plane, stats, override_non_dual)


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


def _encoding_base(plane: Plane, p: int) -> int:
    """B = (q+1)(p-1) + 1: a line's values sum to less than B, so v + B*[v != 0]
    summed over a line is its sum plus B times its count, read back by divmod."""
    return (plane.order + 1) * (p - 1) + 1


@functools.lru_cache(maxsize=8)
def _secant_code(order: int) -> np.ndarray:
    """The code of a line met in k = 0..q+1 points: 1, S or S^2 for k = 2,
    3, 4 and 0 for any other k, with S = q+2.  A point is on q+1 lines, so
    the codes of its lines sum to x + S*y + S^2*z with x, y, z < S."""
    s = order + 2
    code = np.zeros(max(s, 5), dtype=np.int64)
    code[2:5] = (1, s, s * s)
    code.flags.writeable = False
    return code


def _support_statistics(w: CodeWord, plane: Plane) -> _ChunkStatistics:
    """The statistics of one word, added up over the lines through its
    support: one encoded sum per line gives its sum and count."""
    support, p, base = w.support, w.p, _encoding_base(plane, w.p)
    values = w.values[support]
    lines = plane.point_lines_arr[support]  # the lines through each point
    encoded = np.zeros(plane.npoints, dtype=np.int64)
    np.add.at(encoded, lines.ravel(), np.repeat(values + base, plane.order + 1))
    counts, sums = np.divmod(encoded, base)
    secants = _secant_code(plane.order).take(counts).take(lines).sum(axis=1)
    bad = np.flatnonzero(sums % p)
    witness = int(bad[0]) if bad.size else None
    owner = np.zeros(support.size, dtype=np.intp)
    return _ChunkStatistics([witness], counts[None], owner, values, secants)


def _incidence_block(plane: Plane, points: np.ndarray) -> np.ndarray:
    """The 0/1 incidence of the points (rows) with every line (columns)."""
    block = np.zeros((points.size, plane.npoints), dtype=np.uint8)
    block[np.arange(points.size)[:, None], plane.point_lines_arr[points]] = 1
    return block


def _product_statistics(
    words: list[CodeWord], plane: Plane, buffers: np.ndarray
) -> _ChunkStatistics:
    """The statistics of a chunk from exact products (codes.exact_matmul)
    with the incidence I of the points of U, the union of the supports, with
    the lines.  One product (v + B*[v != 0] on U) @ I gives each line's sum
    and count (_encoding_base); the witness is the first line whose sum is
    not 0 mod p.  One product (code of each line's count) @ I.T gives x, y
    and z (_secant_code), read at each support.  I is built in blocks of
    points, once for each product.  The line sums stay in buffers[0] until
    the next chunk."""
    p, n, q = words[0].p, len(words), plane.order
    base = _encoding_base(plane, p)
    values = np.stack([w.values for w in words])
    on = values != 0  # the supports; read row by row, they are in word order
    union = np.flatnonzero(on.any(axis=0))
    step = max(1, _BLOCK_CELLS // plane.npoints)
    blocks = [union[s : s + step] for s in range(0, union.size, step)]
    sums, counts, secants = buffers[:, :n]
    counts.fill(0)
    for points in blocks:
        on_u = values[:, points]
        on_u += base * (on_u != 0)
        # q+1 points on a line, each at most B + p - 1
        counts += exact_matmul(on_u, _incidence_block(plane, points), p, (q + 1) * (base + p - 1))
    np.divmod(counts, base, out=(counts, sums))
    # x, y and z read only the lines that meet some support in 2, 3 or 4
    # points: none, on the dense random dual words of PG(2,25)
    near = np.flatnonzero(((counts >= 2) & (counts <= 4)).any(axis=0))
    if near.size:
        codes = _secant_code(q).take(counts[:, near])
        for points in blocks:
            # q+1 lines through a point, each of code at most S^2
            incidence = _incidence_block(plane, points)[:, near].T
            secants[:, points] = exact_matmul(codes, incidence, p, (q + 1) * (q + 2) ** 2)
        through = secants[on]
    else:
        through = np.zeros(np.count_nonzero(on), dtype=np.int64)
    bad = sums % p != 0
    first = bad.argmax(axis=1)
    found = bad[np.arange(n), first].tolist()
    witnesses = [line if b else None for line, b in zip(first.tolist(), found)]
    owner = np.repeat(np.arange(n), on.sum(axis=1))
    return _ChunkStatistics(witnesses, counts, owner, values[on], through)


@functools.lru_cache(maxsize=None)
def _residue_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """c^-1 mod p for c = 0..p-1 (0 at c = 0), and the columns lambda and
    -lambda mod p that turn colour class sizes into mu and mu_neg."""
    inverse = np.array([0] + [pow(c, p - 2, p) for c in range(1, p)], dtype=np.int64)
    symbols = np.arange(p)
    sums = np.stack([symbols, -symbols % p], axis=1)
    inverse.flags.writeable = sums.flags.writeable = False
    return inverse, sums


def _records(
    words: list[CodeWord], plane: Plane, stats: _ChunkStatistics, override_non_dual: bool
) -> Iterator[WordAnalysis]:
    """The records of a chunk.  Weights, the canonical scaling, colour class
    sizes, mu, mu_neg and tangents are computed once over the concatenated
    supports; the checklist and the classification run per record.

    Canonical scaling: the word is scaled by c^-1 for the support value c of
    least key, first whether it fails to be p - v for the value v of a
    support point of minimal x (so that, where it can, such a point lands
    in K_{p-1}), then the scaled value at the word's first support point.
    All scalings share the support and differ at each of its points, so
    this is the least value vector among the preferred scalings."""
    p, n = words[0].p, len(words)
    owner, values = stats.owner, stats.values
    xyz = stats.secants // _secant_code(plane.order)[2:5, None]  # 1, S, S^2
    xyz %= plane.order + 2
    inverse, symbol_sums = _residue_tables(p)
    own = np.bincount(owner * p + values, minlength=n * p).reshape(n, p)  # the words' value counts
    weights = own.sum(axis=1)
    ends = weights.cumsum()
    full = weights > 0
    starts = (ends - weights)[full]
    xmin = np.zeros(n, dtype=np.int64)
    first = np.zeros(n, dtype=np.int64)
    if starts.size:
        xmin[full] = np.minimum.reduceat(xyz[0], starts)
        first[full] = values[starts]
    at_min = xyz[0] == xmin[owner]
    # scaled by c^-1, a point of value v lands in K_{p-1} exactly when c = p - v
    preferred = np.zeros(n * p, dtype=bool)
    preferred[owner[at_min] * p + p - values[at_min]] = True
    key = first[:, None] * inverse % p + p * ~preferred.reshape(n, p)
    key[own == 0] = 2 * p  # a value no support point has is never chosen
    c = key.argmin(axis=1)
    scales = np.where(full, inverse[c], 1)
    # the scaled word's colour lambda is the word's value lambda * c
    colours = own[np.arange(n)[:, None], np.arange(p) * c[:, None] % p]
    mus, mus_neg = (colours @ symbol_sums).T  # mu(-c) has its symbols in [0, p)
    tangents = (stats.line_counts == 1).sum(axis=1)
    square = plane.order == p * p
    rows = zip(words, stats.witnesses, weights.tolist(), ends.tolist(), scales.tolist(),
               colours.tolist(), mus.tolist(), mus_neg.tolist(), tangents.tolist())
    for i, (w, witness, weight, end, scale, sizes, mu, mu_neg, tangent_count) in enumerate(rows):
        dual = witness is None
        if not dual and not override_non_dual:
            raise NotDualWordError(f"word is not in the dual code; witness line {witness}")
        epsilon = weight - (2 * p * p - 2 * p + 2) if square else None
        x, y, z = xyz[:, end - weight : end].copy()
        a = WordAnalysis(
            word=w,
            canonical=w if scale == 1 else w.scale(scale),
            p=p,
            weight=weight,
            epsilon=epsilon,
            in_band=square and dual and 1 <= epsilon <= p - 2,
            dual=dual,
            witness=witness,
            tangents=tangent_count,
            colours={lam: k for lam, k in enumerate(sizes) if lam and k},
            mu=mu,
            mu_neg=mu_neg,
            x=x,
            y=y,
            z=z,
            support=w.support,
            line_counts=stats.line_counts[i].copy(),
        )
        _run_checklist(a, plane)
        a.classification = _classify(a)
        yield a


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
    correction = np.maximum(rows - 3, 0).sum(axis=1)  # sum of k-3 over its k-secants, k >= 4
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


# one na result per (check, reason), shared by the records: CheckResult is frozen
_NA_RESULTS: dict[tuple[str, str], CheckResult] = {}


@functools.lru_cache(maxsize=1024)
def _colour_components(p: int, colours: frozenset) -> tuple[tuple[int, ...], ...]:
    return tuple(ColourGraph(p).components(colours))


def _run_checklist(a: WordAnalysis, plane: Plane) -> None:
    a.colour_components = list(_colour_components(a.p, frozenset(a.colours)))
    reasons = {}  # each distinct hypothesis is evaluated once
    for name, hypothesis, test in CHECKLIST:
        key = id(hypothesis)
        if key in reasons:
            reason = reasons[key]
        else:
            for holds, reason in hypothesis:
                if not holds(a):
                    break
            else:
                reason = None
            reasons[key] = reason
        if reason:
            result = _NA_RESULTS.get((name, reason)) or _NA_RESULTS.setdefault(
                (name, reason), CheckResult(name, NA, reason)
            )
        else:
            ok, detail = test(a, plane)
            result = CheckResult(name, PASS if ok else FAIL, detail)
        a.checks.append(result)


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
