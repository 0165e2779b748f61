"""Exact GF(p) linear algebra for plane codes.

The p-ary code of a plane is the row space of its line-point incidence
matrix over GF(p).  Codes are stored as reduced-row-echelon generator
matrices (numpy int64 residues); code words are residue vectors with a
cached support.  Minimum weights of tiny codes are found by exhausting the
message space in vectorized chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import prime_of_power
from .geometry import Plane

DEFAULT_ENUM_BUDGET = 2**24


class CodesError(ValueError):
    pass


class PrimeMismatchError(CodesError):
    pass


class LengthMismatchError(CodesError):
    pass


class BudgetExceededError(CodesError):
    def __init__(self, k: int, p: int, budget: int):
        self.k, self.p, self.budget = k, p, budget
        super().__init__(
            f"enumerating p^k = {p}^{k} words exceeds the budget of {budget}; "
            "use construction-based bounds instead"
        )


# Column-panel width of the elimination kernel.
_PANEL = 64
# Integers below 2^53 are exact in IEEE double precision, so a floating-point
# sum of nonnegative integer terms that stays below it is exact in any order
# of summation (BLAS blocking, FMA): it is the integer itself, on every run.
_FLOAT_LIMIT = 1 << 53
# Entries per column slice of the trailing update: the temporary of each
# slice stays at 8 MB.
_SLICE_ENTRIES = 1 << 20


def _fits(terms: int, p: int, limit: int) -> bool:
    """True iff a residue plus `terms` products of residues mod p stays below limit."""
    return terms * (p - 1) ** 2 + p < limit


def exact_matmul(a: np.ndarray, b: np.ndarray, p: int, largest: int | None = None) -> np.ndarray:
    """a @ b exactly, as int64, for 2-D matrices a and b of entries in (-p, p),
    or of nonnegative entries whose every sum the caller bounds by `largest`.

    One float64 BLAS product, whose sums stay below 2^53 in magnitude, then
    an exact cast to int64.  Raises CodesError when the inner dimension, or
    `largest`, would let them reach that bound.
    """
    if largest is not None:
        if largest >= _FLOAT_LIMIT:
            raise CodesError(f"sums of up to {largest} are not exact in float64 (bound 2^53)")
    elif not _fits(a.shape[1], p, _FLOAT_LIMIT):
        raise CodesError(f"an inner dimension of {a.shape[1]} at p = {p} is not exact in float64")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p exactly, as residues in [0, p) in int64, for 2-D matrices
    a and b of entries in (-p, p): exact_matmul reduced mod p, with its
    CodesError when the inner dimension is too long for an exact product."""
    prod = exact_matmul(a, b, p)
    prod %= p
    return prod


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns).

    Blocked, with delayed reduction as in FFLAS-FFPACK.  Inside each panel of
    _PANEL columns, int32 row operations act on the panel and on multipliers
    Z over the panel's pivot rows as the panel found them (V).  The block
    [panel | Z] is held transposed, one contiguous array row per column, so
    a pivot step updates one contiguous block.  A pivot at panel column c,
    the j-th of its panel, updates only columns c .. w+j of [panel | Z]: in
    the pivot row the earlier panel columns are 0 mod p and the later Z
    columns are 0, so skipping them changes no residue.  Only the pivot
    column and row are reduced per step, the panel once at its end; each
    step grows |entries| by at most (p-1)^2, so _PANEL*(p-1)^2 + p < 2^31
    keeps them exact in int32.  The trailing columns T are then updated
    once: T <- keep*T + Z@V, keep being 0 on the pivot rows, with a panel's
    columns reduced when the panel starts and V before each update.  T is
    float64 and Z@V a BLAS product.  T's entries are nonnegative and grow by
    at most (p-1)^2 per pivot, so cols*(p-1)^2 + p < 2^53 keeps every entry
    an exact integer without ever reducing T as a whole.  A matrix outside
    either bound is refused before anything is allocated; both hold for
    every plane the package builds or reads (p <= 4093, cols <= 4093^2+4093+1).
    A float64 block is reduced by an exact cast to int64 and an int64
    remainder, a fraction of the cost of a float one.  The update runs in
    column slices of _SLICE_ENTRIES entries, so its temporaries stay at 8 MB
    whatever the size of T.
    """
    mat = np.asarray(mat)
    rows, cols = mat.shape
    if not _fits(cols, p, _FLOAT_LIMIT):
        raise CodesError(
            f"{cols} columns at p = {p} are too large for the float64 elimination kernel"
        )
    if not _fits(_PANEL, p, 1 << 31):
        raise CodesError(f"p = {p} is too large for the int32 panels of the elimination kernel")
    m = np.empty(mat.shape, dtype=np.float64)
    if mat.size and 0 <= mat.min() and mat.max() < p:
        m[...] = mat  # residues (the uint8 incidence matrix) load as they are
    else:
        # p as an int64 scalar: a p above 255 cannot overflow a uint8 input
        np.remainder(mat, np.int64(p), out=m)
    pivots: list[int] = []
    r = 0
    for c0 in range(0, cols, _PANEL):
        if r >= rows:
            break
        c1 = min(c0 + _PANEL, cols)
        w = c1 - c0
        a = np.zeros((2 * w, rows), dtype=np.int32)  # [panel | Z], transposed
        a[:w] = (m[:, c0:c1].astype(np.int64) % p).T
        src: list[int] = []  # rows holding this panel's pivots
        for c in range(w):
            if r >= rows:
                break
            col = a[c] % p
            nz = np.flatnonzero(col[r:])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[:, [r, i]] = a[:, [i, r]]
                m[[r, i]] = m[[i, r]]
                col[[r, i]] = col[[i, r]]
            e = w + len(src)  # this pivot's Z column
            a[e, r] = 1
            src.append(r)
            row = a[c : e + 1, r] % p * pow(int(col[r]), p - 2, p) % p
            a[c : e + 1, r] = row
            col[r] = 0
            a[c : e + 1] -= np.outer(row, col)  # grows |a| by at most (p-1)^2
            pivots.append(c0 + c)
            r += 1
        a %= p
        m[:, c0:c1] = a[:w].T
        if src and c1 < cols:
            t = m[:, c1:]
            step = max(1, _SLICE_ENTRIES // rows)
            v = t[src]  # the pivot rows as the panel found them
            np.remainder(v.astype(np.int64, copy=False), p, out=v)
            t[src] = 0
            z = a[w : w + len(src)].T.astype(np.float64)
            for j in range(0, t.shape[1], step):
                t[:, j : j + step] += z @ v[:, j : j + step]
    out = m[:r].astype(np.int64)
    out %= p
    return out, pivots


def _kernel_rows(rref: np.ndarray, pivots: list[int], cols: int, p: int) -> np.ndarray:
    """The kernel basis e_f - sum_j rref[j, f] e_{pivots[j]}, one row per free column f."""
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-rref[:, free].T) % p
    return basis


class CodeWord:
    """A vector over GF(p) indexed by plane points, with a sparse support view."""

    __slots__ = ("p", "values", "_support")

    def __init__(self, p: int, values: np.ndarray):
        self.p = p
        self.values = np.asarray(values, dtype=np.int64) % p
        self.values.flags.writeable = False
        self._support: np.ndarray | None = None

    @property
    def length(self) -> int:
        return int(self.values.shape[0])

    @property
    def support(self) -> np.ndarray:
        if self._support is None:
            self._support = np.flatnonzero(self.values)
        return self._support

    @property
    def weight(self) -> int:
        return int(self.support.size)

    def mu(self) -> int:
        """Sum of the symbols as integers (representatives in [0,p))."""
        return int(self.values.sum())

    def neg(self) -> "CodeWord":
        return CodeWord(self.p, -self.values)

    def scale(self, lam: int) -> "CodeWord":
        return CodeWord(self.p, self.values * (lam % self.p))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CodeWord)
            and self.p == other.p
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"CodeWord(p={self.p}, len={self.length}, weight={self.weight})"


def word_diff(v1: CodeWord, v2: CodeWord) -> CodeWord:
    if v1.p != v2.p or v1.length != v2.length:
        raise LengthMismatchError("word arithmetic needs matching p and length")
    return CodeWord(v1.p, v1.values - v2.values)


def indicator(points, length: int, p: int) -> CodeWord:
    v = np.zeros(length, dtype=np.int64)
    v[list(points)] = 1
    return CodeWord(p, v)


@dataclass(frozen=True)
class LinearCode:
    """A code given by a full-rank RREF generator matrix."""

    p: int
    length: int
    generator: np.ndarray  # k x length, RREF

    @property
    def dimension(self) -> int:
        return int(self.generator.shape[0])

    def __repr__(self) -> str:
        return f"LinearCode(p={self.p}, length={self.length}, dim={self.dimension})"


def incidence_matrix(plane: Plane) -> np.ndarray:
    """Line-by-point 0/1 incidence matrix (uint8: rref_mod_p copies it into
    its own working matrix)."""
    N = plane.npoints
    a = np.zeros((N, N), dtype=np.uint8)
    rows = np.repeat(np.arange(N), plane.order + 1)
    a[rows, plane.lines_arr.ravel()] = 1
    return a


def code_of_plane(plane: Plane, p: int) -> LinearCode:
    """The p-ary code of the plane: GF(p)-span of the incidence rows."""
    char = prime_of_power(plane.order)
    if p != char:
        raise PrimeMismatchError(
            f"p = {p} is not the characteristic {char} of a plane of order {plane.order}"
        )
    rref, pivots = rref_mod_p(incidence_matrix(plane), p)
    return LinearCode(p, plane.npoints, rref)


def dual_basis(code: LinearCode) -> LinearCode:
    """The dual code, as an RREF basis; orthogonality is verified.

    One elimination, of the generator with its columns reversed.  There the
    kernel row of a free column f ends with the 1 at f and is 0 at every
    other free column, so flipping columns and rows back gives the RREF.
    """
    p, n = code.p, code.length
    rref, pivots = rref_mod_p(code.generator[:, ::-1], p)
    dual = np.ascontiguousarray(_kernel_rows(rref, pivots, n, p)[::-1, ::-1])
    if dual.shape[0] != n - code.dimension:
        raise CodesError("dual basis has wrong dimension")  # pragma: no cover
    if matmul_mod_p(code.generator, dual.T, p).any():
        raise CodesError("dual basis is not orthogonal to the code")
    return LinearCode(p, n, dual)


def line_sums(w: CodeWord, plane: Plane) -> np.ndarray:
    """For every line, the sum of w's values (representatives in [0,p)) on
    it, as int64: added up over the lines through the support, so the cost
    follows the weight of w, not the size of the plane."""
    if w.length != plane.npoints:
        raise LengthMismatchError(
            f"word length {w.length} does not match plane with {plane.npoints} points"
        )
    support = w.support
    sums = np.zeros(plane.npoints, dtype=np.int64)
    lines = plane.point_lines_arr[support].ravel()
    np.add.at(sums, lines, np.repeat(w.values[support], plane.order + 1))
    return sums


def is_dual_word(w: CodeWord, plane: Plane) -> tuple[bool, int | None]:
    """True iff every line's dot product with w vanishes; on False, the
    witness is the first line whose values do not sum to 0 mod p."""
    bad = np.flatnonzero(line_sums(w, plane) % w.p)
    return not bad.size, int(bad[0]) if bad.size else None


@dataclass
class MinWeightResult:
    min_weight: int
    words: list[CodeWord]
    words_checked: int


def enumerate_min_weight(
    code: LinearCode, budget: int = DEFAULT_ENUM_BUDGET
) -> MinWeightResult:
    """Exact minimum nonzero weight by full enumeration of the message space.

    Words are generated in vectorized chunks of messages; the returned list
    holds every minimum-weight word, sorted lexicographically by values.
    """
    p, k, n = code.p, code.dimension, code.length
    if k == 0:
        raise CodesError("the zero code has no nonzero words")
    total = p**k
    if total > budget:
        raise BudgetExceededError(k, p, budget)
    gen = code.generator
    chunk = 1 << 14
    best = n + 1
    found: list[np.ndarray] = []
    powers = p ** np.arange(k, dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        msgs = (np.arange(start, stop, dtype=np.int64)[:, None] // powers[None, :]) % p
        words = matmul_mod_p(msgs, gen, p)
        weights = np.count_nonzero(words, axis=1)
        if start == 0:
            weights[0] = n + 1  # skip the zero word
        wmin = int(weights.min())
        if wmin < best:
            best = wmin
            found = []
        if wmin <= best:
            found.extend(words[weights == best])
    found_sorted = sorted((tuple(v) for v in found))
    return MinWeightResult(
        best,
        [CodeWord(p, np.array(v, dtype=np.int64)) for v in found_sorted],
        total,
    )
