"""Projective planes: generation of PG(2,q), ingestion, collineations,
Singer cycles, subplanes, slopes.

A plane of order n is stored as indexed point and line sets (both of size
n^2+n+1) with lines as sorted int32 rows of point indices.  Generated planes
keep homogeneous coordinates (triples of field element codes, normalized so
the first nonzero coordinate is 1) for points and lines; ingestion accepts
raw incidence rows and validates the plane axioms.

Point and line indexing of generated planes is lexicographic on the
normalized coordinate triples, so two constructions over equal fields are
identical.  Ingested planes keep file order.
"""

from __future__ import annotations

import functools
import itertools
import mmap
from dataclasses import dataclass

import numpy as np

from .field import Field

INGEST_ORDER_CAP = 49  # validated ingestion is capped at this plane order


class GeometryError(ValueError):
    pass


class BadShapeError(GeometryError):
    pass


class AxiomViolationError(GeometryError):
    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"plane axiom violated ({axiom}): witness {witness}")


class SamePointError(GeometryError):
    pass


class SameLineError(GeometryError):
    pass


class NotGeneratedError(GeometryError):
    pass


class NotSquareOrderError(GeometryError):
    pass


class NotThroughVertexError(GeometryError):
    pass


class TriangleSideError(GeometryError):
    pass


@dataclass(frozen=True)
class SubplaneResult:
    """A subplane: its point set, the ambient lines meeting it in m+1 points, its order."""

    points: tuple[int, ...]
    lines: tuple[int, ...]
    order: int


class Plane:
    """Immutable projective plane of order n; queries are read-only.

    A plane built here is ingested: it has no field and no coordinates.
    Only pg2 makes a generated plane, from its field alone."""

    def __init__(
        self,
        order: int,
        lines: np.ndarray | list[tuple[int, ...]],  # one row of point indices per line
    ):
        self.order = order
        self.npoints = order * order + order + 1
        self.source = "ingested"
        self.field: Field | None = None
        self.coords: tuple[tuple[int, int, int], ...] | None = None
        self.coords_arr: np.ndarray | None = None
        self.lines_arr, self.point_lines_arr = _checked_lines(lines, order)
        self._pair_line: np.ndarray | None = None
        self._pair_point: np.ndarray | None = None

    @functools.cached_property
    def lines(self) -> tuple[tuple[int, ...], ...]:
        """The points of each line as tuples, built on first read."""
        return _int_rows(self.lines_arr, self.npoints)

    @functools.cached_property
    def point_lines(self) -> tuple[tuple[int, ...], ...]:
        """The lines through each point as tuples, built on first read."""
        return _int_rows(self.point_lines_arr, self.npoints)

    # -- queries ----------------------------------------------------------------

    def is_incident(self, point: int, line: int) -> bool:
        N = self.npoints
        if not (0 <= point < N and 0 <= line < N):
            raise _outside(N, ("point", point), ("line", line))
        return line in self.point_lines_arr[point]

    def line_through(self, p: int, q: int) -> int:
        N = self.npoints
        if not (0 <= p < N and 0 <= q < N):
            raise _outside(N, ("point", p), ("point", q))
        if p == q:
            raise SamePointError(f"line_through needs two distinct points, got {p}")
        return self.pair_line().item(p, q)  # a Python int, without a numpy scalar

    def meet(self, l1: int, l2: int) -> int:
        N = self.npoints
        if not (0 <= l1 < N and 0 <= l2 < N):
            raise _outside(N, ("line", l1), ("line", l2))
        if l1 == l2:
            raise SameLineError(f"meet needs two distinct lines, got {l1}")
        return int(self.pair_point()[l1, l2])

    def pair_line(self) -> np.ndarray:
        """The join table (N x N, -1 on the diagonal), built on first use."""
        if self._pair_line is None:
            self._pair_line = _pair_table(self.lines_arr, self.npoints)
        return self._pair_line

    def pair_point(self) -> np.ndarray:
        """The meet table (N x N, -1 on the diagonal), built on first use."""
        if self._pair_point is None:
            self._pair_point = _pair_table(self.point_lines_arr, self.npoints)
        return self._pair_point

    def point_index(self, coord: tuple[int, int, int]) -> int:
        """The index of the point with homogeneous coordinates coord, any
        nonzero triple of field element codes (not only the normalised one)."""
        field = _field_of(self, "point_index")
        q = field.q
        if len(coord) != 3 or not any(coord) or not all(0 <= c < q for c in coord):
            raise GeometryError(f"{coord} is not a nonzero triple over GF({q})")
        return int(_point_indices(field, *coord))

    def line_counts(self, points) -> np.ndarray:
        """For every line l, |l & S| (int64), where S is the set of the points:
        counted over the lines through the points of S, so the cost follows |S|."""
        idx = np.asarray(list(points) if isinstance(points, (set, frozenset)) else points)
        if idx.size and (idx.min() < 0 or idx.max() >= self.npoints):
            raise GeometryError(f"a point index is outside 0..{self.npoints - 1}")
        in_s = np.zeros(self.npoints, dtype=bool)  # a repeated point counts once
        in_s[idx.astype(np.int64)] = True
        return np.bincount(self.point_lines_arr[in_s].ravel(), minlength=self.npoints)

    def __repr__(self) -> str:
        return f"Plane(order={self.order}, source={self.source!r})"


_CHUNK_CELLS = 1 << 17  # table cells per chunk when building a pair table
# marked cells per chunk of the pencil check, 256 KiB of intp: the check of
# PG(2,49) took 20.4 ms in chunks of 2^13, 16-17 ms from 2^14 to 2^16 and
# 17.6 ms at 2^17 (2-CPU Xeon, numpy 2.4)
_CHUNK_INCIDENCES = 1 << 15


def _outside(N: int, *indices: tuple[str, int]) -> GeometryError:
    """The error for the first (kind, index) outside 0..N-1: Python and
    numpy would read a negative index from the end."""
    kind, i = next((kind, i) for kind, i in indices if not 0 <= i < N)
    return GeometryError(f"{kind} index {i} is outside 0..{N - 1}")


def _checked_lines(lines, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The lines (point rows) as an int32 array with sorted rows, and the
    lines through each point, ascending.  Raises unless they form a
    projective plane of order n, for the first failing line: on its size or
    a repeated point, an index out of range, or its first pair (a, b) an
    earlier line j holds (witness (a, b, j, line))."""
    N = n * n + n + 1
    if n < 2:
        raise BadShapeError(f"plane order must be >= 2, got {n}")
    if len(lines) != N:
        raise BadShapeError(f"expected {N} lines, got {len(lines)}")
    stop = next((i for i, l in enumerate(lines) if len(l) != n + 1), N)
    arr = np.sort(np.array(lines[:stop], dtype=np.int32).reshape(stop, n + 1), axis=1)
    bad = (arr[:, 1:] == arr[:, :-1]).any(axis=1) | (arr[:, 0] < 0) | (arr[:, -1] >= N)
    stop = int(np.argmax(bad)) if bad.any() else stop
    if stop == N and (np.bincount(arr.ravel(), minlength=N) == n + 1).all():
        # each incidence as the key point*N + line: one sort lists every
        # point's lines in ascending order
        keys = np.sort(arr.ravel() * np.int64(N) + np.arange(N).repeat(n + 1))
        point_lines = (keys % N).astype(np.int32).reshape(N, n + 1)
        if _pencils_cover(arr, point_lines):
            return arr, point_lines
    # each pair a < b of the lines before stop as a key, in line order; a key
    # met earlier in that order is a pair an earlier line holds
    a, b = np.triu_indices(n + 1, 1)
    good = arr[:stop]
    keys = _pair_keys(good, N, a, b).ravel()
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if later.size:
        i, k = divmod(int(later.min()), len(a))
        j = int(np.flatnonzero(keys == keys[i * len(a) + k])[0]) // len(a)
        witness = (int(arr[i, a[k]]), int(arr[i, b[k]]), j, i)
        raise AxiomViolationError("two lines through two points", witness)
    l = tuple(sorted(lines[stop]))
    if len(l) != n + 1 or len(set(l)) != n + 1:
        raise AxiomViolationError("line size", (stop, l))
    raise BadShapeError(f"line {stop} has out-of-range point index")


def _pencils_cover(lines: np.ndarray, point_lines: np.ndarray) -> bool:
    """Whether the lines through each point cover every point, for N lines
    of n+1 distinct points with n+1 lines through each point.

    The n+1 lines through x hold x and (n+1)*n = N-1 other places, so they
    cover the plane iff no point shares two of them with x: over all x, iff
    no pair lies on two lines.  As N lines of n+1 points hold N*C(n+1,2) =
    C(N,2) pairs, each pair then lies on exactly one line, and as many
    (line pair, common point) incidences make any two lines meet once.
    A chunk of points marks a chunk x N byte map.  Its cell indices come
    from an intp copy of the lines, so the gather is already an index
    array and the row offsets are added in place: at most
    _CHUNK_INCIDENCES cells, or one pencil's (n+1)^2 when that is more."""
    N, k = point_lines.shape
    step = max(1, _CHUNK_INCIDENCES // (k * k))
    rows = (np.arange(step, dtype=np.intp) * N)[:, None, None]
    lines = lines.astype(np.intp)  # gathered cells are indices already, with no promotion
    for s in range(0, N, step):
        cells = lines[point_lines[s : s + step]]  # chunk x (n+1) x (n+1) points
        cells += rows[: len(cells)]  # point y of the pencil of s+i marks cell i*N + y
        seen = np.zeros(len(cells) * N, dtype=np.bool_)
        seen[cells.ravel()] = True
        if not seen.all():
            return False
    return True


def _pair_keys(rows: np.ndarray, N: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pairs (rows[:, a], rows[:, b]) of sorted rows as keys x*N + y (int64)."""
    keys = rows[:, a].astype(np.int64)
    keys *= N
    keys += rows[:, b]
    return keys


def _pair_table(rows: np.ndarray, N: int) -> np.ndarray:
    """The N x N table with i at (a, b) for distinct a, b in rows[i], else -1:
    the join over the lines' points, the meet over the points' lines."""
    # an anonymous map, returned whole when freed: in the malloc heap, where
    # glibc puts such tables once one has been freed, the freed space is kept
    # and fragments (peak RSS of a repeated acceptance suite rose by 10 MB)
    t = np.frombuffer(mmap.mmap(-1, 4 * N * N), dtype=np.int32).reshape(N, N)
    t.fill(-1)
    k = rows.shape[1]
    step = max(1, _CHUNK_CELLS // (k * k))
    for s in range(0, len(rows), step):
        r = rows[s : s + step]
        ids = np.arange(s, s + len(r), dtype=np.int32)
        t[r[:, :, None], r[:, None, :]] = ids[:, None, None]
    np.fill_diagonal(t, -1)
    return t


def _int_rows(arr: np.ndarray, N: int) -> tuple[tuple[int, ...], ...]:
    """The rows of an array of indices or -1 as tuples sharing one int object
    per value (ints[-1] is -1, the empty cells of the pair tables)."""
    ints = [*range(N), -1]
    return tuple(tuple(map(ints.__getitem__, row.tolist())) for row in arr)


def pg2(field: Field) -> Plane:
    """The Desarguesian plane PG(2,q) with deterministic lexicographic indexing.

    The one generated plane: its lines are computed here from the field, so
    point i's coordinates (coords, and coords_arr as an N x 3 array for the
    vectorised collineations) describe its incidence."""
    plane = Plane(field.q, _pg2_lines(field))  # its temporaries are freed before validation
    plane.source, plane.field = "generated", field
    plane.coords = _pg2_coords(field.q)
    plane.coords_arr = np.array(plane.coords, dtype=np.int64)
    return plane


def _pg2_coords(q: int) -> tuple[tuple[int, int, int], ...]:
    """The normalised coordinate triples of the points of PG(2,q) in index
    order: (0,0,1), then (0,1,z), then (1,y,z), each lexicographically."""
    pts: list[tuple[int, int, int]] = [(0, 0, 1)]
    pts += [(0, 1, z) for z in range(q)]
    pts += [(1, y, z) for y in range(q) for z in range(q)]
    return tuple(pts)


def _pg2_lines(field: Field) -> np.ndarray:
    """The point indices on each line of PG(2,q), unsorted; line i has the
    coordinates of point i (_pg2_coords)."""
    q = field.q
    mul, add, neg = field._mul_t, field._add_t, field._neg_t.tolist()
    # kernel basis v1, v2 of a*x + b*y + c*z = 0; the line's points are v2 and t*v2 + v1
    basis = [
        ((neg[b], 1, 0), (neg[c], 0, 1)) if a == 1
        else ((1, 0, 0), (0, neg[c], 1)) if b == 1
        else ((1, 0, 0), (0, 1, 0))
        for a, b, c in _pg2_coords(q)
    ]
    v1, v2 = np.array(basis, dtype=np.int32).swapaxes(0, 1)
    t = np.arange(q, dtype=np.int32)[None, :, None]
    w = np.concatenate([v2[:, None, :], add[mul[t, v2[:, None, :]], v1[:, None, :]]], axis=1)
    return _point_indices(field, w[..., 0], w[..., 1], w[..., 2])


def _point_indices(field: Field, x, y, z):
    """The point index of the nonzero triple (x, y, z), ints or arrays alike."""
    q, mul = field.q, field._mul_t
    # scale by the inverse of the leading coordinate (x, else y, else z), then
    # (0,0,1) -> 0, (0,1,z) -> 1+z, (1,y,z) -> 1+q+q*y+z; without branches, so a
    # single query costs no array round trip
    s = field._inv_t[x + (x == 0) * (y + (y == 0) * z)]
    return (x != 0) * (q + q * mul[s, y]) + ((x != 0) | (y != 0)) * (1 + mul[s, z])


def _field_of(plane: Plane, what: str) -> Field:
    """The field of a generated plane; an ingested plane raises."""
    if plane.field is None:
        raise NotGeneratedError(f"{what} needs a generated plane")
    return plane.field


def _half_degree(plane: Plane) -> int:
    """h/2 for a generated plane of order p^h with h even."""
    h = plane.field.h
    if h % 2:
        raise NotSquareOrderError(f"order {plane.order} is not a square of a subfield order")
    return h // 2


def collineation(plane: Plane, matrix, frob: int = 0) -> np.ndarray:
    """The point permutation g of x -> A x^(p^frob) on a generated PG(2,p^h):
    A is a nonsingular 3x3 matrix of field element codes, 0 <= frob < h, and
    g[i] is the index of the image of point i.  The image of a line is
    plane.pair_line()[g[a], g[b]] for any two distinct points a, b on it."""
    f = _field_of(plane, "collineation")
    A = np.array(matrix, dtype=object)
    over_field = all(isinstance(a, (int, np.integer)) and 0 <= a < f.q for a in A.flat)
    if A.shape != (3, 3) or not over_field:
        raise GeometryError(f"the matrix is not 3x3 over GF({f.q})")
    if not isinstance(frob, (int, np.integer)) or not 0 <= frob < f.h:
        raise GeometryError(f"frob must be in 0..{f.h - 1}, got {frob}")
    e = power = np.arange(f.q)
    if frob:  # x -> x^p by p-1 products, then applied frob times
        x_p = e
        for _ in range(f.p - 1):
            x_p = f._mul_t[x_p, e]
        for _ in range(frob):
            power = x_p[power]
    x = power[plane.coords_arr].T
    terms = f._mul_t[A.astype(np.int64)[:, :, None], x[None]]  # terms[r, c] = A[r, c] * x_c
    y = f._add_t[f._add_t[terms[:, 0], terms[:, 1]], terms[:, 2]]
    if not y.any(axis=0).all():
        raise GeometryError("the matrix is singular: it maps a point to zero")
    return _point_indices(f, *y)


def plane_from_incidence(rows: np.ndarray | list[list[int]], n: int) -> Plane:
    """Build a validated plane of order n from raw point-index rows (one per
    line): an integer array, or lists of ints of any size."""
    if n > INGEST_ORDER_CAP:
        raise BadShapeError(f"ingestion is capped at order {INGEST_ORDER_CAP}, got {n}")
    if isinstance(rows, np.ndarray):
        flat = rows.ravel()
    else:  # exact Python ints, whatever their size
        flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=object)
    if flat.size and (flat.min() < -(2**31) or flat.max() >= 2**31):
        raise BadShapeError("a point index does not fit in 32 bits")
    return Plane(n, rows)


# -- subplanes -------------------------------------------------------------------


def baer_subfield_subplane(plane: Plane) -> SubplaneResult:
    """The subplane of points with coordinates in the index-2 subfield.

    For a generated PG(2,p^(2d)) this is the canonical Baer subplane of
    order p^d: the points whose normalized coordinates are fixed by the
    half-order Frobenius.
    """
    f = _field_of(plane, "baer_subfield_subplane")
    d = _half_degree(plane)
    fixed = collineation(plane, np.eye(3, dtype=np.int64), frob=d) == np.arange(plane.npoints)
    res = subplane_result_from_points(plane, frozenset(np.flatnonzero(fixed).tolist()), f.p**d)
    if res is None:
        raise GeometryError(f"the GF({f.p}^{d}) points of {plane} are not a subplane")
    return res


def singer_cycle(plane: Plane) -> np.ndarray:
    """A collineation of a generated PG(2,q) that permutes the N points in one
    cycle (a Singer cycle): the first companion matrix, as a collineation,
    of a monic cubic x^3 + c2 x^2 + c1 x + c0 over GF(q) (c0 != 0, the
    triples (c2, c1, c0) in lexicographic order) whose cycle through point 0
    has length N.  The cubics that qualify are the primitive ones (Singer
    1938); walking the cycle is the certificate."""
    f, N = _field_of(plane, "singer_cycle"), plane.npoints
    for c2, c1, c0 in itertools.product(range(f.q), range(f.q), range(1, f.q)):
        companion = [[0, 0, f.neg(c0)], [1, 0, f.neg(c1)], [0, 1, f.neg(c2)]]
        g = collineation(plane, companion)
        if len(_cycle(g.tolist(), 0)) == N:
            return g
    raise GeometryError(f"no monic cubic over GF({f.q}) gives a Singer cycle")


def _cycle(perm: list[int], start: int) -> list[int]:
    """The cycle of a permutation through start: start, perm[start], ..."""
    walk = [start]
    x = perm[start]
    while x != start:
        walk.append(x)
        x = perm[x]
    return walk


def baer_partition(plane: Plane) -> list[SubplaneResult]:
    """The orbits of s^(m^2-m+1) on PG(2,m^2), s = singer_cycle(plane): the
    m^2-m+1 pairwise disjoint Baer subplanes that partition the points
    (Bruck 1960), each validated, listed in order of their least point."""
    m = _field_of(plane, "baer_partition").p ** _half_degree(plane)
    walk = _cycle(singer_cycle(plane).tolist(), 0)  # walk[k] is s^k(0), all N points
    step = m * m - m + 1
    members = []
    for j in range(step):  # the orbit of walk[j] is walk[j], walk[j + step], ...
        res = subplane_result_from_points(plane, frozenset(walk[j::step]), m)
        if res is None:
            raise GeometryError(f"the orbit of point {walk[j]} under s^{step} is not a Baer subplane")
        members.append(res)
    return sorted(members, key=lambda sub: sub.points[0])


def subplane_result_from_points(plane: Plane, pts: frozenset, m: int) -> SubplaneResult | None:
    """Validate a candidate point set as a subplane of order m; None if it is not one."""
    N = m * m + m + 1
    # order 1 would accept any triangle; a plane has order at least 2
    if m < 2 or len(pts) != N or min(pts) < 0 or max(pts) >= plane.npoints:
        return None
    counts = plane.line_counts(pts)
    # With every line meeting the set in 0, 1 or m+1 points, each of its
    # C(N,2) pairs lies on one secant and each secant holds C(m+1,2) of them,
    # so there are N(N-1)/(m(m+1)) = N secants, and the m^2+m points other
    # than a point x fall m to a secant through x: every degree is m+1.
    if not ((counts <= 1) | (counts == m + 1)).all():
        return None
    secants = np.flatnonzero(counts == m + 1)
    if secants.size != N:
        return None
    return SubplaneResult(tuple(sorted(pts)), tuple(secants.tolist()), m)


def _restricted_lines(plane: Plane, points, k: int) -> list[tuple[int, ...]]:
    """The lines meeting the distinct points in exactly k of them, in line
    order, each as the sorted positions of those points in the sequence."""
    counts = plane.line_counts(points)  # raises on an index out of range
    pos = np.full(plane.npoints, -1, dtype=np.int64)
    pos[np.asarray(points)] = np.arange(len(points))
    hits = pos[plane.lines_arr[counts == k]]
    return [tuple(r) for r in np.sort(hits[hits >= 0].reshape(-1, k), axis=1).tolist()]


# -- slopes, Menelaos, Ceva -------------------------------------------------------


def fundamental_triangle(plane: Plane) -> tuple[int, int, int]:
    """Indices of (1,0,0), (0,1,0), (0,0,1) in a generated plane."""
    _field_of(plane, "fundamental_triangle")
    return (
        plane.point_index((1, 0, 0)),
        plane.point_index((0, 1, 0)),
        plane.point_index((0, 0, 1)),
    )


def slope_from_coords(f: Field, vertex: int, pt: tuple[int, int, int]) -> int:
    """Slope at A_vertex of the line joining A_vertex to pt (pt off the sides).

    Conventions: lines through A1 are X3 = t1*X2, through A2 are X1 = t2*X3,
    through A3 are X2 = t3*X1.  Triangle sides have no slope.
    """
    x1, x2, x3 = pt
    num, den = ((x3, x2), (x1, x3), (x2, x1))[vertex - 1]
    if den == 0 or num == 0:
        raise TriangleSideError("point lies on a side of the fundamental triangle")
    return f.div(num, den)


def _slope(plane: Plane, triangle: tuple[int, int, int], vertex: int, line: int) -> int:
    """Slope of a line through A_vertex, the triangle being fundamental_triangle(plane)."""
    v = triangle[vertex - 1]
    if not plane.is_incident(v, line):
        raise NotThroughVertexError(f"line {line} does not pass through A{vertex}")
    other = next(p for p in plane.lines[line] if p != v)
    return slope_from_coords(plane.field, vertex, plane.coords[other])


def menelaos_product(plane: Plane, line: int) -> int:
    """Product of the three slopes cut by a line avoiding the triangle; equals -1."""
    f = plane.field
    tri = a1, a2, a3 = fundamental_triangle(plane)
    if any(plane.is_incident(a, line) for a in tri):
        raise NotThroughVertexError("transversal line must avoid A1, A2, A3")
    b1 = plane.meet(line, plane.line_through(a2, a3))
    b2 = plane.meet(line, plane.line_through(a1, a3))
    b3 = plane.meet(line, plane.line_through(a1, a2))
    t1 = _slope(plane, tri, 1, plane.line_through(a1, b1))
    t2 = _slope(plane, tri, 2, plane.line_through(a2, b2))
    t3 = _slope(plane, tri, 3, plane.line_through(a3, b3))
    return f.mul(f.mul(t1, t2), t3)


def ceva_product(plane: Plane, point: int) -> int:
    """Product of the three cevian slopes through a point off the sides; equals 1."""
    f = plane.field
    tri = a1, a2, a3 = fundamental_triangle(plane)
    sides = (
        plane.line_through(a2, a3),
        plane.line_through(a1, a3),
        plane.line_through(a1, a2),
    )
    if any(plane.is_incident(point, s) for s in sides):
        raise TriangleSideError("point lies on a side of the fundamental triangle")
    t1 = _slope(plane, tri, 1, plane.line_through(a1, point))
    t2 = _slope(plane, tri, 2, plane.line_through(a2, point))
    t3 = _slope(plane, tri, 3, plane.line_through(a3, point))
    return f.mul(f.mul(t1, t2), t3)
