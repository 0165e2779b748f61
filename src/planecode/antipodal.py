"""Antipodal planes as abstract partial linear spaces.

An antipodal plane of order s has s^2+s+2 points and lines, line size s+1
and point degree s+1; every point has a unique non-collinear point (its
antipode) and every line a unique disjoint line.  The perp maps are derived
data: validation computes them by scanning and fails if they are not
unique.  Known models: the two circulant constructions of orders 2 and 3,
the complement of a Fano subplane in PG(2,4), and the Mobius-Kantor point
set in any PG(2,q) with a root of x^2 - x + 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import Field
from .geometry import Plane, _field_of, _restricted_lines, baer_subfield_subplane, pg2


class AntipodalError(ValueError):
    pass


class NotAntipodalError(AntipodalError):
    def __init__(self, axiom: str, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not an antipodal plane ({axiom}): witness {witness}")


class UnsupportedOrderError(AntipodalError):
    pass


class NotARootError(AntipodalError):
    pass


class PLSError(AntipodalError):
    pass


class PartialLinearSpace:
    """Points 0..n-1 and lines of size >= 2; two points on at most one line."""

    source = "abstract"  # a search target that is not a generated plane

    def __init__(self, n_points: int, lines):
        self.n_points = n_points
        self.lines = tuple(tuple(sorted(l)) for l in lines)
        self.line_sets = tuple(frozenset(l) for l in self.lines)
        seen: dict[tuple[int, int], int] = {}
        pl: list[list[int]] = [[] for _ in range(n_points)]
        for i, l in enumerate(self.lines):
            if len(l) < 2 or len(set(l)) != len(l):
                raise PLSError(f"line {i} must have at least two distinct points: {l}")
            if l[0] < 0 or l[-1] >= n_points:
                raise PLSError(f"line {i} has out-of-range point index")
            for a in range(len(l)):
                for b in range(a + 1, len(l)):
                    pair = (l[a], l[b])
                    if pair in seen:
                        raise PLSError(
                            f"points {pair} lie on two lines ({seen[pair]} and {i})"
                        )
                    seen[pair] = i
            for p in l:
                pl[p].append(i)
        self.pair_line = seen
        self.point_lines = tuple(tuple(x) for x in pl)

    def collinear(self, p: int, q: int) -> bool:
        return p == q or self.line_through(p, q) is not None

    def line_through(self, p: int, q: int) -> int | None:
        """The line joining two points, or None if they are not collinear."""
        a, b = (p, q) if p < q else (q, p)
        return self.pair_line.get((a, b))

    def meet(self, l1: int, l2: int) -> int | None:
        """The common point of two distinct lines, or None if they are disjoint."""
        common = self.line_sets[l1] & self.line_sets[l2]
        return next(iter(common)) if common else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialLinearSpace)
            and self.n_points == other.n_points
            and sorted(self.lines) == sorted(other.lines)
        )

    def __repr__(self) -> str:
        return f"PartialLinearSpace(points={self.n_points}, lines={len(self.lines)})"


@dataclass(frozen=True)
class AntipodalPlane:
    pls: PartialLinearSpace
    order: int
    perp_point: tuple[int, ...]
    perp_line: tuple[int, ...]


def validate_antipodal(pls: PartialLinearSpace) -> AntipodalPlane:
    """Check the antipodal axioms and derive the perp involutions."""
    sizes = {len(l) for l in pls.lines}
    if len(sizes) != 1:
        raise NotAntipodalError("uniform line size", sorted(sizes))
    s = sizes.pop() - 1
    if s < 2:
        raise NotAntipodalError("order at least 2", s)
    expected = s * s + s + 2
    if pls.n_points != expected or len(pls.lines) != expected:
        raise NotAntipodalError(
            "point/line count s^2+s+2",
            (pls.n_points, len(pls.lines), expected),
        )
    for p, ls in enumerate(pls.point_lines):
        if len(ls) != s + 1:
            raise NotAntipodalError("point degree s+1", (p, len(ls)))
    perp_point = []
    for p in range(pls.n_points):
        non = [q for q in range(pls.n_points) if q != p and not pls.collinear(p, q)]
        if len(non) != 1:
            raise NotAntipodalError("unique antipodal point", (p, non))
        perp_point.append(non[0])
    perp_line = []
    for i, l in enumerate(pls.line_sets):
        disjoint = [j for j, m in enumerate(pls.line_sets) if j != i and not (l & m)]
        if len(disjoint) != 1:
            raise NotAntipodalError("unique antipodal line", (i, disjoint))
        perp_line.append(disjoint[0])
    for p in range(pls.n_points):
        if perp_point[perp_point[p]] != p:
            raise NotAntipodalError("point perp involution", p)
    for i in range(len(pls.lines)):
        if perp_line[perp_line[i]] != i:
            raise NotAntipodalError("line perp involution", i)
    for i, l in enumerate(pls.lines):
        image = frozenset(perp_point[p] for p in l)
        if image != pls.line_sets[perp_line[i]]:
            raise NotAntipodalError("perp of a line is the antipodes of its points", i)
    return AntipodalPlane(pls, s, tuple(perp_point), tuple(perp_line))


def cyclic_antipodal(order: int) -> PartialLinearSpace:
    """The circulant models: first row support {1,2,4} (order 2, 8x8) or
    {1,2,5,7} (order 3, 14x14) in 1-based positions, shifted cyclically."""
    if order == 2:
        n, base = 8, (0, 1, 3)
    elif order == 3:
        n, base = 14, (0, 1, 4, 6)
    else:
        raise UnsupportedOrderError(
            f"no antipodal plane of order {order} is available (only 2 and 3)"
        )
    lines = [tuple(sorted((b + shift) % n for b in base)) for shift in range(n)]
    return PartialLinearSpace(n, lines)


def antipodal_from_pg24() -> PartialLinearSpace:
    """Complement of a Fano subplane in PG(2,4): 14 points, the 14
    non-extended lines, an antipodal plane of order 3."""
    plane = pg2(Field(2, 2))
    fano = set(baer_subfield_subplane(plane).points)
    keep_pts = [x for x in range(plane.npoints) if x not in fano]
    # every line but the subplane's 7 meets it in one point and keeps 4 points
    return PartialLinearSpace(len(keep_pts), _restricted_lines(plane, keep_pts, 4))


def mobius_kantor_points(f: Field) -> tuple[tuple[int, int, int], ...]:
    """The eight Mobius-Kantor points over a field with a root of x^2-x+1;
    w is the root with the least element code.

    Order matters: it matches the circulant incidence matrix of order 2,
    lines being {i, i+1, i+3} mod 8 over these positions.
    """
    roots = f.solve_monic_quadratic(f.neg(1), 1)
    if not roots:
        raise NotARootError(
            f"x^2-x+1 has no root in GF({f.p}^{f.h}); need q = 3^h or 3 | q-1"
        )
    w = roots[0]
    pts = (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, w),
        (1, 1, 1),
        (w, 1, 1),
        (1, 0, f.sub(1, w)),
    )
    return pts


def mobius_kantor_pls(plane: Plane) -> tuple[PartialLinearSpace, tuple[int, ...]]:
    """The Mobius-Kantor configuration induced inside a generated plane.

    Returns the abstract order-2 antipodal plane (point i = i-th listed
    point) plus the ambient point indices.  Exactly eight ambient lines
    contain three of the points; that is verified.
    """
    f = _field_of(plane, "mobius_kantor_pls")
    pts = [plane.point_index(c) for c in mobius_kantor_points(f)]
    if len(set(pts)) != 8:
        raise AntipodalError("Mobius-Kantor points are not distinct in this plane")
    counts = plane.line_counts(pts)
    if (counts > 3).any():
        l = int((counts > 3).argmax())
        raise AntipodalError(f"ambient line {l} contains {counts[l]} MK points")
    lines = _restricted_lines(plane, pts, 3)
    if len(lines) != 8:
        raise AntipodalError(f"expected 8 ambient 3-point lines, found {len(lines)}")
    return PartialLinearSpace(8, lines), tuple(pts)


def find_good_triangle(ap: AntipodalPlane) -> tuple[int, int, int]:
    """Three points pairwise joined by lines, with all three antipodes off
    the sides.  Exists whenever the order is at least 3."""
    if ap.order < 3:
        raise AntipodalError("a good triangle needs order at least 3")
    for a, b, c in itertools.combinations(range(ap.pls.n_points), 3):
        if is_good_triangle(ap, a, b, c):
            return (a, b, c)
    raise AntipodalError("no good triangle found; this is a bug for order >= 3")


def is_good_triangle(ap: AntipodalPlane, a: int, b: int, c: int) -> bool:
    pls = ap.pls
    lab, lac, lbc = pls.line_through(a, b), pls.line_through(a, c), pls.line_through(b, c)
    if lab is None or lac is None or lbc is None:
        return False
    if len({lab, lac, lbc}) != 3:
        return False
    sides = pls.line_sets[lab] | pls.line_sets[lac] | pls.line_sets[lbc]
    return all(ap.perp_point[v] not in sides for v in (a, b, c))


def isomorphism(a: PartialLinearSpace, b: PartialLinearSpace) -> tuple[int, ...] | None:
    """A point bijection carrying the lines of a onto the lines of b, or
    None if none exists.

    With equal point and line counts an embedding of a into b is an
    isomorphism, so this is the embedding search with b as its target.  None
    means the whole search tree was traversed; a search that runs out of its
    node budget raises AntipodalError instead.
    """
    from .search import embed_search  # search imports this module

    if a.n_points != b.n_points or len(a.lines) != len(b.lines):
        return None
    out = embed_search(a, b)
    if out.status == "budget-exceeded":
        raise AntipodalError(
            f"isomorphism search stopped at its budget after {out.stats.nodes} nodes"
        )
    return out.embeddings[0].point_map if out.embeddings else None
