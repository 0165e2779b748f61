"""Constructions of dual code words from geometric ingredients.

Recipes: difference of two lines (weight 2n, always dual), difference of a
Baer subplane and one of its secant lines (weight 2p^2-p, always dual),
difference of two disjoint subplanes, and difference of two disjointly
embedded antipodal planes.  The last two compute their dual flag by a full
orthogonality check and never assert it.

Every recipe returns its word scaled so that the lowest-index nonzero
symbol is 1: a set difference is determined up to sign, and everything
downstream works up to scalars.
"""

from __future__ import annotations

from .antipodal import PartialLinearSpace
from .codes import CodeWord, indicator, is_dual_word, word_diff
from .field import prime_of_power
from .geometry import Plane, SameLineError, SubplaneResult, baer_partition
from .search import Embedding, verify_embedding


class ConstructError(ValueError):
    pass


class NotSecantError(ConstructError):
    pass


class LineIndexError(ConstructError):
    pass


class NotDisjointError(ConstructError):
    pass


class NotVerifiedEmbeddingError(ConstructError):
    pass


class RecipeCheckError(ConstructError):
    """A constructed word lacks a property that its recipe guarantees."""


def _scaled(w: CodeWord) -> CodeWord:
    if w.weight == 0:
        return w
    lead = int(w.values[w.support[0]])
    return w.scale(pow(lead, w.p - 2, w.p))


def _check_line(plane: Plane, l: int) -> None:
    # a negative index would silently take a line from the end
    if not 0 <= l < plane.npoints:
        raise LineIndexError(f"line {l} is outside 0..{plane.npoints - 1}")


def _set_diff(plane: Plane, pos, neg) -> CodeWord:
    """Indicator of the points pos minus indicator of the points neg, over
    GF(p) for p the characteristic of the plane's order; unscaled, unchecked."""
    p = prime_of_power(plane.order)
    return word_diff(indicator(pos, plane.npoints, p), indicator(neg, plane.npoints, p))


def _disjoint_diff(plane: Plane, pos, neg, what: str) -> tuple[CodeWord, bool]:
    """The difference of two disjoint point sets and its computed dual flag."""
    shared = set(pos) & set(neg)
    if shared:
        raise NotDisjointError(f"{what} share points {sorted(shared)[:4]}")
    w = _set_diff(plane, pos, neg)
    dual, _ = is_dual_word(w, plane)
    return _scaled(w), dual


def line_diff(plane: Plane, l1: int, l2: int) -> CodeWord:
    """Difference of two line indicator vectors: a dual word of weight 2n."""
    _check_line(plane, l1)
    _check_line(plane, l2)
    if l1 == l2:
        raise SameLineError("line_diff needs two distinct lines")
    w = _set_diff(plane, plane.lines_arr[l1].tolist(), plane.lines_arr[l2].tolist())
    if w.weight != 2 * plane.order:
        raise RecipeCheckError(
            f"difference of two lines has weight {w.weight}, not {2 * plane.order}"
        )
    ok, witness = is_dual_word(w, plane)
    if not ok:
        raise RecipeCheckError(f"difference of two lines is not orthogonal to line {witness}")
    return _scaled(w)


def baer_diff(plane: Plane, sub: SubplaneResult, secant: int | None = None) -> CodeWord:
    """Difference of a Baer subplane and one of its secants: weight 2p^2-p."""
    if plane.order != sub.order * sub.order:
        raise NotSecantError(
            f"subplane of order {sub.order} is not a Baer subplane of a plane of order {plane.order}"
        )
    if secant is None:
        secant = sub.lines[0]  # lexicographically first secant
    _check_line(plane, secant)
    line = plane.lines_arr[secant].tolist()
    if len(set(line).intersection(sub.points)) != sub.order + 1:
        raise NotSecantError(f"line {secant} is not a secant of the subplane")
    w = _set_diff(plane, sub.points, line)
    ok, witness = is_dual_word(w, plane)
    if not ok:
        raise RecipeCheckError(f"Baer-minus-secant is not orthogonal to line {witness}")
    return _scaled(w)


def subplane_diff(
    plane: Plane, sub1: SubplaneResult, sub2: SubplaneResult
) -> tuple[CodeWord, bool]:
    """Difference of two disjoint subplane indicators; dual flag is computed,
    not assumed (disjointness alone does not force duality)."""
    return _disjoint_diff(plane, sub1.points, sub2.points, "subplanes")


def antipodal_diff(
    plane: Plane,
    first: tuple[PartialLinearSpace, Embedding],
    second: tuple[PartialLinearSpace, Embedding],
) -> tuple[CodeWord, bool]:
    """Difference of the point images of two disjointly embedded antipodal
    planes; dual flag computed by the full orthogonality check."""
    for pls, emb in (first, second):
        ok, witness = verify_embedding(pls, plane, emb)
        if not ok:
            raise NotVerifiedEmbeddingError(f"embedding fails verification: {witness}")
    return _disjoint_diff(plane, first[1].point_map, second[1].point_map, "embeddings")


def disjoint_baer_pair(plane: Plane) -> tuple[SubplaneResult, SubplaneResult]:
    """Two disjoint Baer subplanes of a generated PG(2,m^2): the first two
    members of geometry.baer_partition, which validates every member."""
    first, second = baer_partition(plane)[:2]
    return first, second
