"""Constructions of dual code words from geometric ingredients.

Recipes: difference of two lines (weight 2n, always dual), difference of a
Baer subplane and one of its secant lines (weight 2p^2-p, always dual),
difference of two disjoint subplanes, and difference of two disjointly
embedded antipodal planes.  The last two compute their dual flag by a full
orthogonality check and never assert it.

Constructed words are scaled so the lowest-index nonzero symbol is 1
(raw=True skips that), since everything downstream works up to scalars.
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


def _scaled(w: CodeWord, plane: Plane, raw: bool) -> CodeWord:
    if raw or w.weight == 0:
        return w
    lead = int(w.values[w.support[0]])
    return w.scale(pow(lead, w.p - 2, w.p))


def _check_line(plane: Plane, l: int) -> None:
    # a negative index would silently take a line from the end
    if not 0 <= l < plane.npoints:
        raise LineIndexError(f"line {l} is outside 0..{plane.npoints - 1}")


def line_diff(plane: Plane, l1: int, l2: int, raw: bool = False) -> CodeWord:
    """Difference of two line indicator vectors: a dual word of weight 2n."""
    _check_line(plane, l1)
    _check_line(plane, l2)
    if l1 == l2:
        raise SameLineError("line_diff needs two distinct lines")
    p = prime_of_power(plane.order)
    w = word_diff(
        indicator(plane.lines[l1], plane.npoints, p),
        indicator(plane.lines[l2], plane.npoints, p),
    )
    if w.weight != 2 * plane.order:
        raise RecipeCheckError(
            f"difference of two lines has weight {w.weight}, not {2 * plane.order}"
        )
    ok, witness = is_dual_word(w, plane)
    if not ok:
        raise RecipeCheckError(f"difference of two lines is not orthogonal to line {witness}")
    return _scaled(w, plane, raw)


def _baer_minus_secant(plane: Plane, sub: SubplaneResult, secant: int, p: int) -> CodeWord:
    """Indicator of the subplane minus indicator of the secant, unscaled and
    unchecked; baer_diff checks it, extract_baer compares a word against it."""
    return word_diff(
        indicator(sub.points, plane.npoints, p),
        indicator(plane.lines[secant], plane.npoints, p),
    )


def baer_diff(
    plane: Plane,
    sub: SubplaneResult,
    secant: int | None = None,
    raw: bool = False,
) -> CodeWord:
    """Difference of a Baer subplane and one of its secants: weight 2p^2-p."""
    p = prime_of_power(plane.order)
    if plane.order != sub.order * sub.order:
        raise NotSecantError(
            f"subplane of order {sub.order} is not a Baer subplane of a plane of order {plane.order}"
        )
    if secant is None:
        secant = sub.lines[0]  # lexicographically first secant
    _check_line(plane, secant)
    if len(set(plane.lines[secant]).intersection(sub.points)) != sub.order + 1:
        raise NotSecantError(f"line {secant} is not a secant of the subplane")
    w = _baer_minus_secant(plane, sub, secant, p)
    ok, witness = is_dual_word(w, plane)
    if not ok:
        raise RecipeCheckError(f"Baer-minus-secant is not orthogonal to line {witness}")
    return _scaled(w, plane, raw)


def subplane_diff(
    plane: Plane,
    sub1: SubplaneResult,
    sub2: SubplaneResult,
    raw: bool = False,
) -> tuple[CodeWord, bool]:
    """Difference of two disjoint subplane indicators; dual flag is computed,
    not assumed (disjointness alone does not force duality)."""
    s1, s2 = set(sub1.points), set(sub2.points)
    if s1 & s2:
        raise NotDisjointError(f"subplanes share points {sorted(s1 & s2)[:4]}")
    p = prime_of_power(plane.order)
    w = word_diff(
        indicator(sub1.points, plane.npoints, p),
        indicator(sub2.points, plane.npoints, p),
    )
    dual, _ = is_dual_word(w, plane)
    return _scaled(w, plane, raw), dual


def antipodal_diff(
    plane: Plane,
    first: tuple[PartialLinearSpace, Embedding],
    second: tuple[PartialLinearSpace, Embedding],
    raw: bool = False,
) -> tuple[CodeWord, bool]:
    """Difference of the point images of two disjointly embedded antipodal
    planes; dual flag computed by the full orthogonality check."""
    for pls, emb in (first, second):
        ok, witness = verify_embedding(pls, plane, emb)
        if not ok:
            raise NotVerifiedEmbeddingError(f"embedding fails verification: {witness}")
    pts1 = set(first[1].point_map)
    pts2 = set(second[1].point_map)
    if pts1 & pts2:
        raise NotDisjointError(f"embeddings share points {sorted(pts1 & pts2)[:4]}")
    p = prime_of_power(plane.order)
    w = word_diff(
        indicator(sorted(pts1), plane.npoints, p),
        indicator(sorted(pts2), plane.npoints, p),
    )
    dual, _ = is_dual_word(w, plane)
    return _scaled(w, plane, raw), dual


def disjoint_baer_pair(plane: Plane) -> tuple[SubplaneResult, SubplaneResult]:
    """Two disjoint Baer subplanes of a generated PG(2,m^2): the first two
    members of geometry.baer_partition, which validates every member."""
    first, second = baer_partition(plane)[:2]
    return first, second
