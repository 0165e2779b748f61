"""Exhaustive embeddability search for partial linear spaces in planes.

An embedding is a pair of injective maps (points to points, lines to lines)
preserving incidence and non-incidence.  Non-incidence is only required
against mapped lines: two points non-collinear in the abstract structure
may well be joined by a plane line outside the image of the line map.

The search backtracks over point images.  Line images are never searched:
once two points of an abstract line are placed, its image is forced via
line_through.  On a generated Desarguesian plane searched without exclusions
the four points of a qualifying seed are pinned to the standard frame
(1,0,0), (0,1,0), (0,0,1), (1,1,1): PGL(3,q) is sharply transitive on frames,
and no three seed images can be collinear in any embedding.  Ingested planes,
partial linear spaces, exclusions (they break frame transitivity) and
structures without a qualifying seed get the plain exhaustive search.
"exhausted-none" means the whole (pinned) tree was traversed within budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from .antipodal import AntipodalPlane, PartialLinearSpace, find_good_triangle
from .geometry import Plane, _field_of, collineation, fundamental_triangle, slope_from_coords

DEFAULT_BUDGET = 10**9


class SearchError(ValueError):
    pass


class NoQuadrangleError(SearchError):
    pass


class BudgetExceeded(Exception):
    pass


class _CapReached(Exception):
    pass


@dataclass(frozen=True)
class Embedding:
    point_map: tuple[int, ...]
    line_map: tuple[int, ...]


@dataclass
class SearchStats:
    nodes: int = 0
    # no injectivity prunes: candidates are unused points, and a repeated
    # line image holds a third used point, which these two prunes catch
    prunes: dict = dc_field(default_factory=lambda: {"incidence": 0, "non_incidence": 0})
    seconds: float = 0.0


@dataclass
class SearchOutcome:
    status: str  # "found" | "exhausted-none" | "budget-exceeded"
    embeddings: list[Embedding]
    stats: SearchStats


def verify_embedding(
    pls: PartialLinearSpace, plane: Plane, emb: Embedding
) -> tuple[bool, tuple | None]:
    """Exhaustive check of injectivity, incidence and non-incidence."""
    pm, lm = emb.point_map, emb.line_map
    if len(pm) != pls.n_points or len(lm) != len(pls.lines):
        return False, ("shape", len(pm), len(lm))
    out_of_range = [("point-range", v) for v in pm if not 0 <= v < len(plane.point_lines)]
    out_of_range += [("line-range", l) for l in lm if not 0 <= l < len(plane.lines)]
    if out_of_range:
        return False, out_of_range[0]
    if len(set(pm)) != len(pm):
        dup = next(v for v in pm if pm.count(v) > 1)
        return False, ("point-injectivity", dup)
    if len(set(lm)) != len(lm):
        dup = next(v for v in lm if lm.count(v) > 1)
        return False, ("line-injectivity", dup)
    for li, l in enumerate(pls.lines):
        img = set(plane.lines[lm[li]])
        members = set(l)
        for p in range(pls.n_points):
            if p in members:
                if pm[p] not in img:
                    return False, ("incidence", p, li)
            elif pm[p] in img:
                return False, ("non-incidence", p, li)
    return True, None


def normalize_frame(pls: PartialLinearSpace) -> tuple[int, int, int, int]:
    """The lexicographically least 4-point seed safe to pin to a frame.

    Qualifying condition: every 3-subset of the seed contains two points
    joined by a line that misses the third.  Then no three seed images can
    be collinear in any embedding, so the images always form a frame.
    """
    n = pls.n_points

    def triple_ok(x: int, y: int, z: int) -> bool:
        for a, b, c in ((x, y, z), (x, z, y), (y, z, x)):
            l = pls.line_through(a, b)
            if l is not None and c not in pls.line_sets[l]:
                return True
        return False

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if not triple_ok(i, j, k):
                    continue
                for l in range(k + 1, n):
                    if (
                        triple_ok(i, j, l)
                        and triple_ok(i, k, l)
                        and triple_ok(j, k, l)
                    ):
                        return (i, j, k, l)
    raise NoQuadrangleError("no frame-safe quadrangle in this structure")


class _Searcher:
    """Backtracking over point images into a target: a Plane, or a
    PartialLinearSpace (whose line_through and meet may return None).
    The pinned points (point -> its one image) are placed first, in order."""

    def __init__(
        self,
        pls: PartialLinearSpace,
        plane: Plane,
        cap: int,
        budget: int,
        stats: SearchStats,
        exclude: frozenset,
        pinned: dict[int, int],
    ):
        self.pls = pls
        self.plane = plane
        self.cap = cap
        self.budget = budget
        self.stats = stats
        self.exclude = exclude
        self.pinned = pinned
        self.np_ = pls.n_points
        self.nl = len(pls.lines)
        self.pmap = [-1] * self.np_
        self.used = [False] * len(plane.point_lines)
        self.lmap = [-1] * self.nl
        self.placed = [0] * self.nl
        self.det_lines: list[int] = []  # currently determined pls lines
        self.found: list[Embedding] = []

    # -- assignment with propagation ------------------------------------------

    def assign(self, p: int, v: int) -> list | None:
        """Try pmap[p] = v; returns an undo journal or None on conflict."""
        stats = self.stats
        stats.nodes += 1
        if stats.nodes > self.budget:
            raise BudgetExceeded
        # v is unused: candidates() offers no used point, and the pinned
        # frame images are four distinct points placed first
        pls, plane = self.pls, self.plane
        # against already-determined line images
        for li in self.det_lines:
            on_img = self.lmap[li] in plane.point_lines[v]
            if p in pls.line_sets[li]:
                if not on_img:
                    stats.prunes["incidence"] += 1
                    return None
            elif on_img:
                stats.prunes["non_incidence"] += 1
                return None
        journal = [p]
        self.pmap[p] = v
        self.used[v] = True
        newly = []
        for li in pls.point_lines[p]:
            self.placed[li] += 1
            if self.placed[li] == 2 and self.lmap[li] < 0:
                newly.append(li)
        for li in newly:
            a, b = (x for x in pls.lines[li] if self.pmap[x] >= 0)
            img = plane.line_through(self.pmap[a], self.pmap[b])
            if img is None:
                stats.prunes["incidence"] += 1
                self.undo(journal)
                return None
            # the image joins the images of li's two placed points; any
            # further used point on it is a placed point off li.  An image
            # already taken by another line holds such a point, so line
            # images stay distinct without a test of their own.
            if sum(map(self.used.__getitem__, plane.lines[img])) > 2:
                stats.prunes["non_incidence"] += 1
                self.undo(journal)
                return None
            self.lmap[li] = img
            self.det_lines.append(li)
            journal.append(li)
        return journal

    def undo(self, journal: list) -> None:
        p = journal[0]
        for li in journal[1:]:
            self.lmap[li] = -1
            self.det_lines.pop()
        for li in self.pls.point_lines[p]:
            self.placed[li] -= 1
        self.used[self.pmap[p]] = False
        self.pmap[p] = -1

    # -- search ------------------------------------------------------------------

    def next_point(self) -> int | None:
        """The first unplaced pinned point; then fail-first: most determined
        incident lines, then most half-placed lines (placing such a point
        forces several line images at once)."""
        for p in self.pinned:
            if self.pmap[p] < 0:
                return p
        best, best_score = None, (-1, -1)
        for p in range(self.np_):
            if self.pmap[p] >= 0:
                continue
            ndet = nhalf = 0
            for li in self.pls.point_lines[p]:
                if self.lmap[li] >= 0:
                    ndet += 1
                elif self.placed[li] == 1:
                    nhalf += 1
            score = (ndet, nhalf)
            if score > best_score:
                best, best_score = p, score
        return best

    def candidates(self, p: int) -> list[int]:
        if p in self.pinned:
            return [self.pinned[p]]
        det = [self.lmap[li] for li in self.pls.point_lines[p] if self.lmap[li] >= 0]
        if len(det) >= 2:
            x = self.plane.meet(det[0], det[1])
            pool = [x] if x is not None and not self.used[x] else []
        elif len(det) == 1:
            pool = [v for v in self.plane.lines[det[0]] if not self.used[v]]
        else:
            pool = [v for v, u in enumerate(self.used) if not u]
        if self.exclude:
            pool = [v for v in pool if v not in self.exclude]
        return pool

    def dfs(self) -> None:
        """Depth first over point images.  The stack holds one frame per
        placed point, [point, candidate iterator, undo journal of its
        current image], so a source of any size stays within Python's
        recursion limit."""
        p = self.next_point()
        if p is None:
            self.leaf()
            return
        stack = [[p, iter(self.candidates(p)), None]]
        while stack:
            frame = stack[-1]
            p, pool, journal = frame
            if journal is not None:
                self.undo(journal)
            for v in pool:
                journal = self.assign(p, v)
                if journal is not None:
                    break
            else:
                stack.pop()
                continue
            frame[2] = journal
            p = self.next_point()
            if p is None:
                self.leaf()
            else:
                stack.append([p, iter(self.candidates(p)), None])

    def leaf(self) -> None:
        emb = Embedding(tuple(self.pmap), tuple(self.lmap))
        ok, witness = verify_embedding(self.pls, self.plane, emb)
        if not ok:  # pragma: no cover - soundness guard
            raise SearchError(f"search produced an invalid embedding: {witness}")
        self.found.append(emb)
        if len(self.found) >= self.cap:
            raise _CapReached


def embed_search(
    pls: PartialLinearSpace,
    plane: Plane,
    cap: int = 1,
    budget: int = DEFAULT_BUDGET,
    exclude: frozenset = frozenset(),
) -> SearchOutcome:
    """Decide embeddability; see the module docstring for the contract.

    exclude bars a set of plane points from use as images.  The target may
    also be a PartialLinearSpace; like an ingested plane, it gets the plain
    search.
    """
    if cap < 1:
        raise SearchError(f"cap must be at least 1, got {cap}")
    n_target = len(plane.point_lines)
    if any(not 0 <= v < n_target for v in exclude):
        raise SearchError(f"an excluded point is outside 0..{n_target - 1}")
    stats = SearchStats()
    t0 = time.perf_counter()
    pinned = {}
    if plane.source == "generated" and not exclude:
        try:
            frame = (*fundamental_triangle(plane), plane.point_index((1, 1, 1)))
            pinned = dict(zip(normalize_frame(pls), frame))
        except NoQuadrangleError:
            pass  # no frame-safe seed: the plain exhaustive search
    searcher = _Searcher(pls, plane, cap, budget, stats, frozenset(exclude), pinned)
    status = "exhausted-none"
    try:
        searcher.dfs()
    except _CapReached:
        pass
    except BudgetExceeded:
        status = "budget-exceeded"
    stats.seconds = time.perf_counter() - t0
    if searcher.found and status != "budget-exceeded":
        status = "found"
    return SearchOutcome(status, searcher.found, stats)


# -- slope certificates --------------------------------------------------------


@dataclass
class SlopeCertificate:
    triangle: tuple[int, int, int]
    transversal: int
    products: tuple[int, int, int]  # T1, T2, T3
    product: int
    minus_one: int

    @property
    def holds(self) -> bool:
        return self.product == self.minus_one


def slope_certificate(ap: AntipodalPlane, plane: Plane, emb: Embedding) -> SlopeCertificate:
    """Slope products T1, T2, T3 over the good triangle find_good_triangle
    picks in an embedded antipodal plane; their product equals -1.  The
    first structure line avoiding the triangle and its antipodes is the
    transversal of the argument: its existence is checked and it is
    recorded, but the products do not read it.

    Individual T_i depend on the coordinate normalization (the image
    triangle is moved onto the fundamental one by a collineation); the
    product does not.
    """
    f = _field_of(plane, "slope_certificate")
    pls = ap.pls
    ok, witness = verify_embedding(pls, plane, emb)
    if not ok:
        raise SearchError(f"not an embedding of the antipodal plane: witness {witness}")
    triangle = a, b, c = find_good_triangle(ap)
    K = {a, b, c, ap.perp_point[a], ap.perp_point[b], ap.perp_point[c]}
    transversal = next((i for i, l in enumerate(pls.line_sets) if not (l & K)), None)
    if transversal is None:
        raise SearchError("no structure line avoids the triangle and its antipodes")
    sides = {pls.line_through(a, b), pls.line_through(a, c), pls.line_through(b, c)}
    # the collineation with the triangle's images as matrix columns maps the
    # fundamental triangle onto them; its inverse moves the embedding back
    columns = [plane.coords[emb.point_map[v]] for v in (a, b, c)]
    back = collineation(plane, list(zip(*columns))).argsort()
    products = []
    for idx, vertex in enumerate((a, b, c), start=1):
        through = [li for li in pls.point_lines[vertex] if li not in sides]
        if len(through) != ap.order - 1:
            raise SearchError(
                f"expected {ap.order - 1} non-side lines through vertex {vertex}"
            )
        t = 1
        for li in through:
            other = next(q for q in pls.lines[li] if q != vertex)
            pt = plane.coords[back[emb.point_map[other]]]
            t = f.mul(t, slope_from_coords(f, idx, pt))
        products.append(t)
    prod = f.mul(f.mul(products[0], products[1]), products[2])
    return SlopeCertificate(
        triangle, transversal, tuple(products), prod, f.neg(1)
    )
