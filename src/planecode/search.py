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

import heapq
import itertools
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


def _placement_plan(pls: PartialLinearSpace, pinned: dict[int, int]) -> list[tuple[int, tuple]]:
    """The order in which the search places the source points and, for each
    point, the lines it determines, each with its earlier placed point.

    The pinned points come first, in order.  Then fail-first: the most lines
    with two placed points, then the most with one (their images get forced),
    the least index on a tie.  Neither count reads an image, so the order is
    the same on every branch: it is computed once, with incremental scores."""
    n = pls.n_points
    score = [0] * n  # n * (lines with two placed points) + (lines with one); a degree is < n
    placed = [0] * len(pls.lines)
    first = [0] * len(pls.lines)  # the first placed point of a line
    done = [False] * n
    heap = [(0, p) for p in range(n)]  # (-score, point); sorted, so a heap
    pins = list(pinned)
    plan = []
    while len(plan) < n:
        # a score only grows, so a point's newest entry leaves the heap first
        p = pins[len(plan)] if len(plan) < len(pins) else heapq.heappop(heap)[1]
        if done[p]:
            continue
        done[p] = True
        forced = []
        for li in pls.point_lines[p]:
            placed[li] += 1
            if placed[li] == 1:
                first[li], gain = p, 1
            elif placed[li] == 2:
                forced.append((li, first[li]))
                gain = n - 1
            else:
                continue
            for x in pls.lines[li]:
                if not done[x]:
                    score[x] += gain
                    heapq.heappush(heap, (-score[x], x))
        plan.append((p, tuple(forced)))
    return plan


class _Searcher:
    """Backtracking over point images into a target: a Plane, or a
    PartialLinearSpace (whose line_through and meet may return None).
    Depth d places plan[d]'s point; pinned points have one image each."""

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
        self.plan = _placement_plan(pls, pinned)
        # the lines in the order they are determined, starts[d] before depth d
        self.det_lines = [li for _, forced in self.plan for li, _ in forced]
        self.starts = list(itertools.accumulate((len(f) for _, f in self.plan), initial=0))
        self.pmap = [-1] * pls.n_points
        self.used = [False] * len(plane.point_lines)
        self.lmap = [-1] * len(pls.lines)
        self.found: list[Embedding] = []

    # -- assignment with propagation ------------------------------------------

    def assign(self, d: int, v: int) -> bool:
        """Try v as the image of depth d's point; False, undone, on a conflict."""
        stats = self.stats
        stats.nodes += 1
        if stats.nodes > self.budget:
            raise BudgetExceeded
        # v is unused: candidates() offers no used point, and the pinned
        # frame images are four distinct points placed first
        p, forced = self.plan[d]
        pls, plane, lmap = self.pls, self.plane, self.lmap
        through_v = plane.point_lines[v]
        # against already-determined line images
        for li in itertools.islice(self.det_lines, self.starts[d]):
            on_img = lmap[li] in through_v
            if p in pls.line_sets[li]:
                if not on_img:
                    stats.prunes["incidence"] += 1
                    return False
            elif on_img:
                stats.prunes["non_incidence"] += 1
                return False
        self.pmap[p] = v
        self.used[v] = True
        for li, a in forced:
            img = plane.line_through(self.pmap[a], v)
            # no join is an incidence fault.  The image joins the images of
            # li's two placed points; any further used point on it is a
            # placed point off li.  An image already taken by another line
            # holds such a point, so line images stay distinct without a
            # test of their own.
            if img is None or sum(map(self.used.__getitem__, plane.lines[img])) > 2:
                stats.prunes["incidence" if img is None else "non_incidence"] += 1
                self.undo(d)
                return False
            lmap[li] = img
        return True

    def undo(self, d: int) -> None:
        p, forced = self.plan[d]
        for li, _ in forced:
            self.lmap[li] = -1
        self.used[self.pmap[p]] = False
        self.pmap[p] = -1

    # -- search ------------------------------------------------------------------

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
        """Depth first over point images, in the plan's order.  The stack
        holds one candidate iterator per depth, so a source of any size
        stays within Python's recursion limit."""
        if not self.plan:
            return self.leaf()
        pools = [iter(self.candidates(self.plan[0][0]))]
        while pools:
            d = len(pools) - 1
            if self.pmap[self.plan[d][0]] >= 0:
                self.undo(d)
            # any() stops at the first image that assigns; the pool resumes after it
            if not any(self.assign(d, v) for v in pools[d]):
                pools.pop()
            elif d + 1 == len(self.plan):
                self.leaf()
            else:
                pools.append(iter(self.candidates(self.plan[d + 1][0])))

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
