"""Exhaustive embeddability search for partial linear spaces in planes.

An embedding is a pair of injective maps (points to points, lines to lines)
preserving incidence and non-incidence.  Non-incidence is only required
against mapped lines: two points non-collinear in the abstract structure
may well be joined by a plane line outside the image of the line map.

The search backtracks over point images.  Line images are never searched:
once two points of an abstract line are placed, its image is forced via
line_through.  For generated Desarguesian planes the first four points of a
qualifying seed are pinned to the standard frame (1,0,0), (0,1,0), (0,0,1),
(1,1,1); this is sound because PGL(3,q) is sharply transitive on frames and
the seed is chosen so that no three of its images can be collinear in any
embedding.  For ingested planes normalization is disabled and the search is
fully exhaustive.  "exhausted-none" is reported only when the whole
(normalized) tree was traversed with no budget truncation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from .antipodal import AntipodalPlane, PartialLinearSpace, find_good_triangle, is_good_triangle
from .geometry import NotGeneratedError, Plane, collineation, fundamental_triangle, slope_from_coords

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
    prunes: dict = dc_field(
        default_factory=lambda: {
            "injectivity": 0,
            "incidence": 0,
            "non_incidence": 0,
            "line_injectivity": 0,
        }
    )
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
            l = pls.line_of(a, b)
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
    PartialLinearSpace (whose line_through and meet may return None)."""

    def __init__(
        self,
        pls: PartialLinearSpace,
        plane: Plane,
        cap: int,
        budget: int,
        stats: SearchStats,
        exclude: frozenset = frozenset(),
    ):
        self.pls = pls
        self.plane = plane
        self.cap = cap
        self.budget = budget
        self.stats = stats
        self.exclude = exclude
        self.np_ = pls.n_points
        self.nl = len(pls.lines)
        self.pmap = [-1] * self.np_
        self.used = [False] * len(plane.point_lines)
        self.lmap = [-1] * self.nl
        self.placed = [0] * self.nl
        self.det_lines: list[int] = []  # currently determined pls lines
        self.used_lines: set[int] = set()
        self.found: list[Embedding] = []
        # line membership bitmasks over pls points, for O(1) tests
        self.line_mask = [0] * self.nl
        for li, l in enumerate(pls.lines):
            for x in l:
                self.line_mask[li] |= 1 << x

    # -- assignment with propagation ------------------------------------------

    def assign(self, p: int, v: int) -> list | None:
        """Try pmap[p] = v; returns an undo journal or None on conflict."""
        stats = self.stats
        stats.nodes += 1
        if stats.nodes > self.budget:
            raise BudgetExceeded
        if self.used[v]:
            stats.prunes["injectivity"] += 1
            return None
        pls, plane = self.pls, self.plane
        pbit = 1 << p
        # against already-determined line images
        for li in self.det_lines:
            on_img = self.lmap[li] in plane.point_lines[v]
            if self.line_mask[li] & pbit:
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
            if img in self.used_lines:
                stats.prunes["line_injectivity"] += 1
                self.undo(journal)
                return None
            # the image joins the images of li's two placed points; any
            # further used point on it is a placed point off li
            if sum(map(self.used.__getitem__, plane.lines[img])) > 2:
                stats.prunes["non_incidence"] += 1
                self.undo(journal)
                return None
            self.lmap[li] = img
            self.used_lines.add(img)
            self.det_lines.append(li)
            journal.append(li)
        return journal

    def undo(self, journal: list) -> None:
        p = journal[0]
        for li in journal[1:]:
            self.used_lines.discard(self.lmap[li])
            self.lmap[li] = -1
            self.det_lines.pop()
        for li in self.pls.point_lines[p]:
            self.placed[li] -= 1
        self.used[self.pmap[p]] = False
        self.pmap[p] = -1

    # -- search ------------------------------------------------------------------

    def next_point(self) -> int | None:
        """Fail-first: most determined incident lines, then most half-placed
        lines (placing such a point forces several line images at once)."""
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
        p = self.next_point()
        if p is None:
            self.leaf()
            return
        for v in self.candidates(p):
            journal = self.assign(p, v)
            if journal is None:
                continue
            self.dfs()
            self.undo(journal)

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
    normalize: bool | None = None,
    exclude: frozenset = frozenset(),
) -> SearchOutcome:
    """Decide embeddability; see the module docstring for the contract.

    exclude bars a set of plane points from use as images; it disables
    frame normalization (excluding points breaks frame transitivity).
    The target may also be a PartialLinearSpace, which is searched as a
    plane that is not generated (no frame normalization).
    """
    if cap < 1:
        raise SearchError(f"cap must be at least 1, got {cap}")
    n_target = len(plane.point_lines)
    if any(not 0 <= v < n_target for v in exclude):
        raise SearchError(f"an excluded point is outside 0..{n_target - 1}")
    generated = getattr(plane, "source", None) == "generated"  # a PLS has no source
    if normalize is None:
        normalize = generated and not exclude
    if normalize and not generated:
        raise SearchError("frame normalization needs a generated plane")
    if normalize and exclude:
        raise SearchError("frame normalization cannot be combined with exclusions")
    stats = SearchStats()
    t0 = time.perf_counter()
    searcher = _Searcher(pls, plane, cap, budget, stats, frozenset(exclude))

    seed_plan: list[tuple[int, int]] = []
    if normalize:
        try:
            seed = normalize_frame(pls)
        except NoQuadrangleError:
            seed = None  # fall back to the plain exhaustive search
        if seed is not None:
            frame = (*fundamental_triangle(plane), plane.point_index((1, 1, 1)))
            seed_plan = list(zip(seed, frame))

    status = "exhausted-none"
    try:
        journals = []
        feasible = True
        for p, v in seed_plan:
            j = searcher.assign(p, v)
            if j is None:
                feasible = False
                break
            journals.append(j)
        if feasible:
            searcher.dfs()
        for j in reversed(journals):
            searcher.undo(j)
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


def slope_certificate(
    ap: AntipodalPlane,
    plane: Plane,
    emb: Embedding,
    triangle: tuple[int, int, int] | None = None,
    transversal: int | None = None,
) -> SlopeCertificate:
    """Slope products T1, T2, T3 over a good triangle of an embedded
    antipodal plane and a structure line avoiding the triangle and its
    antipodes; their product equals -1.

    Individual T_i depend on the coordinate normalization (the image
    triangle is moved onto the fundamental one by a collineation); the
    product does not.
    """
    f = plane.field
    if f is None:
        raise NotGeneratedError("slope certificates need a generated plane")
    pls = ap.pls
    ok, witness = verify_embedding(pls, plane, emb)
    if not ok:
        raise SearchError(f"not an embedding of the antipodal plane: witness {witness}")
    if triangle is None:
        triangle = find_good_triangle(ap)
    elif not is_good_triangle(ap, *triangle):
        raise SearchError(f"{triangle} is not a good triangle")
    a, b, c = triangle
    K = {a, b, c, ap.perp_point[a], ap.perp_point[b], ap.perp_point[c]}
    if transversal is None:
        options = [i for i, l in enumerate(pls.line_sets) if not (l & K)]
        if not options:
            raise SearchError(
                "no structure line avoids the triangle and its antipodes"
            )
        transversal = options[0]
    elif pls.line_sets[transversal] & K:
        raise SearchError(
            f"line {transversal} meets the triangle or its antipodes"
        )
    sides = {pls.line_of(a, b), pls.line_of(a, c), pls.line_of(b, c)}
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
