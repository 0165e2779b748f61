import hashlib
import itertools
import time
import tracemalloc
from math import comb

import numpy as np
import pytest

from planecode import codes
from planecode.codes import (
    BudgetExceededError,
    CodesError,
    CodeWord,
    LengthMismatchError,
    PrimeMismatchError,
    code_of_plane,
    dual_basis,
    enumerate_min_weight,
    incidence_matrix,
    indicator,
    is_dual_word,
    matmul_mod_p,
    rref_mod_p,
    word_diff,
)
from planecode.field import FieldError, field_new, is_prime
from planecode.geometry import pg2


@pytest.fixture(scope="module")
def planes():
    return {q: pg2(field_new(p, h)) for q, (p, h) in
            {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2)}.items()}


def brute_force_words(generator, p):
    """Independent enumeration oracle: plain python over all messages."""
    k, n = generator.shape
    rows = [tuple(int(x) for x in r) for r in generator]
    for msg in itertools.product(range(p), repeat=k):
        w = [0] * n
        for m, row in zip(msg, rows):
            if m:
                w = [(a + m * b) % p for a, b in zip(w, row)]
        yield tuple(w)


def reference_rref(mat, p):
    """Test-only oracle: the one-pivot-at-a-time GF(p) elimination."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        m -= np.outer(col, m[r])
        m %= p
        pivots.append(c)
        r += 1
    return m[: len(pivots)], pivots


def reference_dual(generator, p):
    """Test-only oracle: the reference kernel basis, row-reduced again."""
    rref, pivots = reference_rref(generator, p)
    cols = generator.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fcol in enumerate(free):
        basis[i, fcol] = 1
        for row, pcol in zip(rref, pivots):
            basis[i, pcol] = (-row[fcol]) % p
    return reference_rref(basis, p)[0]


def random_shapes(rng, p, cols):
    """Matrices with `cols` columns: tall, square and wide, full rank and
    rank-deficient, with zero rows and zero columns, and one whose entries
    are not residues."""
    for rows in (2 * cols + 3, cols, max(1, cols // 3), 1):
        yield rng.integers(0, p, size=(rows, cols))
        yield rng.integers(0, p, size=(rows, 3)) @ rng.integers(0, p, size=(3, cols))
        m = rng.integers(0, p, size=(rows, cols))
        m[rng.random(rows) < 0.3] = 0
        m[:, rng.random(cols) < 0.3] = 0
        yield m
    yield np.zeros((5, cols), dtype=np.int64)
    yield rng.integers(-3 * p, 3 * p, size=(cols + 2, cols))


@pytest.mark.parametrize("cols", [1, 31, 32, 33, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_rref_matches_reference_kernel(p, cols):
    rng = np.random.default_rng(1000 * p + cols)
    for m in random_shapes(rng, p, cols):
        want, want_piv = reference_rref(m, p)
        got, got_piv = rref_mod_p(m, p)
        assert got_piv == want_piv
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_rref_near_the_int64_bound():
    p = 268435399  # the largest prime below 2^28: beyond the float64 bound
    rng = np.random.default_rng(5)
    m = rng.integers(0, p, size=(40, 70))
    with pytest.raises(CodesError, match="too large"):
        rref_mod_p(m, p)


def test_the_float64_bound_covers_every_plane_the_package_builds():
    # Field holds at most 4096 elements, so a plane's characteristic is at
    # most 4093: the elimination of any matrix over all N points of
    # PG(2,4093), and any product over them, stays exact in float64, and
    # the kernel's panels stay exact in int32
    p = 4093
    assert codes._fits(p * p + p + 1, p, codes._FLOAT_LIMIT)
    assert codes._fits(codes._PANEL, p, 1 << 31)
    with pytest.raises(FieldError, match="lookup-table limit"):
        field_new(4099)


def test_rref_column_bound_at_the_largest_float64_prime():
    # the largest prime below 2^24: 32 columns fit the float64 bound and 33
    # do not, but one panel's entries would overflow int32, so both are refused
    p = 16777213
    assert codes._fits(32, p, codes._FLOAT_LIMIT) and not codes._fits(33, p, codes._FLOAT_LIMIT)
    assert not codes._fits(codes._PANEL, p, 1 << 31)
    rng = np.random.default_rng(p)
    m = rng.integers(0, p, size=(40, 33))
    with pytest.raises(CodesError, match="too large for the int32 panels"):
        rref_mod_p(m[:, :32], p)
    with pytest.raises(CodesError, match="too large for the float64"):
        rref_mod_p(m, p)


# The largest prime whose bound admits 260 columns, and the next prime
P_260, P_260_NEXT = 5885833, 5885843


@pytest.mark.parametrize("p", [P_260, P_260_NEXT])
def test_rref_on_both_sides_of_the_float64_bound(p):
    assert is_prime(P_260) and is_prime(P_260_NEXT)
    assert not any(is_prime(x) for x in range(P_260 + 1, P_260_NEXT))
    rng = np.random.default_rng(p)
    m = rng.integers(0, p, size=(200, 260))
    m[:, 40] = (m[:, 0] + 3 * m[:, 35]) % p  # a non-pivot column in the second panel
    if p == P_260_NEXT:
        assert not codes._fits(260, p, codes._FLOAT_LIMIT)
        with pytest.raises(CodesError, match="too large for the float64"):
            rref_mod_p(m, p)
        return
    # 260 columns fit the float64 bound, but one panel's entries would
    # overflow int32: refused by the panel bound
    assert codes._fits(260, p, codes._FLOAT_LIMIT)
    with pytest.raises(CodesError, match="too large for the int32 panels"):
        rref_mod_p(m, p)


# The largest prime whose panel entries stay below 2^31, and the next prime
P_PANEL, P_PANEL_NEXT = 5791, 5801


def test_rref_at_the_largest_int32_panel_prime():
    assert is_prime(P_PANEL) and is_prime(P_PANEL_NEXT)
    assert not any(is_prime(x) for x in range(P_PANEL + 1, P_PANEL_NEXT))
    assert codes._fits(codes._PANEL, P_PANEL, 1 << 31)
    assert not codes._fits(codes._PANEL, P_PANEL_NEXT, 1 << 31)
    # the prime at which panel entries can come closest to 2^31: four full
    # panels of 64 pivots, then a partial panel with a column that is not a
    # pivot; entries at p-1 make the first steps' products as large as they
    # can be
    p = P_PANEL
    rng = np.random.default_rng(p)
    m = rng.integers(0, p, size=(300, 290))
    m[:40, :40] = p - 1
    m[:, 270] = (m[:, 3] + 5 * m[:, 200]) % p
    want, want_piv = reference_rref(m, p)
    got, got_piv = rref_mod_p(m, p)
    assert got_piv == want_piv and np.array_equal(got, want)
    assert len(got_piv) == 289 and 270 not in got_piv


def test_kernel_refuses_p_beyond_the_int32_panel_bound_before_allocating():
    # a float64 working copy of this 4 MB uint8 matrix would take 32 MB
    a = np.ones((2048, 2048), dtype=np.uint8)
    tracemalloc.start()
    try:
        with pytest.raises(CodesError, match="too large for the int32 panels"):
            rref_mod_p(a, P_PANEL_NEXT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rref_in_narrow_column_slices(monkeypatch):
    # slices of 7 columns, not dividing the trailing block: the update runs
    # in many slices and gives the one-pivot-at-a-time result
    p = P_PANEL
    rng = np.random.default_rng(23)
    m = rng.integers(0, p, size=(200, 260))
    m[:, 100] = (m[:, 3] + 5 * m[:, 90]) % p
    monkeypatch.setattr(codes, "_SLICE_ENTRIES", 7 * 200)
    want, want_piv = reference_rref(m, p)
    got, got_piv = rref_mod_p(m, p)
    assert got_piv == want_piv and np.array_equal(got, want)


@pytest.mark.parametrize("p", [2, 7, 65521, 268435399, 2**31 - 1])
@pytest.mark.parametrize("inner", [0, 1, 33, 300])
def test_matmul_mod_p_matches_python_integers(p, inner):
    # never a wrong residue: the product of Python integers where the sums
    # are exact in float64, a refusal where they are not (every inner
    # dimension but 0 at the two largest primes)
    rng = np.random.default_rng(inner)
    a = rng.integers(0, p, size=(7, inner))
    b = rng.integers(0, p, size=(inner, 5))
    a[0] = p - 1
    b[:, 0] = p - 1
    if not codes._fits(inner, p, codes._FLOAT_LIMIT):
        assert p > 65521 and inner > 0
        with pytest.raises(CodesError, match="not exact in float64"):
            matmul_mod_p(a, b, p)
        return
    want = (a.astype(object) @ b.astype(object)) % p
    got = matmul_mod_p(a, b, p)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_matmul_mod_p_returns_residues_for_signed_inputs(p):
    # p = 7 takes the float64 product, p = 2^31 - 1 is refused
    assert codes._fits(40, p, codes._FLOAT_LIMIT) == (p == 7)
    rng = np.random.default_rng(p)
    a = rng.integers(-(p - 1), p, size=(6, 40))
    b = rng.integers(-(p - 1), p, size=(40, 4))
    a[0], b[:, 0] = -(p - 1), p - 1
    if p != 7:
        with pytest.raises(CodesError, match="not exact in float64"):
            matmul_mod_p(a, b, p)
        return
    want = (a.astype(object) @ b.astype(object)) % p
    got = matmul_mod_p(a, b, p)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert got.min() >= 0 and got.max() < p


def test_exact_matmul_is_exact_up_to_its_bound_and_refuses_beyond_it():
    # the largest inner dimension whose sums of (p-1)^2 products stay below 2^53
    p = 16777213
    inner = (codes._FLOAT_LIMIT - p) // (p - 1) ** 2
    assert codes._fits(inner, p, codes._FLOAT_LIMIT) and not codes._fits(inner + 1, p, codes._FLOAT_LIMIT)
    a = np.full((2, inner), p - 1, dtype=np.int64)
    a[1] = -(p - 1)
    b = np.full((inner, 3), p - 1, dtype=np.int64)
    got = codes.exact_matmul(a, b, p)
    want = (a.astype(object) @ b.astype(object)).tolist()
    assert got.dtype == np.int64 and got.tolist() == want
    assert abs(want[0][0]) > 2**52  # beyond 2^52 float64 spacing is 1 or more: exactness is tight
    with pytest.raises(CodesError, match="not exact in float64"):
        codes.exact_matmul(np.ones((2, inner + 1), dtype=np.int64), np.ones((inner + 1, 2)), p)
    # 0/1 counts, as the analyzer reads them: no reduction
    rng = np.random.default_rng(1)
    ones = rng.integers(0, 2, size=(5, 300)).astype(bool)
    inc = rng.integers(0, 2, size=(300, 4), dtype=np.uint8)
    assert codes.exact_matmul(ones, inc, 2).tolist() == (ones.astype(int) @ inc.astype(int)).tolist()


def test_matmul_mod_p_refuses_p_beyond_the_int64_bound():
    p = 2147483659  # (p-1)^2 > 2^62: not even one product fits
    with pytest.raises(CodesError, match="not exact in float64"):
        matmul_mod_p(np.ones((2, 3), dtype=np.int64), np.ones((3, 2), dtype=np.int64), p)


@pytest.mark.parametrize("p", [16777259, 2**31 - 1])
def test_kernel_refuses_p_beyond_the_float64_bound_before_allocating(p):
    # a float64 working copy of these 4 MB uint8 matrices would take 32 MB
    a = np.ones((2048, 2048), dtype=np.uint8)
    tracemalloc.start()
    try:
        with pytest.raises(CodesError, match="too large"):
            rref_mod_p(a, p)
        with pytest.raises(CodesError, match="not exact in float64"):
            matmul_mod_p(a, a, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dual_basis_refuses_a_basis_that_is_not_orthogonal(monkeypatch):
    good = codes._kernel_rows

    def corrupted(*args):
        basis = good(*args)
        basis[0, 0] = (basis[0, 0] + 1) % args[-1]
        return basis

    monkeypatch.setattr(codes, "_kernel_rows", corrupted)
    with pytest.raises(CodesError, match="not orthogonal"):
        dual_basis(code_of_plane(pg2(field_new(3, 1)), 3))


def test_rref_refuses_p_beyond_the_int64_bound():
    with pytest.raises(CodesError, match="too large"):
        rref_mod_p(np.eye(3, dtype=np.int64), 2**31 - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.GF(p)
    rng = np.random.default_rng(p)
    for rows, cols in ((6, 9), (12, 5), (8, 40)):
        m = rng.integers(0, p, size=(rows, cols))
        m[1] = 0
        m[:, 2] = 0
        dm = DomainMatrix([[K(int(x)) for x in row] for row in m], m.shape, K)
        want, want_piv = dm.rref()
        got, got_piv = rref_mod_p(m, p)
        assert got_piv == list(want_piv)
        want_rows = [[int(x) % p for x in row] for row in want.to_list()[: len(want_piv)]]
        assert got.tolist() == want_rows


@pytest.mark.parametrize(
    "q,p,h", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2), (16, 2, 4)]
)
def test_dual_basis_matches_two_pass_reference(q, p, h):
    code = code_of_plane(pg2(field_new(p, h)), p)
    dual = dual_basis(code)
    assert dual.generator.dtype == np.int64
    assert np.array_equal(dual.generator, reference_dual(code.generator, p))


@pytest.mark.parametrize("p,h", [(3, 3), (2, 5), (7, 2)])
def test_code_rank_closed_form(p, h):
    """Hamada: the p-rank of PG(2,p^h) is C(p+1,2)^h + 1."""
    code = code_of_plane(pg2(field_new(p, h)), p)
    assert code.dimension == comb(p + 1, 2) ** h + 1


def test_rref_small_known():
    m = np.array([[1, 2, 0], [2, 4, 1], [0, 0, 1]])
    r, piv = rref_mod_p(m, 5)
    assert piv == [0, 2]
    assert np.array_equal(r, np.array([[1, 2, 0], [0, 0, 1]]))


def test_nullspace_is_kernel():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        m = rng.integers(0, p, size=(6, 10))
        rref, piv = rref_mod_p(m, p)
        ns = codes._kernel_rows(rref, piv, 10, p)
        assert not ((m @ ns.T) % p).any()
        assert ns.shape[0] == 10 - len(piv)


@pytest.mark.parametrize(
    "q,p,dim", [(2, 2, 4), (3, 3, 7), (4, 2, 10), (8, 2, 28), (9, 3, 37)]
)
def test_code_dimension_formula(planes, q, p, dim):
    assert code_of_plane(planes[q], p).dimension == dim


def test_prime_mismatch(planes):
    with pytest.raises(PrimeMismatchError):
        code_of_plane(planes[9], 2)


@pytest.mark.parametrize("p", [4, 3, 2**61 - 1])
def test_code_of_plane_names_p_and_the_characteristic(planes, p):
    # one comparison with the plane's characteristic, with no trial
    # division of p however large it is
    t0 = time.perf_counter()
    with pytest.raises(PrimeMismatchError, match=rf"^p = {p} is not the characteristic 2 "):
        code_of_plane(planes[4], p)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("q,p,ddim", [(2, 2, 3), (4, 2, 11), (9, 3, 54)])
def test_dual_dimension(planes, q, p, ddim):
    code = code_of_plane(planes[q], p)
    dual = dual_basis(code)
    assert dual.dimension == ddim
    assert not ((code.generator @ dual.generator.T) % p).any()


def test_is_dual_word_zero(planes):
    plane = planes[3]
    zero = CodeWord(3, np.zeros(13, dtype=np.int64))
    assert is_dual_word(zero, plane) == (True, None)


def test_is_dual_word_single_line_fails_with_witness(planes):
    plane = planes[3]
    w = indicator(plane.lines[5], 13, 3)
    ok, witness = is_dual_word(w, plane)
    assert not ok
    assert witness is not None
    # the witness line meets the support in a number of points not divisible by 3
    assert len(frozenset(plane.lines[witness]) & set(w.support.tolist())) % 3 != 0


def test_difference_of_two_lines_is_dual(planes):
    for q, p in ((2, 2), (3, 3), (4, 2), (9, 3)):
        plane = planes[q]
        w = word_diff(
            indicator(plane.lines[0], plane.npoints, p),
            indicator(plane.lines[1], plane.npoints, p),
        )
        assert is_dual_word(w, plane)[0]
        assert w.weight == 2 * plane.order


def test_length_mismatch(planes):
    w = CodeWord(3, np.zeros(7, dtype=np.int64))
    with pytest.raises(LengthMismatchError):
        is_dual_word(w, planes[3])


def test_enumerate_c22_minimum_weight_words_are_lines(planes):
    plane = planes[2]
    res = enumerate_min_weight(code_of_plane(plane, 2))
    assert res.min_weight == 3
    expected = sorted(tuple(indicator(l, 7, 2).values) for l in plane.lines)
    assert [tuple(w.values) for w in res.words] == expected


def test_enumerate_c22_matches_brute_force(planes):
    code = code_of_plane(planes[2], 2)
    oracle = {w for w in brute_force_words(code.generator, 2) if any(w)}
    omin = min(sum(1 for x in w if x) for w in oracle)
    res = enumerate_min_weight(code)
    assert res.min_weight == omin == 3
    assert {tuple(w.values) for w in res.words} == {
        w for w in oracle if sum(1 for x in w if x) == omin
    }


def test_enumerate_c23_scalar_multiples_of_lines(planes):
    plane = planes[3]
    res = enumerate_min_weight(code_of_plane(plane, 3))
    assert res.min_weight == 4
    assert len(res.words) == 2 * 13
    lines = {tuple(indicator(l, 13, 3).values) for l in plane.lines}
    doubles = {tuple(indicator(l, 13, 3).scale(2).values) for l in plane.lines}
    assert {tuple(w.values) for w in res.words} == lines | doubles


def test_enumerate_dual_min_weights(planes):
    res2 = enumerate_min_weight(dual_basis(code_of_plane(planes[2], 2)))
    assert res2.min_weight == 4 and res2.words_checked == 8
    res3 = enumerate_min_weight(dual_basis(code_of_plane(planes[3], 3)))
    assert res3.min_weight == 6 and res3.words_checked == 729
    res4 = enumerate_min_weight(dual_basis(code_of_plane(planes[4], 2)))
    assert res4.min_weight == 6 and res4.words_checked == 2048


def test_enumerate_c23_dual_matches_brute_force(planes):
    dual = dual_basis(code_of_plane(planes[3], 3))
    oracle_min = min(
        sum(1 for x in w if x)
        for w in brute_force_words(dual.generator, 3)
        if any(w)
    )
    assert enumerate_min_weight(dual).min_weight == oracle_min == 6


def test_enumerate_budget(planes):
    code = code_of_plane(planes[9], 3)
    with pytest.raises(BudgetExceededError):
        enumerate_min_weight(code, budget=1000)


def random_dual_word(plane, p, rng):
    dual = dual_basis(code_of_plane(plane, p))
    coeffs = rng.integers(0, p, size=dual.dimension)
    return CodeWord(p, (coeffs @ dual.generator) % p)


@pytest.mark.parametrize("q,p", [(4, 2), (9, 3)])
def test_mu_identities_on_random_dual_words(planes, q, p):
    plane = planes[q]
    rng = np.random.default_rng(0)
    dual = dual_basis(code_of_plane(plane, p))
    for _ in range(50):
        coeffs = rng.integers(0, p, size=dual.dimension)
        w = CodeWord(p, (coeffs @ dual.generator) % p)
        assert w.mu() + w.neg().mu() == p * w.weight
        assert w.mu() % p == 0
        for line in range(plane.npoints):  # mu of the restriction to each line
            assert int(w.values[plane.lines_arr[line]].sum()) % p == 0


def test_indicator_of_baer_subplane_weight(planes):
    from planecode.geometry import baer_subfield_subplane

    sub = baer_subfield_subplane(planes[9])
    w = indicator(sub.points, 91, 3)
    assert w.weight == 13


def test_word_diff_self_is_zero(planes):
    plane = planes[4]
    w = indicator(plane.lines[3], 21, 2)
    assert word_diff(w, w).weight == 0


def test_incidence_matrix_rows_are_lines(planes):
    plane = planes[2]
    a = incidence_matrix(plane)
    for i, l in enumerate(plane.lines):
        assert np.flatnonzero(a[i]).tolist() == list(l)


@pytest.mark.parametrize("q,p", [(4, 2), (9, 3), (4, 257)])
def test_uint8_incidence_matrix_gives_the_int64_rref(planes, q, p):
    a = incidence_matrix(planes[q])
    assert a.dtype == np.uint8
    rref, pivots = rref_mod_p(a, p)  # p = 257 does not fit in uint8
    want, want_pivots = rref_mod_p(a.astype(np.int64), p)
    assert rref.dtype == want.dtype == np.int64
    assert pivots == want_pivots and rref.tobytes() == want.tobytes()


def _digest(a):
    a = np.ascontiguousarray(a, dtype="<i8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


# SHA-256 of PG(2,p^h)'s code RREF generator, its pivots and the dual's RREF
# generator.  The RREF is unique, so a faster kernel must reproduce these
# bytes exactly.
PINNED = {
    (2, 2): (  # q = 4
        "7a6161320e0132a0a0c3136e6f3a6ef9608f40d8800da0042bf06cb5c1800dff",
        "af53d0c589afa354e794ea4def4db52eb8676fbf02eb4f2764599f06d61fafc9",
        "654a676b8208964f167aed9f35fb328a18eca9d7d4e2569cfdce108d9da299b6",
    ),
    (3, 2): (  # q = 9
        "095c0f0da1eed4744dd76c02454bd8ae38d70fb5304685c11a1fecef9f55f61c",
        "d7ffd86eff2207d9ee5ebc604b517a50d6738c8903029a92cad140a3b66c262d",
        "c5e91c6611c39a88d7f0a53c40c5e484e4bce76da6b7b2db7eaf59d7b0fd7bb5",
    ),
    (2, 4): (  # q = 16
        "781963173d62be14aaf7552355955c7ec48efd0fbfea458e4bb0b0ce47683685",
        "d806aafd93c4bbecf4ed684bc81a1936fa18c411e56edbc7e877027a7732dd25",
        "c1f35bd1a1265228e88aa40ef1c6dcba55ccab74054776654c57472520c0db6e",
    ),
    (5, 2): (  # q = 25
        "423d292f487e91ee2623c9d543f3d2b8e7a9977201ac4b68d41e8b4742255f8d",
        "7fe2b5b73977db58502f7c4e88d48ed61adfd60196fe28cd14d7df7dc743505b",
        "fa68402514afcfc16b370059e5dfa53f2a1e964cab823e1fdb560f289bc16371",
    ),
}


@pytest.mark.parametrize("p,h", sorted(PINNED))
def test_code_pivots_and_dual_are_pinned(p, h):
    plane = pg2(field_new(p, h))
    rref, pivots = rref_mod_p(incidence_matrix(plane), p)
    code = code_of_plane(plane, p)
    assert np.array_equal(rref, code.generator)
    got = (_digest(code.generator), _digest(pivots), _digest(dual_basis(code).generator))
    assert got == PINNED[p, h]


def test_rref_memory_above_the_working_matrix_at_q49():
    # the trailing update and the reductions allocate 8 MB column slices;
    # beyond the working matrix only the int64 result stays large
    a = incidence_matrix(pg2(field_new(7, 2)))
    working = a.size * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        rref, pivots = rref_mod_p(a, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pivots) == 785  # Hamada: C(8,2)^2 + 1
    assert peak - working <= rref.nbytes + (8 << 20) + (2 << 20)
