import json
import random
import time
import tracemalloc

import numpy as np
import pytest

from planecode import cli

from planecode.field import (
    _default_modulus,
    _is_irreducible,
    _monic_polys,
    _poly_mod,
    DivisionByZeroError,
    Field,
    NotPrimeError,
    ReducibleModulusError,
    FieldError,
    field_new,
    parse_field,
    prime_of_power,
)


def test_gf4_default_modulus_is_unique_irreducible():
    f = field_new(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1
    assert f.q == 4


def test_gf9_enumerates_nine_elements():
    f = field_new(3, 2)
    assert f.q == 9
    assert [f.from_coeffs(f.coeffs(a)) for a in range(f.q)] == list(range(9))


def test_gf5_degenerate_h1():
    f = field_new(5, 1)
    assert f.modulus == (0, 1)  # x
    assert f.mul(3, 4) == 2
    assert f.add(3, 4) == 2


def test_not_prime_rejected():
    with pytest.raises(NotPrimeError):
        field_new(6, 1)
    with pytest.raises(NotPrimeError):
        field_new(1, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulusError):
        field_new(2, 2, modulus=[1, 0, 1])  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulusError):
        field_new(3, 2, modulus=[1, 0, 0, 1])  # wrong degree


def test_gf9_x_times_x_with_default_modulus():
    f = field_new(3, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1
    x = f.from_coeffs([0, 1])
    assert f.mul(x, x) == f.neg(1)  # x^2 = -1 = 2


def test_gf7_inverse_of_3():
    f = field_new(7)
    assert f.inv(3) == 5


def test_gf4_trace_identity():
    f = field_new(2, 2)
    for a in range(f.q):
        if a not in (0, 1):
            assert f.add(f.mul(a, a), a) == 1


def test_inv_of_zero_raises():
    f = field_new(7)
    with pytest.raises(DivisionByZeroError):
        f.inv(0)


@pytest.mark.parametrize("p,h", [(2, 1), (2, 2), (3, 2), (5, 1), (7, 1), (5, 2)])
def test_field_axioms_randomized(p, h):
    f = field_new(p, h)
    rng = random.Random(12345)
    q = f.q
    for _ in range(10_000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


def field_pow(f: Field, a: int, e: int) -> int:
    """a^e in f by square and multiply, e >= 0."""
    r = 1
    while e:
        if e & 1:
            r = f.mul(r, a)
        a = f.mul(a, a)
        e >>= 1
    return r


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 4), (5, 2), (7, 2)])
def test_frobenius_is_additive_exhaustive(p, h):
    f = field_new(p, h)
    assert f.q <= 81 or (p, h) == (7, 2)
    frob = [field_pow(f, a, p) for a in range(f.q)]
    for a in range(f.q):
        for b in range(f.q):
            assert frob[f.add(a, b)] == f.add(frob[a], frob[b])


def _quadratic_oracle(f: Field, b: int, c: int) -> tuple[int, ...]:
    return tuple(
        x for x in range(f.q)
        if f.add(f.add(f.mul(x, x), f.mul(b, x)), c) == 0
    )


def test_quadratic_x2_minus_x_plus_1_gf7():
    f = field_new(7)
    roots = f.solve_monic_quadratic(f.neg(1), 1)
    assert roots == _quadratic_oracle(f, 6, 1) == (3, 5)


def test_quadratic_x2_minus_x_plus_1_gf5_empty():
    f = field_new(5)
    assert f.solve_monic_quadratic(f.neg(1), 1) == ()


def test_quadratic_x2_minus_x_plus_1_gf9_double_root_minus_one():
    f = field_new(3, 2)
    roots = f.solve_monic_quadratic(f.neg(1), 1)
    assert roots == (f.neg(1),) == (2,)


@pytest.mark.parametrize("p,h", [(3, 1), (3, 2), (7, 1), (2, 2)])
def test_quadratic_matches_oracle_on_random_coefficients(p, h):
    f = field_new(p, h)
    rng = random.Random(7)
    for _ in range(50):
        b, c = rng.randrange(f.q), rng.randrange(f.q)
        assert f.solve_monic_quadratic(b, c) == _quadratic_oracle(f, b, c)


def test_subfield_membership_gf9():
    f = field_new(3, 2)
    subfield = [a for a in range(f.q) if field_pow(f, a, 3) == a]  # fixed by x -> x^p
    assert subfield == [0, 1, 2]


def test_parse_field():
    assert parse_field("3^2").q == 9
    assert parse_field("7").q == 7


def test_field_equality_and_hash():
    assert field_new(3, 2) == field_new(3, 2)
    assert field_new(3, 2) != field_new(3, 1)
    assert hash(field_new(2, 2)) == hash(field_new(2, 2))


def test_field_above_the_table_limit_is_refused():
    # every field is held as lookup tables, at most 4096 elements
    for p, h in ((5, 6), (2, 13), (2, 16)):
        with pytest.raises(FieldError, match="lookup-table limit"):
            field_new(p, h)


def test_prime_of_power():
    for p in (2, 3, 5, 7, 251):
        for h in (1, 2, 3):
            assert prime_of_power(p**h) == p
    for n in (-4, 0, 1, 6, 12, 18, 100, 2 * 49):
        with pytest.raises(FieldError, match="not a prime power"):
            prime_of_power(n)


def test_the_table_limit_is_checked_before_trial_division(capsys):
    # a huge prime p or exponent h is refused at once, by the cap, without
    # trial division and without forming p**h; a non-prime p under the cap
    # is still NotPrimeError
    for spec, (p, h) in (("1000000000000000003", (1000000000000000003, 1)),
                         ("2^100000000", (2, 100000000))):
        t0 = time.perf_counter()
        with pytest.raises(FieldError, match="lookup-table limit") as info:
            field_new(p, h)
        assert not isinstance(info.value, NotPrimeError)
        code = cli.main(["plane", "build", "--field", spec])
        record = json.loads(capsys.readouterr().out)
        assert code == 1
        assert record["outcome"]["error"] == "FieldError"
        assert "lookup-table limit" in record["outcome"]["message"]
        assert time.perf_counter() - t0 < 1.0
    for p, h in ((4, 10), (4096, 1), (6, 1), (1, 2)):
        with pytest.raises(NotPrimeError):
            field_new(p, h)
    with pytest.raises(FieldError, match="lookup-table limit"):
        field_new(4099, 1)  # a prime above the cap


def _broadcast_addition_table(f, rows=64):
    """The addition table as first written: a q x q x h broadcast of the
    coefficient vectors (here over blocks of rows, to bound the test's memory)."""
    powers = f.p ** np.arange(f.h, dtype=np.int64)
    coeffs = (np.arange(f.q, dtype=np.int64)[:, None] // powers[None, :]) % f.p
    return np.concatenate([
        (((coeffs[i:i + rows, None, :] + coeffs[None, :, :]) % f.p) @ powers).astype(np.int32)
        for i in range(0, f.q, rows)
    ])


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (3, 5), (2, 10)])
def test_addition_table_matches_the_broadcast(p, h):
    f = field_new(p, h)
    want = _broadcast_addition_table(f)
    assert f._add_t.dtype == want.dtype and np.array_equal(f._add_t, want)


def test_table_build_memory_is_bounded():
    # the tables of GF(2^10) take 8 MiB (int32 addition and multiplication)
    tracemalloc.start()
    try:
        field_new(2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def reference_mul_inv_tables(f):
    """The multiplication and inverse tables as first built: one column per
    element b, from the GF(p)-linear map of multiplication by b."""
    p, h, q = f.p, f.h, f.q
    powers = p ** np.arange(h, dtype=np.int64)
    coeffs = (np.arange(q, dtype=np.int64)[:, None] // powers[None, :]) % p
    mul = np.empty((q, q), dtype=np.int32)
    for b in range(q):
        mat = np.empty((h, h), dtype=np.int64)
        col = f.coeffs(b)
        for i in range(h):
            mat[i] = col
            if i + 1 < h:
                col = tuple(_poly_mod([0] + list(col), f.modulus, p))
        mul[:, b] = (((coeffs @ mat) % p) @ powers).astype(np.int32)
    inv = np.full(q, -1, dtype=np.int32)
    rows, cols = np.nonzero(mul == 1)
    inv[rows] = cols
    return mul, inv


@pytest.mark.parametrize(
    "p,h", [(2, h) for h in range(1, 9)] + [(3, h) for h in range(1, 5)] + [(5, 2), (7, 2), (2, 10)]
)
def test_log_antilog_tables_match_the_column_construction(p, h):
    f = field_new(p, h)
    mul, inv = reference_mul_inv_tables(f)
    for got, want in ((f._mul_t, mul), (f._inv_t, inv)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_log_antilog_tables_with_a_given_modulus():
    # x is not primitive modulo x^4+x^3+x^2+x+1 (it has order 5), so the
    # primitive element is found by the scan, not assumed to be x
    f = field_new(2, 4, modulus=(1, 1, 1, 1, 1))
    mul, inv = reference_mul_inv_tables(f)
    assert f._mul_t.tobytes() == mul.tobytes() and f._inv_t.tobytes() == inv.tobytes()


def test_largest_tabled_field_builds_in_under_a_second():
    t0 = time.perf_counter()
    f = field_new(2, 12)
    assert time.perf_counter() - t0 < 1.0
    a, b = 1234, 4000
    assert f.mul(f.mul(a, b), f.inv(b)) == a and f.mul(a, f.inv(a)) == 1


def reference_poly_divides(d, f, p):
    """True if the monic polynomial d divides f over GF(p): the trial
    division the irreducibility test first used, kept as an oracle."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    r = [x % p for x in f]
    dd = len(d) - 1
    while len(trim(list(r))) - 1 >= dd and any(r):
        r = trim(r)
        if len(r) - 1 < dd:
            break
        c = r[-1]
        shift = len(r) - 1 - dd
        for j in range(dd + 1):
            r[shift + j] = (r[shift + j] - c * d[j]) % p
        r = trim(r)
        if not r:
            return True
    return not trim(list(r))


def reference_is_irreducible(f, p):
    deg = len(f) - 1
    return deg >= 1 and not any(
        reference_poly_divides(g, f, p)
        for d in range(1, deg // 2 + 1) for g in _monic_polys(p, d)
    )


@pytest.mark.parametrize("p,max_deg", [(2, 6), (3, 4), (5, 3)])
def test_irreducibility_matches_the_trial_division(p, max_deg):
    for deg in range(1, max_deg + 1):
        for f in _monic_polys(p, deg):
            assert _is_irreducible(f, p) == reference_is_irreducible(f, p), f
            for g in (g for d in range(1, deg + 1) for g in _monic_polys(p, d)):
                assert (not any(_poly_mod(f, g, p))) == reference_poly_divides(g, f, p), (g, f)


@pytest.mark.parametrize(
    "p,h,modulus",
    [
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
        (2, 12, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
        (3, 2, (1, 0, 1)),
        (3, 3, (1, 2, 0, 1)),
        (5, 2, (2, 0, 1)),
        (7, 2, (1, 0, 1)),
    ],
)
def test_default_moduli_are_pinned(p, h, modulus):
    assert _default_modulus(p, h) == modulus
    assert reference_is_irreducible(modulus, p)
