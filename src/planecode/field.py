"""Exact arithmetic in small Galois fields GF(p^h).

Elements are plain integers in [0, p^h): the code of an element with
coefficient vector (c_0, ..., c_{h-1}) (low degree first, residues mod p)
is sum(c_i * p**i).  All ordering and hashing derives from this encoding.
The zero and one elements are the codes 0 and 1.

Multiplication reduces modulo a monic irreducible polynomial of degree h.
If no modulus is given, the default is the irreducible polynomial whose
coefficient vector has the smallest code, so constructions are reproducible
across runs and platforms.

Every field is held as full addition, negation, multiplication and inverse
lookup tables, so the order is capped at 4096 elements.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

_TABLE_LIMIT = 4096


class FieldError(ValueError):
    """Base class for field construction/arithmetic errors."""


class NotPrimeError(FieldError):
    pass


class ReducibleModulusError(FieldError):
    pass


class DivisionByZeroError(FieldError, ZeroDivisionError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_of_power(n: int) -> int:
    """The prime p of a prime power n = p^h, h >= 1; FieldError for any other n."""
    if n >= 2:
        p = next(d for d in range(2, n + 1) if n % d == 0)
        k = n
        while k % p == 0:
            k //= p
        if k == 1:
            return p
    raise FieldError(f"{n} is not a prime power")


def _poly_mod(a: list[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    a = [x % p for x in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    del a[dm:]
    while len(a) < dm:
        a.append(0)
    return a


def _monic_polys(p: int, deg: int) -> Iterable[list[int]]:
    """All monic polynomials of the given degree, ordered by coefficient code."""
    for code in range(p**deg):
        c, rest = [], code
        for _ in range(deg):
            c.append(rest % p)
            rest //= p
        yield c + [1]


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    deg = len(f) - 1
    if deg == 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if not any(_poly_mod(f, g, p)):
                return False
    return True


def _default_modulus(p: int, h: int) -> tuple[int, ...]:
    if h == 1:
        return (0, 1)
    for f in _monic_polys(p, h):
        if _is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {h} over GF({p})")  # unreachable


class Field:
    """GF(p^h) with a fixed monic irreducible modulus; immutable."""

    __slots__ = (
        "p", "h", "q", "modulus",
        "_mul_t", "_add_t", "_neg_t", "_inv_t",
    )

    def __init__(self, p: int, h: int = 1, modulus: Sequence[int] | None = None):
        # the cap comes before trial division, and p**h is formed only below it
        if not isinstance(p, int) or p < 2 or (p <= _TABLE_LIMIT and not is_prime(p)):
            raise NotPrimeError(f"p must be a prime integer, got {p!r}")
        if not isinstance(h, int) or h < 1:
            raise FieldError(f"h must be a positive integer, got {h!r}")
        if p > _TABLE_LIMIT or h >= _TABLE_LIMIT.bit_length() or p**h > _TABLE_LIMIT:
            raise FieldError(f"field order {p}^{h} exceeds the lookup-table limit {_TABLE_LIMIT}")
        q = p**h
        if modulus is None:
            modulus = _default_modulus(p, h)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != h + 1 or modulus[-1] != 1:
                raise ReducibleModulusError(
                    f"modulus must be monic of degree {h}, got {modulus}"
                )
            if h > 1 and not _is_irreducible(modulus, p):
                raise ReducibleModulusError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.h = h
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _build_tables(self) -> None:
        p, h, q = self.p, self.h, self.q
        powers = p ** np.arange(h, dtype=np.int64)
        coeffs = (np.arange(q, dtype=np.int64)[:, None] // powers[None, :]) % p
        digit_sum = np.add.outer(np.arange(p, dtype=np.int32), np.arange(p, dtype=np.int32)) % p
        add = np.zeros((1, 1), dtype=np.int32)
        for i in range(h):
            # codes a = X*p^i + x over i+1 digits: a p x p grid of blocks, block
            # (X, Y) the table over i digits plus ((X+Y) mod p)*p^i; no temporary
            # beyond the table itself
            n = len(add)
            add = (digit_sum[:, None, :, None] * p**i + add[None, :, None, :]).reshape(p * n, p * n)
        self._add_t = add
        self._neg_t = (((-coeffs) % p) @ powers).astype(np.int32)
        # the powers g^k of a primitive element (antilog) and their exponents
        # (log) give every product as one gather: a*b = g^(log a + log b)
        for g in range(1, q):
            times_g = (((coeffs @ self._times_matrix(g)) % p) @ powers).tolist()
            antilog = [1]
            x = times_g[1]
            while x != 1:
                antilog.append(x)
                x = times_g[x]
            if len(antilog) == q - 1:  # g has order q-1
                break
        log = np.empty(q, dtype=np.int32)
        log[antilog] = np.arange(q - 1, dtype=np.int32)
        log[0] = 2 * (q - 1)  # a product with 0 lands in the zero tail of exp
        exp = np.zeros(4 * q - 3, dtype=np.int32)
        exp[: 2 * (q - 1)] = antilog * 2  # twice, so the sum of two logs needs no mod
        self._mul_t = exp[np.add.outer(log, log)]
        inv = np.full(q, -1, dtype=np.int32)
        inv[1:] = exp[(q - 1) - log[1:]]
        self._inv_t = inv

    def _times_matrix(self, b: int) -> np.ndarray:
        """Multiplication by b as a GF(p)-linear map: row i holds x^i * b."""
        mat = np.empty((self.h, self.h), dtype=np.int64)
        row = self.coeffs(b)
        for i in range(self.h):
            mat[i] = row
            if i + 1 < self.h:
                row = tuple(_poly_mod([0] + list(row), self.modulus, self.p))
        return mat

    # -- element views ---------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        out, rest = [], a
        for _ in range(self.h):
            out.append(rest % self.p)
            rest //= self.p
        return tuple(out)

    def from_coeffs(self, c: Sequence[int]) -> int:
        a = 0
        for i, ci in enumerate(c[: self.h]):
            a += (ci % self.p) * self.p**i
        return a

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._add_t[a, b])

    def neg(self, a: int) -> int:
        return int(self._neg_t[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self._mul_t[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError("0 has no multiplicative inverse")
        return int(self._inv_t[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def in_subfield(self, a: int, d: int) -> bool:
        """True if a lies in the subfield GF(p^d); requires d | h."""
        if self.h % d != 0:
            raise FieldError(f"GF({self.p}^{d}) is not a subfield of GF({self.p}^{self.h})")
        return self.pow(a, self.p**d) == a

    def solve_monic_quadratic(self, b: int, c: int) -> tuple[int, ...]:
        """All roots of x^2 + b*x + c, by exhaustive evaluation."""
        roots = []
        for x in range(self.q):
            v = self.add(self.add(self.mul(x, x), self.mul(b, x)), c)
            if v == 0:
                roots.append(x)
        return tuple(roots)

    # -- misc -------------------------------------------------------------------

    def describe(self) -> str:
        return f"{self.p}^{self.h}" if self.h > 1 else f"{self.p}"

    def __repr__(self) -> str:
        return f"Field(GF({self.p}^{self.h}), modulus={list(self.modulus)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.h, self.modulus) == (other.p, other.h, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.h, self.modulus))


def field_new(p: int, h: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Construct GF(p^h); the default modulus is the irreducible with smallest code."""
    return Field(p, h, modulus)


def parse_field(spec: str) -> Field:
    """Parse a "p^h" or "p" string, e.g. "3^2" or "7"."""
    s = spec.strip()
    if "^" in s:
        ps, hs = s.split("^", 1)
        return field_new(int(ps), int(hs))
    return field_new(int(s), 1)
