"""Exact arithmetic in GF(2^h) and in its quadratic and cubic extensions.

Base-field elements are plain ints whose binary digits are the coefficients
in the polynomial basis modulo a fixed irreducible polynomial over GF(2).
Extension-field elements are tuples of base-field ints (coefficient vectors
over GF(q)), so the embedded copy of GF(q) and the Frobenius map x -> x^q
are structural rather than computed through discrete logs.

Zero and one are always represented by 0 and 1 (by (0,..) and (1,0,..) in
extensions).  Addition is XOR.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator, Optional, Sequence

import numpy as np

MAX_H = 20  # fields beyond 2^20 are out of scope
_TABLE_LIMIT = 1 << 16  # log/antilog tables only up to this order
_COLUMN_LIMIT = 1 << 8  # the product table of column arithmetic only up to this order


# ----------------------------------------------------------------------
# Polynomial arithmetic over GF(2), polynomials encoded as ints
# ----------------------------------------------------------------------

def gf2_degree(p: int) -> int:
    return p.bit_length() - 1


def gf2_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def gf2_mod(a: int, m: int) -> int:
    dm = gf2_degree(m)
    while gf2_degree(a) >= dm and a:
        a ^= m << (gf2_degree(a) - dm)
    return a


def gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_powmod_x(e: int, m: int) -> int:
    """x^(2^e) reduced modulo m, by repeated squaring of the class of x."""
    r = gf2_mod(0b10, m)
    for _ in range(e):
        r = gf2_mod(gf2_mul(r, r), m)
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_gf2(p: int) -> bool:
    """Irreducibility over GF(2) via x^(2^h) = x mod p and proper-divisor tests."""
    h = gf2_degree(p)
    if h < 1 or not (p & 1):  # constant term must be 1 for h >= 1
        return h == 1 and p == 0b10  # the polynomial x alone
    if gf2_powmod_x(h, p) != gf2_mod(0b10, p):
        return False
    for f in _prime_factors(h):
        t = gf2_powmod_x(h // f, p) ^ gf2_mod(0b10, p)
        if gf2_gcd(p, t) != 1:
            return False
    return True


def default_modulus(h: int) -> int:
    """Smallest (by integer encoding) irreducible degree-h polynomial over GF(2)."""
    for low in range(1, 1 << h, 2):  # constant term 1
        p = (1 << h) | low
        if is_irreducible_gf2(p):
            return p
    raise ValueError(f"no irreducible polynomial of degree {h}")  # unreachable


def parse_modulus(text: str) -> int:
    """Parse a hex-encoded modulus such as '0xB' (x^3 + x + 1)."""
    value = int(text, 16)
    if value <= 1:
        raise ValueError(f"not a valid modulus: {text!r}")
    return value


def modulus_hex(p: int) -> str:
    return format(p, "#x").upper().replace("0X", "0x")


# ----------------------------------------------------------------------
# The base field GF(2^h)
# ----------------------------------------------------------------------

class Field:
    """GF(2^h) for h >= 2, elements represented as ints in [0, 2^h).

    A fixed modulus makes every output reproducible bit for bit; by default
    the lexicographically least irreducible polynomial of degree h is used.
    """

    def __init__(self, h: int, modulus: Optional[int] = None):
        if h < 2:
            raise ValueError("field order must be at least 4 (h >= 2)")
        if h > MAX_H:
            raise ValueError(f"field order 2^{h} exceeds the supported bound 2^{MAX_H}")
        self.h = h
        self.q = 1 << h
        self.modulus = default_modulus(h) if modulus is None else modulus
        if gf2_degree(self.modulus) != h:
            raise ValueError(
                f"modulus {modulus_hex(self.modulus)} has degree "
                f"{gf2_degree(self.modulus)}, expected {h}"
            )
        if not is_irreducible_gf2(self.modulus):
            raise ValueError(f"modulus {modulus_hex(self.modulus)} is reducible over GF(2)")
        self.zero = 0
        self.one = 1
        self.np_dtype = np.uint8 if self.q <= 256 else np.uint32

        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        if self.q <= _TABLE_LIMIT:
            self._build_log_tables()

        # lazily built numpy tables
        self._mul_table: Optional[np.ndarray] = None
        self._inv_table: Optional[np.ndarray] = None
        self._trace_table: Optional[np.ndarray] = None
        self._sqrt_table: Optional[np.ndarray] = None
        self._as_table: Optional[np.ndarray] = None
        self._theta_weights: Optional[list[int]] = None

    def __repr__(self) -> str:
        return f"Field(2^{self.h}, modulus={modulus_hex(self.modulus)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.h, self.modulus) == (other.h, other.modulus)

    def __hash__(self) -> int:
        return hash((self.h, self.modulus))

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def _mul_raw(self, a: int, b: int) -> int:
        r = 0
        hi = 1 << self.h
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a & hi:
                a ^= self.modulus
            b >>= 1
        return r

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in GF(2^h)")
        if self._exp is not None:
            return self._exp[(self.q - 1) - self._log[a]]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def sqrt(self, a: int) -> int:
        """The unique square root, a^(2^(h-1))."""
        for _ in range(self.h - 1):
            a = self.mul(a, a)
        return a

    def trace(self, a: int) -> int:
        """Absolute trace a + a^2 + ... + a^(2^(h-1)), an element of {0, 1}."""
        acc, t = a, a
        for _ in range(self.h - 1):
            t = self.mul(t, t)
            acc ^= t
        return acc

    def solve_artin_schreier(self, v: int) -> Optional[tuple[int, int]]:
        """Both roots of X^2 + X + v, or None when trace(v) = 1.

        Uses the closed-form solution t = sum_i theta_i v^(2^i) built from a
        fixed trace-one element theta; the two roots differ by 1.
        """
        if self.trace(v) != 0:
            return None
        if self._theta_weights is None:
            theta = next(c for c in range(self.q) if self.trace(c) == 1)
            powers = [theta]
            for _ in range(self.h - 1):
                powers.append(self.mul(powers[-1], powers[-1]))
            # theta_i = sum_{j>i} theta^(2^j)
            self._theta_weights = [
                reduce(lambda x, y: x ^ y, powers[i + 1:], 0) for i in range(self.h - 1)
            ]
        t = 0
        vp = v
        for w in self._theta_weights:
            t ^= self.mul(w, vp)
            vp = self.mul(vp, vp)
        if self.mul(t, t) ^ t != v:
            raise AssertionError(f"closed-form Artin-Schreier root {t} misses v = {v}")
        t = min(t, t ^ 1)
        return t, t ^ 1

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def trace_zero_elements(self) -> list[int]:
        """The q/2 elements of zero trace, in increasing encoding order."""
        return [a for a in range(self.q) if self.trace(a) == 0]

    # -- tables and vectorized arithmetic ---------------------------------

    def _build_log_tables(self) -> None:
        g = self._find_primitive()
        exp = [0] * (2 * (self.q - 1))
        log = [0] * self.q
        val = 1
        for i in range(self.q - 1):
            exp[i] = val
            exp[i + self.q - 1] = val
            log[val] = i
            val = self._mul_raw(val, g)
        self._exp, self._log = exp, log

    def _find_primitive(self) -> int:
        n = self.q - 1
        cofactors = [n // p for p in _prime_factors(n)]
        for g in range(2, self.q):
            powg = lambda e: self._pow_raw(g, e)
            if all(powg(c) != 1 for c in cofactors):
                return g
        raise RuntimeError("no primitive element found")  # unreachable

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    @property
    def mul_table(self) -> np.ndarray:
        """The q*q products as one flat array: entry (a << h) | b is a*b.
        Built on first use, from the log tables; q <= 256, so elements
        are uint8 and indices fit uint16."""
        if self._mul_table is None:
            if self.q > _COLUMN_LIMIT:
                raise ValueError(f"column arithmetic needs q <= {_COLUMN_LIMIT}, got q={self.q}")
            log = np.array(self._log)
            table = np.array(self._exp, dtype=np.uint8)[log[:, None] + log[None, :]]
            table[0, :] = table[:, 0] = 0
            self._mul_table = table.ravel()
        return self._mul_table

    @property
    def inv_table(self) -> np.ndarray:
        """1/b per b: the position of the 1 in row b of the product table;
        row 0 has none, so entry 0 is 0."""
        if self._inv_table is None:
            self._inv_table = np.argmax(self.mul_table.reshape(self.q, self.q) == 1, axis=1
                                        ).astype(self.np_dtype)
        return self._inv_table

    @property
    def trace_table(self) -> np.ndarray:
        if self._trace_table is None:
            self._trace_table = np.array([self.trace(a) for a in range(self.q)], dtype=np.uint8)
        return self._trace_table

    @property
    def sqrt_table(self) -> np.ndarray:
        if self._sqrt_table is None:
            self._sqrt_table = np.array([self.sqrt(a) for a in range(self.q)], dtype=self.np_dtype)
        return self._sqrt_table

    @property
    def artin_schreier_table(self) -> np.ndarray:
        """Minimal root of X^2 + X = v per v, or -1 when there is none.

        Built by brute enumeration of t -> t^2 + t, independently of the
        closed-form solver, so the two can be checked against each other.
        """
        if self._as_table is None:
            t = np.full(self.q, -1, dtype=np.int64)
            for x in range(self.q):
                v = self.mul(x, x) ^ x
                t[v] = min(x, x ^ 1)
            self._as_table = t
        return self._as_table

    def mul_col(self, arr: np.ndarray, scalar: int) -> np.ndarray:
        """Elementwise product of an element array with one fixed scalar:
        a gather from the scalar's row of the product table."""
        row = int(scalar) << self.h
        return self.mul_table[row:row + self.q][arr]

    def vmul(self, a, b):
        """Elementwise product of two element arrays, or of plain ints; one
        gather from the product table, returning numpy values."""
        return self.mul_table[(np.uint16(a) << self.h) | b]

    def vdiv(self, a, b):
        """Elementwise a / b; entries with b = 0 are returned as 0."""
        return self.vmul(a, self.inv_table[b])


# ----------------------------------------------------------------------
# Extensions GF(q^2) and GF(q^3) as polynomial quotients over GF(q)
# ----------------------------------------------------------------------

ExtElement = tuple[int, ...]


class ExtField:
    """GF(q^r) for r in {2, 3}, elements as length-r coefficient tuples over GF(q).

    The modulus is the first monic irreducible of degree r over the base in
    coefficient-encoding order, so a given (h, base modulus) always yields
    the same extension.  Base elements embed as constant polynomials, and
    membership in the embedded base field is a structural test.
    """

    def __init__(self, base: Field, degree: int):
        if degree not in (2, 3):
            raise ValueError("only quadratic and cubic extensions are supported")
        self.base = base
        self.degree = degree
        self.order = base.q ** degree
        self.modulus = self._find_modulus()
        self.zero: ExtElement = (0,) * degree
        self.one: ExtElement = (1,) + (0,) * (degree - 1)
        # generator: the class of the adjoined variable
        self.gen: ExtElement = (0, 1) + (0,) * (degree - 2)
        self._as_roots: Optional[dict[ExtElement, ExtElement]] = None

    def __repr__(self) -> str:
        return f"ExtField({self.base!r}, degree={self.degree})"

    def _poly_eval(self, low_coeffs: Sequence[int], x: int) -> int:
        # monic polynomial x^r + sum c_i x^i evaluated in the base field
        F = self.base
        acc = 1
        for c in reversed(low_coeffs):
            acc = F.mul(acc, x) ^ c
        return acc

    def _find_modulus(self) -> tuple[int, ...]:
        # degree 2 or 3: irreducible over GF(q) iff no root in GF(q)
        q, r = self.base.q, self.degree
        for k in range(q ** r):
            coeffs = tuple((k // q ** i) % q for i in range(r))
            if all(self._poly_eval(coeffs, x) for x in self.base.elements()):
                return coeffs
        raise RuntimeError("no irreducible extension modulus found")  # unreachable

    # -- arithmetic --------------------------------------------------------

    def add(self, a: ExtElement, b: ExtElement) -> ExtElement:
        return tuple(x ^ y for x, y in zip(a, b))

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        F, r = self.base, self.degree
        prod = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] ^= F.mul(ai, bj)
        # reduce by x^r = sum modulus[i] x^i
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i, m in enumerate(self.modulus):
                    if m:
                        prod[k - r + i] ^= F.mul(c, m)
        return tuple(prod[:r])

    def vmul(self, a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        """Elementwise product of two arrays of extension elements, each
        carried as its r component columns over the base field."""
        F, r = self.base, self.degree
        prod: list = [None] * (2 * r - 1)
        for i in range(r):
            for j in range(r):
                term = F.vmul(a[i], b[j])
                prod[i + j] = term if prod[i + j] is None else prod[i + j] ^ term
        # reduce by x^r = sum modulus[i] x^i
        for k in range(2 * r - 2, r - 1, -1):
            for i, m in enumerate(self.modulus):
                if m:
                    prod[k - r + i] = prod[k - r + i] ^ F.mul_col(prod[k], m)
        return tuple(prod[:r])

    def pow(self, a: ExtElement, e: int) -> ExtElement:
        if e < 0:
            a, e = self.inv(a), -e
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: ExtElement) -> ExtElement:
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero in extension field")
        return self.pow(a, self.order - 2)

    def frobenius(self, a: ExtElement) -> ExtElement:
        """a^q: the generator of the Galois group over the base field."""
        r = a
        for _ in range(self.base.h):
            r = self.mul(r, r)
        return r

    def embed(self, c: int) -> ExtElement:
        return (c,) + (0,) * (self.degree - 1)

    def in_base(self, a: ExtElement) -> bool:
        return all(x == 0 for x in a[1:])

    def to_base(self, a: ExtElement) -> int:
        if not self.in_base(a):
            raise ValueError(f"{a} is not in the embedded base field")
        return a[0]

    def elements(self) -> Iterator[ExtElement]:
        q, r = self.base.q, self.degree
        for k in range(q ** r):
            yield tuple((k // q ** i) % q for i in range(r))

    def encode(self, a: ExtElement) -> int:
        """Canonical integer encoding, for deterministic orderings."""
        q = self.base.q
        return sum(x * q ** i for i, x in enumerate(a))

    def solve_artin_schreier(self, v: ExtElement) -> Optional[tuple[ExtElement, ExtElement]]:
        """Both roots of X^2 + X + v in GF(q^r), or None."""
        if self._as_roots is None:
            roots: dict[ExtElement, ExtElement] = {}
            for t in self.elements():
                key = self.add(self.mul(t, t), t)
                prev = roots.get(key)
                if prev is None or self.encode(t) < self.encode(prev):
                    roots[key] = t
            self._as_roots = roots
        t = self._as_roots.get(v)
        if t is None:
            return None
        return t, self.add(t, self.one)
