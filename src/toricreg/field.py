"""Exact arithmetic in GF(q) in a discrete-log (Zech) representation.

A field element is either ZERO (= -1) or an integer e in [0, q-2]
standing for g**e, where g is a fixed generator of the multiplicative
group.  Multiplication is index addition mod q-1; addition costs one
Zech-table lookup: g**a + g**b = g**a * (1 + g**(b-a)).  This is the
right trade for Gaussian elimination, where every matrix entry is a
power of g.

Construction is deterministic: the field is built from the
lexicographically smallest primitive polynomial (ordered by the
coefficient tuple (c_{k-1}, ..., c_0) of the monic candidate
x**k + c_{k-1} x**{k-1} + ... + c_0), so tables are reproducible
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPrimePowerError

# Sentinel log-value for the additive identity.  Kept outside [0, q-2]
# so every operation must branch on it explicitly.
ZERO = -1

TABLE_CAP = 1 << 16

# A field element in log representation: ZERO or an int in [0, q-2].
FieldElem = int


def prime_power(q, table_cap=TABLE_CAP):
    """Return (p, k) with q == p**k for a field within the table cap.

    Raises OverflowError above the cap and NotPrimePowerError when q is
    not a prime power; the cap is checked first, so the trial division
    stays short.
    """
    if q > table_cap:
        raise OverflowError(
            f"field cardinality {q} exceeds the table cap {table_cap}"
        )
    if q < 2:
        raise NotPrimePowerError(f"{q} is not a prime power")
    m = q
    p = None
    for cand in range(2, m + 1):
        if cand * cand > m:
            p = m  # remaining part is prime
            break
        if m % cand == 0:
            p = cand
            break
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return p, k


def _digits(value, p, k):
    """Base-p digits of a packed element, constant term first."""
    out = []
    for _ in range(k):
        out.append(value % p)
        value //= p
    return out


def _pack(coeffs, p):
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_divisible(num, den, p):
    """True if the monic polynomial den divides num over GF(p)."""
    rem = list(num)
    dd = len(den) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - 1 - dd
            for i, c in enumerate(den):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return all(c % p == 0 for c in rem)


def _monic_irreducibles(p, max_deg):
    """Monic irreducible polynomials over GF(p) of degree 1..max_deg."""
    by_degree = {}
    for d in range(1, max_deg + 1):
        found = []
        for code in range(p**d):
            poly = _digits(code, p, d) + [1]
            if any(
                _poly_divisible(poly, f, p)
                for e in range(1, d // 2 + 1)
                for f in by_degree[e]
            ):
                continue
            found.append(poly)
        by_degree[d] = found
    return by_degree


class Field:
    """GF(q) with Zech-table addition.  Immutable after construction."""

    __slots__ = (
        "q", "p", "k", "primitive_poly", "zech_table",
        "exp_table", "log_table", "_neg_log", "_exp_arr",
    )

    def __init__(self, q: int, table_cap: int = TABLE_CAP):
        p, k = prime_power(q, table_cap)
        self.q = q
        self.p = p
        self.k = k
        poly, exp_table = self._find_primitive_poly(p, k, q)
        self.primitive_poly = tuple(poly)
        self.exp_table = tuple(exp_table)
        log_table = [ZERO] * q
        for i, v in enumerate(exp_table):
            log_table[v] = i
        self.log_table = tuple(log_table)
        zech = []
        for i in range(q - 1):
            s = self.add_ints(1, exp_table[i])
            zech.append(ZERO if s == 0 else log_table[s])
        self.zech_table = tuple(zech)
        # log of -1: in characteristic 2 this is 1 = g**0, otherwise the
        # unique element of multiplicative order 2.
        self._neg_log = 0 if p == 2 else (q - 1) // 2
        self._exp_arr = None

    @staticmethod
    def _find_primitive_poly(p, k, q):
        """Smallest monic degree-k polynomial whose root generates GF(q)*.

        Irreducibility by trial division against lower-degree monic
        irreducibles, primitivity by checking the root has order q-1.
        """
        irreducibles = _monic_irreducibles(p, k // 2) if k > 1 else {}
        for code in range(q):
            coeffs = _digits(code, p, k)
            poly = coeffs + [1]
            if k > 1 and any(
                _poly_divisible(poly, f, p)
                for e in range(1, k // 2 + 1)
                for f in irreducibles[e]
            ):
                continue
            exp_table = Field._build_exp_table(poly, p, k, q)
            if exp_table is not None:
                return poly, exp_table
        raise AssertionError(f"no primitive polynomial found for q={q}")

    @staticmethod
    def _build_exp_table(poly, p, k, q):
        """Powers of the root x modulo poly, or None if x is not primitive."""
        one = [1] + [0] * (k - 1)
        state = list(one)
        table = []
        for i in range(q - 1):
            table.append(_pack(state, p))
            # multiply by x and reduce by the monic poly
            lead = state[-1]
            state = [0] + state[:-1]
            if lead:
                for j in range(k):
                    state[j] = (state[j] - lead * poly[j]) % p
            if state == one and i + 1 < q - 1:
                return None  # order of x divides i+1 < q-1
        if state != one:
            return None
        return table

    # -- conversions ---------------------------------------------------

    def to_int(self, e: FieldElem) -> int:
        """Packed base-p integer encoding of the element (0 for ZERO)."""
        return 0 if e == ZERO else self.exp_table[e]

    def from_int(self, value: int) -> FieldElem:
        if value == 0:
            return ZERO
        return self.log_table[value]

    def add_ints(self, a: int, b: int) -> int:
        """Digitwise mod-p addition of packed encodings (reference path)."""
        p, out, mul = self.p, 0, 1
        for _ in range(self.k):
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    # -- element operations (log representation) ------------------------

    @property
    def one(self) -> FieldElem:
        return 0

    @property
    def zero(self) -> FieldElem:
        return ZERO

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        z = self.zech_table[(b - a) % (self.q - 1)]
        if z == ZERO:
            return ZERO
        return (a + z) % (self.q - 1)

    def neg(self, a: FieldElem) -> FieldElem:
        if a == ZERO:
            return ZERO
        return (a + self._neg_log) % (self.q - 1)

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.add(a, self.neg(b))

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % (self.q - 1)

    def inv(self, a: FieldElem) -> FieldElem:
        if a == ZERO:
            raise ZeroDivisionError("inverse of the field zero")
        return (-a) % (self.q - 1)

    def div(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: FieldElem, e: int) -> FieldElem:
        if a == ZERO:
            if e > 0:
                return ZERO
            if e == 0:
                return 0
            raise ZeroDivisionError("negative power of the field zero")
        return (a * e) % (self.q - 1)

    def elements(self):
        """All elements in log representation, ZERO first."""
        yield ZERO
        yield from range(self.q - 1)

    # -- numpy views used by the vectorised linear algebra ---------------

    @property
    def exp_array(self) -> np.ndarray:
        if self._exp_arr is None:
            self._exp_arr = np.array(self.exp_table, dtype=np.int64)
        return self._exp_arr

    def __repr__(self):
        return f"Field(q={self.q})"

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(("Field", self.q))
