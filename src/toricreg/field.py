"""Exact arithmetic in GF(q) in a discrete-log (Zech) representation.

A field element is either ZERO (= -1) or an integer e in [0, q-2]
standing for g**e, where g is a fixed generator of the multiplicative
group.  Multiplication is index addition mod q-1; addition costs one
Zech-table lookup: g**a + g**b = g**a * (1 + g**(b-a)).  This is the
right trade for Gaussian elimination, where every matrix entry is a
power of g.

GF(q), q = p**k, is GF(p)[x]/(f) with g = x, for the first monic f of
degree k, in the order of the coefficient tuple (c_{k-1}, ..., c_0) of
x**k + c_{k-1} x**{k-1} + ... + c_0, whose root generates GF(q)*, so the
tables are reproducible bit for bit.  A candidate is taken when its
matrix C of multiplication by x over GF(p) has order exactly q-1:
C**(q-1) = I and C**((q-1)/r) != I for every prime r dividing q-1.  If f
were reducible, GF(p)[x]/(f) would have fewer than q-1 units and no unit
of order q-1, so no irreducibility test is needed (Lidl-Niederreiter,
Finite Fields, ch. 3).

``_tables`` builds the tables of a q once per process, and every
Field(q) shares them: the exp, log and Zech tuples, from the digits of
x**0, ..., x**(q-2) found by doubling, and ``digits``, the read-only
(q, k) table of the base-p digits of every element, constant term
first, whose last row, where the index ZERO = -1 lands, is zero.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NotPrimePowerError

# Sentinel log-value for the additive identity.  Kept outside [0, q-2]
# so every operation must branch on it explicitly.
ZERO = -1

TABLE_CAP = 1 << 16

# A field element in log representation: ZERO or an int in [0, q-2].
FieldElem = int


def _prime_factors(n):
    """The distinct primes dividing n, in increasing order."""
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


def prime_power(q):
    """Return (p, k) with q == p**k for a field within the table cap.

    Raises OverflowError above the cap and NotPrimePowerError when q is
    not a prime power; the cap is checked first, so the trial division
    stays short.
    """
    if q > TABLE_CAP:
        raise OverflowError(
            f"field cardinality {q} exceeds the table cap {TABLE_CAP}"
        )
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    p, k = primes[0], 1
    while p**k < q:
        k += 1
    return p, k


def _mat_pow(C, e, p):
    """C**e over GF(p) by repeated squaring, in int64."""
    out = np.eye(len(C), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ C % p
        C = C @ C % p
        e >>= 1
    return out


def _generates(C, q, p):
    """True if C has order exactly q-1 over GF(p)."""
    eye = np.eye(len(C), dtype=np.int64)
    return np.array_equal(_mat_pow(C, q - 1, p), eye) and not any(
        np.array_equal(_mat_pow(C, (q - 1) // r, p), eye) for r in _prime_factors(q - 1)
    )


@functools.cache
def _tables(q):
    """The primitive polynomial, the exp, log and Zech tables and the digit
    table of GF(q), built once per q and shared by every Field(q)."""
    p, k = prime_power(q)
    place = p ** np.arange(k)
    # row j of C holds the digits of x**(j+1); the last row, x**k, is set
    # from each candidate's coefficients c_0, ..., c_{k-1}
    C = np.eye(k, k, 1, dtype=np.int64)
    for code in range(q):
        coeffs = code // place % p
        C[-1] = -coeffs % p
        if _generates(C, q, p):
            break
    # digits of x**0, ..., x**(q-2): rows n..2n-1 are rows 0..n-1 times C**n
    powers = np.zeros((q - 1, k), np.int64)
    powers[0, 0] = 1
    n = 1
    while n < q - 1:
        m = min(n, q - 1 - n)
        powers[n : n + m] = powers[:m] @ C % p
        C = C @ C % p
        n *= 2
    exp = powers @ place
    log = np.full(q, ZERO, np.int64)
    log[exp] = np.arange(q - 1)
    # 1 + g**i adds one to the constant digit; a sum of 0 reads log[0] = ZERO
    zech = log[exp - powers[:, 0] + (powers[:, 0] + 1) % p]
    digits = np.zeros((q, k), np.min_scalar_type(-p))
    digits[:-1] = powers
    digits.flags.writeable = False
    poly = (*coeffs.tolist(), 1)
    return poly, tuple(exp.tolist()), tuple(log.tolist()), tuple(zech.tolist()), digits


class Field:
    """GF(q) with Zech-table addition.  Immutable after construction; every
    Field(q) shares the tables of its q."""

    __slots__ = (
        "q", "p", "k", "primitive_poly", "zech_table",
        "exp_table", "log_table", "digits", "_neg_log",
    )

    def __init__(self, q: int):
        p, k = prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        (self.primitive_poly, self.exp_table, self.log_table,
         self.zech_table, self.digits) = _tables(q)
        # log of -1: in characteristic 2 this is 1 = g**0, otherwise the
        # unique element of multiplicative order 2.
        self._neg_log = 0 if p == 2 else (q - 1) // 2

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

    def __repr__(self):
        return f"Field(q={self.q})"

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(("Field", self.q))
