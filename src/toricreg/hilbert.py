"""Hilbert function via ranks of monomial-evaluation matrices over GF(q).

The value at degree d is the rank of the matrix whose rows are the
degree-d monomials and whose columns are the points, each entry the
monomial evaluated at the point; the regularity is the first d where
the rank reaches the number of points.  In the log representation
entry(monomial, point) = g**(exponents . point), so a row is a vector of
exponent sums mod q-1.  Duplicate rows never change a rank, so rows are
deduplicated by content before elimination.

Two elimination routines compute ranks:

* ``rank_reference`` -- textbook in-place elimination in the Zech
  representation.  The simple spec of the method; quadratic-times-cols
  in pure Python, so only usable for small matrices.  The tests
  cross-check the production path against it.
* ``_PrimeEchelon`` -- blocked elimination mod a prime p with float
  matmul updates and delayed reduction, resumable: columns may arrive
  in batches, and each batch is brought up to date with the pivots
  already found from the stored row permutation and multipliers.

``gf_rank`` serves every q = p**k with that kernel through the regular
representation: each entry becomes the k x k matrix over GF(p) of
multiplication by it, and the GF(p) rank of the result is k times the
GF(q) rank.  ``hilbert_value`` ranks a single degree on its own that way.

The two routes to H(d) build their rows by different methods, so each
checks the other.  ``hilbert_value`` enumerates the degree-d monomials
and evaluates them by one exact integer product.  The profile of
``_hilbert_levels`` builds rows from the points alone: points are stored
with first coordinate x_1 = 1, so the rows of degree d-1 all reappear at
degree d, and every row new at degree d is a row new at degree d-1
shifted by one point column j >= 2 (x_1 is regular on the quotient, as in
Renteria-Simis-Villarreal, Finite Fields Appl. 2011).  It keeps that
frontier of new rows, feeds one echelon, transposed so that rows arrive
as columns, only the rows never seen in a lower degree, and reads H(0),
H(1), ... off its growing rank.  On this point set, a group, distinct
rows are distinct characters and hence independent, so every H(d) is
also checked to equal the number of distinct rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb

import numpy as np

from . import caps
from .errors import CeilingExceededError, ConsistencyError, TooLargeError
from .field import Field, ZERO
from .graph import Multigraph, graph_stats
from .points import PointSet, degree_formula, enumerate_points


def monomials_of_degree(s: int, d: int):
    """All exponent vectors of total degree d over s variables, in
    descending lexicographic order; there are C(s+d-1, d) of them."""
    if s < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    vec = [0] * s

    def rec(pos, rem):
        if pos == s - 1:
            vec[pos] = rem
            out.append(tuple(vec))
            return
        for v in range(rem, -1, -1):
            vec[pos] = v
            rec(pos + 1, rem - v)

    rec(0, d)
    return out


def monomial_matrix(s: int, d: int) -> np.ndarray:
    return np.array(monomials_of_degree(s, d), dtype=np.int64).reshape(-1, s)


def evaluation_columns(ps: PointSet, mons: np.ndarray, field: Field) -> np.ndarray:
    """Log-representation evaluation matrix, one row per monomial, one
    column per point: the exact integer exponent sums mod q-1.  Never
    contains ZERO: points lie in the torus."""
    return np.asarray(mons, dtype=np.int64) @ ps.points.T % (field.q - 1)


def _unique_rows(E: np.ndarray, seen: set | None = None) -> np.ndarray:
    """First occurrence of each distinct row not already in `seen`, in
    input order.  The kept rows' bytes are added to `seen`."""
    E = np.ascontiguousarray(E)
    if seen is None:
        seen = set()
    keep = []
    for i in range(E.shape[0]):
        key = E[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    if len(keep) == E.shape[0]:
        return E
    return E[keep]


# -- elimination routines ------------------------------------------------


def rank_reference(rows, field: Field) -> int:
    """In-place Gaussian elimination in the Zech representation, pivoting
    on the first nonzero entry.  Reference implementation."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if mat[i][c] != ZERO), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = field.inv(prow[c])
        for i in range(rank + 1, m):
            f = mat[i][c]
            if f == ZERO:
                continue
            mult = field.neg(field.mul(f, inv))
            row = mat[i]
            for jj in range(c, n):
                row[jj] = field.add(row[jj], field.mul(mult, prow[jj]))
        rank += 1
        if rank == m:
            break
    return rank


class _PrimeEchelon:
    """Resumable blocked elimination over GF(p) of a matrix with a fixed
    number of rows whose columns arrive in batches; ``rank`` is the rank
    of every column fed so far.

    Right-looking elimination with row pivoting and deferred trailing
    updates done by BLAS matmuls.  Within a panel of at most ``block``
    columns only the pivot row and the multiplier column are reduced
    mod p; at each panel boundary the pivot rows' trailing parts are
    fixed by forward substitution and the remaining rows by one matrix
    product.  Every product added to an entry is at most (p-1)**2, so
    entries are reduced mod p only when the next update could carry
    them past the float mantissa (delayed modular reduction, as in
    FFLAS-FFPACK).  The dtype is float32 when a whole panel fits in its
    24 bits, float64 otherwise.

    Resuming needs only the row permutation and the multiplier column
    of each pivot (row t of ``_lt`` holds the multipliers of pivot t).
    A new batch is permuted, then brought up to date by the same
    forward substitution and Schur update, pivots taken ``block`` at a
    time, before its own panels are eliminated.  ``capacity`` bounds the
    rank and sizes the multiplier buffer, allocated once; its pages
    become resident only as pivots are stored.
    """

    def __init__(self, rows: int, p: int, capacity: int | None = None, block: int = 256):
        self.p = p
        self.block = block
        self.rank = 0
        bits = 24 if block * (p - 1) ** 2 + p < (1 << 24) else 53
        self.dtype = np.float32 if bits == 24 else np.float64
        # products an entry reduced below p can absorb and stay exact
        self._room = ((1 << bits) - p) // (p - 1) ** 2
        self._perm = np.arange(rows)
        self._lt = np.empty((rows if capacity is None else capacity, rows), self.dtype)

    def _update(self, W, a, b, acc):
        """Apply pivots a..b-1 to W, whose rows are already permuted and
        reduced by every earlier pivot, with at most `acc` products
        pending in any entry; returns the new pending count."""
        p, L = self.p, self._lt
        if acc + b - a > self._room:
            W[a:] %= p
            acc = 0
        W[a] %= p
        for t in range(a + 1, b):
            W[t] -= L[a:t, t] @ W[a:t]
            W[t] %= p
        W[b:] -= L[a:b, b:].T @ W[a:b]
        return acc + b - a

    def add_columns(self, cols: np.ndarray) -> int:
        """Feed the columns of an integer (rows, c) matrix; returns the
        rank of all columns fed so far."""
        m = self._perm.size
        n = cols.shape[1]
        r = self.rank
        if r == m or n == 0:
            return r
        p, block, L = self.p, self.block, self._lt
        W = (cols[self._perm] % p).astype(self.dtype)
        acc = 0
        for a in range(0, r, block):
            acc = self._update(W, a, min(a + block, r), acc)
        c0 = 0
        while r < m and c0 < n:
            b = min(block, n - c0)
            # the panel adds up to b products to its own columns
            if acc + b > self._room:
                W[r:, c0:] %= p
                acc = 0
            pr = r
            for j in range(c0, c0 + b):
                col = W[pr:, j] % p
                nz = np.nonzero(col)[0]
                if nz.size == 0:
                    continue
                i = pr + int(nz[0])
                if i != pr:
                    W[[pr, i], j:] = W[[i, pr], j:]
                    L[:pr, [pr, i]] = L[:pr, [i, pr]]
                    self._perm[[pr, i]] = self._perm[[i, pr]]
                W[pr, j : c0 + b] %= p
                inv = pow(int(W[pr, j]), -1, p)
                lcol = (W[pr + 1 :, j] % p) * inv % p
                W[pr + 1 :, j + 1 : c0 + b] -= np.outer(lcol, W[pr, j + 1 : c0 + b])
                L[pr, pr + 1 :] = lcol
                pr += 1
                if pr == m:
                    break
            if r < pr < m and c0 + b < n:
                acc = self._update(W[:, c0 + b :], r, pr, acc)
            r = pr
            c0 += b
        self.rank = r
        return r


def _multiplication_blocks(field: Field) -> np.ndarray:
    """Regular representation of GF(q) over GF(p) as a (q, k, k) table.

    Entry e is the matrix of multiplication by g**e in the basis 1, g,
    ..., g**(k-1): its column j holds the base-p digits of g**(e+j).
    The last entry is the zero matrix, which is where the index ZERO = -1
    lands.  Digits are stored in the smallest signed dtype that holds p.
    """
    qm1, p, k = field.q - 1, field.p, field.k
    shifted = field.exp_array[(np.arange(qm1)[:, None] + np.arange(k)) % qm1]
    blocks = np.zeros((qm1 + 1, k, k), dtype=np.min_scalar_type(-p))
    blocks[:qm1] = shifted[:, None, :] // p ** np.arange(k)[:, None] % p
    return blocks


def _regular_columns(cols: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """GF(p) image of an (m, n) log-representation matrix under the
    regular representation, transposed: entry (i, j) becomes the k x k
    block blocks[cols[i, j]], laid out as an (n*k, m*k) matrix so that
    the rows of ``cols`` arrive as columns."""
    m, n = cols.shape
    k = blocks.shape[1]
    return blocks[cols].transpose(1, 3, 0, 2).reshape(n * k, m * k)


def _rank_over_q(echelon: _PrimeEchelon, k: int) -> int:
    if echelon.rank % k:
        raise ConsistencyError(
            f"GF({echelon.p}) rank {echelon.rank} of the regular representation "
            f"is not a multiple of {k}"
        )
    return echelon.rank // k


def gf_rank(cols: np.ndarray, field: Field) -> int:
    """Rank over GF(q) of a log-representation matrix (ZERO entries
    allowed as -1).

    Each entry becomes its k x k multiplication block over GF(p).  That
    map is an injective ring homomorphism, so it carries a rank-r
    factorisation over GF(q) to one of rank k*r over GF(p).
    """
    cols = np.asarray(cols)
    if cols.size == 0:
        return 0
    m, n = cols.shape
    k = field.k
    echelon = _PrimeEchelon(n * k, field.p, capacity=min(m, n) * k)
    echelon.add_columns(_regular_columns(cols, _multiplication_blocks(field)))
    return _rank_over_q(echelon, k)


# -- Hilbert function and regularity -------------------------------------


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert-function values H(0..reg), the degree |X|, and the
    regularity (the first degree where H reaches |X|)."""

    values: tuple
    degree: int
    regularity: int

    def strictly_increasing_then_constant(self) -> bool:
        vals = self.values
        return (
            vals[0] == 1
            and all(a < b for a, b in zip(vals, vals[1:]))
            and vals[-1] == self.degree
        )


def _check_echelon(size: int, distinct: int, k: int, limit: int) -> None:
    """The matrix cap of the rank route: refuse the echelon of `distinct`
    rows over `size` points, a GF(p) matrix of size*k rows by distinct*k
    columns, if its cell count exceeds `limit`."""
    cells = size * k * distinct * k
    if cells > limit:
        raise TooLargeError(f"rank echelon has {cells} cells, cap is {limit}")


def _check_distinct(rank: int, rows: int) -> None:
    # rows are distinct characters of the group X, hence independent
    if rank != rows:
        raise ConsistencyError(f"rank {rank} differs from the {rows} distinct rows")


def hilbert_value(ps: PointSet, d: int, field: Field, cap=None) -> int:
    """Rank of the degree-d evaluation matrix (|X| rows, C(s+d-1, d)
    columns before deduplication, the cells the matrix cap counts here),
    computed on its own: the single-degree oracle for the profile of
    `_hilbert_levels`."""
    if field.q != ps.q:
        raise ValueError(f"field GF({field.q}) does not match point set over GF({ps.q})")
    cells, limit = ps.size * comb(ps.s + d - 1, d), caps.matrix_cap(cap)
    if cells > limit:
        raise TooLargeError(f"evaluation matrix has {cells} cells, cap is {limit}")
    mons = monomial_matrix(ps.s, d)
    E = evaluation_columns(ps, mons, field)
    E = _unique_rows(E)
    rank = gf_rank(E, field)
    if rank > min(E.shape):
        raise ConsistencyError("rank exceeded its dimension bound")
    _check_distinct(rank, E.shape[0])
    return rank


def _hilbert_levels(ps: PointSet, field: Field):
    """H(0), H(1), ... of the point set from one resumable elimination,
    with rows built from the points alone (see the module docstring).

    Degree d's candidates are the rows new at degree d-1 shifted by each
    point column j >= 2, mod q-1, one column at a time.  Those not seen
    at a lower degree are the next frontier; they enter one
    `_PrimeEchelon` as new columns of the transposed regular
    representation.  Before degree d >= 1 is built, the echelon it can
    fill, at most min(|X|, |seen| + (s-1)|frontier|) distinct rows, is
    checked against the matrix cap.  H must rise strictly at every
    degree up to |X| and never pass it; once it reaches |X| it stays
    there, and nothing more is built or checked.
    """
    if field.q != ps.q:
        raise ValueError(f"field GF({field.q}) does not match point set over GF({ps.q})")
    if np.any(ps.points[:, 0] != 0):
        raise ConsistencyError("point set is not in canonical form: first log is not 0")
    limit = caps.matrix_cap()
    size, qm1, k = ps.size, field.q - 1, field.k
    # every degree that passes the cap leaves at most this many distinct rows
    distinct = min(size, max(1, limit // (size * k * k)))
    echelon = _PrimeEchelon(size * k, field.p, capacity=distinct * k)
    blocks = _multiplication_blocks(field)
    # logs are below q-1, so the sum of two never overflows this dtype
    P = ps.points.astype(np.min_scalar_type(2 * (qm1 - 1)))
    frontier = np.zeros((1, size), P.dtype)  # the row of the monomial 1
    seen = set()
    h = 0
    for d in count():
        if h < size:
            if d:
                bound = len(seen) + (ps.s - 1) * len(frontier)
                _check_echelon(size, min(size, bound), k, limit)
            shifts = ((frontier + P[:, j]) % qm1 for j in range(1, ps.s)) if d else [frontier]
            frontier = np.vstack([_unique_rows(E, seen) for E in shifts])
            echelon.add_columns(_regular_columns(frontier, blocks))
            prev, h = h, _rank_over_q(echelon, k)
            _check_distinct(h, len(seen))
            if not prev < h <= size:
                raise ConsistencyError(
                    f"Hilbert function not strictly increasing to {size}: "
                    f"H({d}) = {h} after {prev}"
                )
        yield h


def regularity_rank(g: Multigraph, q: int, points: PointSet | None = None) -> HilbertProfile:
    """Regularity as the first degree where the Hilbert function hits the
    number of points, with the full profile up to that degree.

    Saturation fills the echelon of all |X| rows, so that echelon is
    checked against the matrix cap before the points are enumerated; |X|
    comes from the degree formula when no points are given.  The loop is
    capped at (s-1)(q-2) + 1: the point set sits inside the torus, whose
    regularity attains that value, so running past it is an internal
    inconsistency, not a long computation.
    """
    field = Field(q)
    size = points.size if points is not None else degree_formula(graph_stats(g), q)
    _check_echelon(size, size, field.k, caps.matrix_cap())
    ps = points if points is not None else enumerate_points(g, q)
    if ps.s != g.s or ps.q != q:
        raise ValueError("point set does not match the graph and field")
    target = ps.size
    ceiling = (g.s - 1) * (q - 2) + 1
    values = []
    for d, h in zip(range(ceiling + 1), _hilbert_levels(ps, field)):
        values.append(h)
        if h == target:
            return HilbertProfile(values=tuple(values), degree=target, regularity=d)
    raise CeilingExceededError(
        f"Hilbert function did not reach {target} by degree {ceiling}"
    )
