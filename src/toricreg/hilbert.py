"""Hilbert function via ranks of monomial-evaluation matrices over GF(q).

The value at degree d is the rank of the matrix whose rows are the
points and whose columns are the degree-d monomials evaluated at them;
the regularity is the first d where the rank reaches the number of
points.  In the log representation the matrix build is a single integer
matrix product: entry(point, monomial) = g**(point . exponents).

Two elimination routines compute the rank:

* ``rank_reference`` -- textbook in-place elimination in the Zech
  representation.  The simple spec of the method; quadratic-times-cols
  in pure Python, so only usable for small matrices.  The tests
  cross-check the production path against it.
* ``_rank_prime_blocked`` -- blocked elimination mod a prime p with
  float matmul updates (entries stay below block*(p-1)**2 + p, which is
  exact in float32 for small p and in float64 in general).  This is
  what makes the large bipartite sweeps run in seconds instead of hours.

``gf_rank`` serves every q = p**k with the blocked kernel through the
regular representation: each entry becomes the k x k matrix over GF(p)
of multiplication by it, and the GF(p) rank of the result is k times
the GF(q) rank.

Duplicate columns never change a rank, so columns are deduplicated by
content before elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import caps
from .errors import CeilingExceededError, ConsistencyError, TooLargeError
from .field import Field, ZERO
from .graph import Multigraph
from .points import PointSet, enumerate_points


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
    column per point.  Never contains ZERO: points lie in the torus."""
    qm1 = field.q - 1
    bound = int(np.sum(mons[0])) * max(qm1 - 1, 1) if len(mons) else 0
    ftype = np.float32 if bound < (1 << 24) else np.float64
    A = np.asarray(mons, dtype=ftype)
    P = ps.points.astype(ftype)
    # dot products are bounded by d * (q-2), exact in the chosen dtype,
    # so the float remainder is exact as well
    E = A @ P.T
    E %= qm1
    if qm1 < 128:
        return E.astype(np.int8)
    if qm1 < 1 << 15:
        return E.astype(np.int16)
    return E.astype(np.int64)


def _unique_rows(E: np.ndarray) -> np.ndarray:
    """First occurrence of each distinct row, in input order."""
    E = np.ascontiguousarray(E)
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


def _rank_prime_blocked(values: np.ndarray, p: int, block: int = 256) -> int:
    """Rank over GF(p) of an integer matrix, blocked right-looking
    elimination with deferred trailing updates done by BLAS matmuls.

    Multipliers are stored in the eliminated positions.  Within a panel
    only the pivot row and the multiplier column are reduced mod p, so
    an entry accumulates at most block*(p-1)**2 on top of p; the dtype
    is float32 when that bound stays exact, float64 otherwise.  At each
    block boundary the pivot rows' trailing parts are fixed by forward
    substitution and the remaining rows by one matrix product.
    """
    m, n = values.shape
    if m == 0 or n == 0:
        return 0
    dtype = np.float32 if block * (p - 1) ** 2 + p < (1 << 24) else np.float64
    W = (values % p).astype(dtype)
    r = 0
    c0 = 0
    while r < m and c0 < n:
        b = min(block, n - c0)
        piv_cols = []
        pr = r
        for j in range(c0, c0 + b):
            col = W[pr:, j] % p
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            i = pr + int(nz[0])
            if i != pr:
                W[[pr, i], :] = W[[i, pr], :]
            W[pr, j : c0 + b] %= p
            inv = pow(int(W[pr, j]), -1, p)
            if pr + 1 < m:
                lcol = (W[pr + 1 :, j] % p) * inv % p
                tail = slice(j + 1, c0 + b)
                W[pr + 1 :, tail] -= np.outer(lcol, W[pr, tail])
                W[pr + 1 :, j] = lcol
            piv_cols.append(j)
            pr += 1
            if pr == m:
                break
        k = pr - r
        if pr == m:
            return m
        if k and c0 + b < n:
            T = slice(c0 + b, n)
            L = W[r:pr, piv_cols]
            for t in range(1, k):
                W[r + t, T] -= L[t, :t] @ W[r : r + t, T]
                W[r + t, T] %= p
            Lb = W[pr:, piv_cols]
            W[pr:, T] -= Lb @ W[r:pr, T]
            W[pr:, T] %= p
        r = pr
        c0 += b
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
    blocks = _multiplication_blocks(field)[cols]
    rank_p = _rank_prime_blocked(
        blocks.transpose(0, 2, 1, 3).reshape(m * k, n * k), field.p
    )
    if rank_p % k:
        raise ConsistencyError(
            f"GF({field.p}) rank {rank_p} of the regular representation "
            f"is not a multiple of {k}"
        )
    return rank_p // k


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


def evaluation_cells(size: int, s: int, d: int) -> int:
    """Cells of the degree-d evaluation matrix over `size` points and s
    variables before deduplication: size * C(s+d-1, d).  The matrix cap
    is compared against this count."""
    return size * comb(s + d - 1, d)


def hilbert_value(ps: PointSet, d: int, field: Field, cap=None) -> int:
    """Rank of the degree-d evaluation matrix (|X| rows, C(s+d-1, d)
    columns before deduplication)."""
    if field.q != ps.q:
        raise ValueError(f"field GF({field.q}) does not match point set over GF({ps.q})")
    cells = evaluation_cells(ps.size, ps.s, d)
    limit = caps.matrix_cap(cap)
    if cells > limit:
        raise TooLargeError(f"evaluation matrix has {cells} cells, cap is {limit}")
    mons = monomial_matrix(ps.s, d)
    E = evaluation_columns(ps, mons, field)
    E = _unique_rows(E)
    rank = gf_rank(E, field)
    if rank > min(E.shape):
        raise ConsistencyError("rank exceeded its dimension bound")
    return rank


def regularity_rank(
    g: Multigraph,
    q: int,
    points: PointSet | None = None,
    matrix_cap=None,
) -> HilbertProfile:
    """Regularity as the first degree where the Hilbert function hits the
    number of points, with the full profile up to that degree.

    The loop is capped at (s-1)(q-2) + 1: the point set sits inside the
    torus, whose regularity attains that value, so running past it is an
    internal inconsistency, not a long computation.
    """
    field = Field(q)
    ps = points if points is not None else enumerate_points(g, q)
    if ps.s != g.s or ps.q != q:
        raise ValueError("point set does not match the graph and field")
    target = ps.size
    ceiling = (g.s - 1) * (q - 2) + 1
    values = []
    for d in range(ceiling + 1):
        h = hilbert_value(ps, d, field, cap=matrix_cap)
        if values and h <= values[-1]:
            raise ConsistencyError(
                f"Hilbert function not strictly increasing at degree {d}"
            )
        if h > target:
            raise ConsistencyError(
                f"Hilbert value {h} exceeds the point count {target}"
            )
        values.append(h)
        if h == target:
            return HilbertProfile(values=tuple(values), degree=target, regularity=d)
    raise CeilingExceededError(
        f"Hilbert function did not reach {target} by degree {ceiling}"
    )
