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
* ``_Echelon`` -- recursive elimination over GF(q), q = p**k, on the
  base-p digits of the entries, read from the field's digit table
  ``Field.digits``, each batch held transposed: each span of columns is
  halved down to panels factored from a block of candidate rows, and
  the pivots of the left half reach the right half through one float
  matmul over GF(p) with delayed reduction, after a forward
  substitution that solves each complete run of pivots by one product
  with the cached inverse of its multipliers.  It is resumable: columns
  arrive in batches, each brought up to date with the pivots already
  found by the same update, from the stored row permutation and
  multipliers.  ``gf_rank`` ranks one matrix with it.

The two routes to H(d) build their rows by different methods, so each
checks the other.  ``hilbert_value`` enumerates the degree-d monomials
and evaluates them by one exact integer product.  The profile of
``_hilbert_levels`` builds rows from the points alone: points are stored
with first coordinate x_1 = 1, so the rows of degree d-1 all reappear at
degree d, and every row new at degree d is a row new at degree d-1
shifted by one point column j >= 2 (x_1 is regular on the quotient, as in
Renteria-Simis-Villarreal, Finite Fields Appl. 2011).  Each new row is
shifted only by the columns j at or after the one that first built it,
and no row is lost: among the lowest-degree monomials in x_2..x_s that
give a row R' new at degree d, take one whose largest variable x_j is
smallest.  It is m x_j, where row(m) is new at degree d-1 (else R'
would be) and m has no variable past x_j; by induction row(m) was first
built by a column at most j, so column j builds R', and no earlier
column does, as its monomial would end before x_j.  It keeps that
frontier of new rows, feeds one echelon, transposed so that rows arrive
as columns, only the rows never seen in a lower degree, and reads H(0),
H(1), ... off its growing rank.  On this point set, a group, distinct
rows are distinct characters and hence independent, so every H(d) is
also checked to equal the number of distinct rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, count
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


def _row_order(rows: int) -> np.ndarray:
    """A fixed, well-mixed permutation of range(rows): the argsort of the
    splitmix64 finalizer of each index (a bijection of 64-bit words)."""
    z = np.arange(rows, dtype=np.uint64) + 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return np.argsort(z ^ (z >> 31))


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce x mod p into [0, p) in place and return it; exact for
    integer-valued floats within 2**bits - p of zero, bits the dtype's
    mantissa: the range ``_room`` allows.  Each product stays exact, and
    rounding to the nearest quotient leaves a remainder in (-p, p) that
    one floor lifts.  Below 256 entries numpy's remainder, one call, is
    cheaper."""
    if x.size < 256:
        return np.remainder(x, p, out=x)
    pinv = 1.0 / p
    t = x * pinv
    np.rint(t, out=t)
    t *= p
    x -= t
    np.multiply(x, pinv, out=t)
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


# pivots per run whose multipliers ``_Echelon._update`` inverts as one block;
# 16, 32 and 64 measure alike, while runs of ``block`` pivots rarely
# complete inside the short spans of the recursion
_RUN = 32

# columns ``_Echelon._eliminate`` factors as one panel at the bottom of its
# recursion (16, 32 and 64 measure alike), and the rows past the panel width
# in the block of candidate rows it factors first
_PANEL = 16
_SPARE = 16


@functools.lru_cache(maxsize=1024)
def _multiplier_table(field: Field, pivot: bytes, dtype) -> np.ndarray:
    """The (k, k, k) table whose entry (u, a, v) is digit v of g**(a+u) /
    pivot, a nonzero given by the bytes of its k digits in `dtype`: digits
    f times table[u] are the digits of f * g**u / pivot, column u of the
    multiplication matrix of f / pivot."""
    k = field.k
    e = field.log_table[int(np.frombuffer(pivot, dtype) @ field.p ** np.arange(k))]
    shifts = np.add.outer(np.arange(k), np.arange(k)) - e
    return field.digits[shifts % (field.q - 1)].astype(dtype)


class _Echelon:
    """Resumable elimination over GF(q), q = p**k, of a matrix with a
    fixed number of rows whose columns arrive in batches; ``rank`` is the
    rank of every column fed so far.

    Each entry is held as its k base-p digits (in the basis 1, g, ...,
    g**(k-1)), gathered from ``Field.digits``, so a matrix row is k work
    rows, and subtracting m times a row multiplies its k digit rows by the
    k x k matrix over GF(p) of multiplication by m: all arithmetic is over
    GF(p), and each pivot spans k work rows.  A batch is held transposed,
    one contiguous row per fed column.

    Recursive LU with row pivoting, as in Dumas-Pernet-Sultan (ISSAC
    2013): a span of columns is split in two, the left half is
    eliminated, its pivots are applied to the right half, and the right
    half is eliminated.  A span of b <= ``_PANEL`` columns is a panel,
    which ``_factor`` eliminates column by column: each column is reduced,
    finds its pivot, the first nonzero at or below the rank, stores the
    multipliers that clear the rest of it, and reaches the later panel
    columns by one rank-k update.  It runs first on a copy of the first
    b + ``_SPARE`` rows at or past the rank and b*k identity rows, the
    digits of g**a in column c.  If every column finds its pivot among
    those candidates, they are the whole panel's pivots, as the first
    nonzero lies there; an identity row's multipliers are g**a times row c
    of the inverse of the panel's U, and the rows past the candidates take
    theirs from one product with them.  Otherwise, or when the candidates
    are over a quarter of the rows left, it runs on the whole panel.  The
    interchanges reach the later columns, the earlier multipliers and the
    row order once, after the panel.  Above the panels all arithmetic on
    the work matrix happens in ``_update``: forward substitution among a
    span of at most ``block`` pivots, then one matrix product for the
    rows below them.  Every pivot adds k products of at most (p-1)**2 to
    an entry, so entries are reduced mod p only when the next update
    could carry them past the float mantissa (delayed modular reduction,
    as in FFLAS-FFPACK).  The dtype is float32 when ``block`` pivots fit
    in its 24 bits, float64 otherwise.

    The substitution is blocked by runs of ``_RUN`` pivots (at most
    ``block``), aligned to multiples of the run length: a complete run
    is solved by one product with the inverse mod p of its unit
    lower-triangular multipliers, a partial run pivot by pivot.  Each
    inverse is built once, by the same substitution on an identity
    block, and cached: once a run's last pivot is found its multipliers
    never change, as later pivots write only columns of ``_lt`` at or
    after their own and an interchange moves only rows at or past the
    rank.  Every reduction goes through ``_reduce``.

    Rows start in the fixed hashed order of ``_row_order``, as rank
    ignores row order: in the given coset order neighbouring points
    often leave a zero on the diagonal, so on parallel(3,5) at q = 5,
    3,671 of 4,096 pivots interchange rows, against 1,012 hashed.

    Resuming needs only the row permutation and the multipliers, held
    row-major by matrix row: the k x k block of ``_lt`` at work rows
    k*i.. and columns k*t.. is the multiplication matrix of row i's
    multiplier at pivot t, for every row i below pivot t.  A new batch is
    permuted and brought up to date by ``_update`` over the pivots
    already found, then eliminated.  ``capacity`` bounds the rank and
    sizes the multiplier buffer, allocated once.
    """

    def __init__(self, rows: int, field: Field, capacity: int | None = None, block: int = 256):
        p, k = field.p, field.k
        self.p, self.k = p, k
        self.block = block
        self.rank = 0
        bits = 24 if block * k * (p - 1) ** 2 + p < (1 << 24) else 53
        self.dtype = np.float32 if bits == 24 else np.float64
        # products an entry reduced below p can absorb and stay exact
        self._room = ((1 << bits) - p) // (p - 1) ** 2
        self._perm = _row_order(rows)
        self._field = field
        # each element's k digits in the work dtype as one item: a gather copies items
        digits = field.digits.astype(self.dtype)
        self._digits = digits.view(np.dtype((np.void, digits.itemsize * k)))[:, 0]
        self._lt = np.empty((rows * k, (rows if capacity is None else capacity) * k), self.dtype)
        self._run = min(_RUN, block)
        self._inverses = {}

    def _substitute(self, X, c):
        """Forward substitution, in place, of the work rows X of the
        pivots from work row c on by their multipliers; returns X, reduced."""
        p, k, L = self.p, self.k, self._lt
        _reduce(X[:k], p)
        for t in range(k, X.shape[0], k):
            Xt = X[t : t + k]
            Xt -= L[c + t : c + t + k, c : c + t] @ X[:t]
            _reduce(Xt, p)
        return X

    def _inverse(self, m):
        """The transposed inverse mod p of the unit lower-triangular
        multipliers of complete run m, built once by substitution."""
        inv = self._inverses.get(m)
        if inv is None:
            n = self._run * self.k
            inv = self._inverses[m] = self._substitute(np.eye(n, dtype=self.dtype), m * n).T
        return inv

    def _update(self, W, a, b, acc):
        """Apply pivots a..b-1 to the transposed batch W, whose columns are
        already permuted and reduced by every earlier pivot, with at most
        `acc` products pending in any entry; returns the new pending count.

        Pivots go in spans of at most ``block``, ending on a multiple of
        the run length.  Within a span, each run's columns take the
        earlier runs' products, then a complete run is solved by one
        product with its cached inverse and a partial one by substitution;
        the columns past the span take one product."""
        p, k, L, run = self.p, self.k, self._lt, self._run
        while a < b:
            e = min(b, a + self.block - (a + self.block) % run)
            c, E = a * k, e * k
            if acc + E - c > self._room:
                _reduce(W[:, c:], p)
                acc = 0
            u = a
            while u < e:
                v = min(e, u - u % run + run)
                U, V = u * k, v * k
                # a contiguous copy: strided in-place reductions are slow
                X = W[:, U:V] - W[:, c:U] @ L[U:V, c:U].T if U > c else W[:, U:V].copy()
                if v - u == run:
                    W[:, U:V] = _reduce(_reduce(X, p) @ self._inverse(u // run), p)
                else:
                    W[:, U:V] = self._substitute(X.T.copy(), U).T
                u = v
            W[:, E:] -= W[:, c:E] @ L[E:, c:E].T
            acc += E - c
            a = e
        return acc

    def _factor(self, P, L, order, acc, search):
        """Eliminate the panel P column by column, in place, and return its
        pivot count: P[c] is column c from the first work row at or past
        the rank, with at most `acc` products pending; L the multipliers
        from that row and pivot on; `order` the rows, permuted as they
        interchange.  Pivots come from the first `search` rows: None if a
        column has none there while rows lie past them."""
        p, k = self.p, self.k
        n, f, pending = P.shape[1] // k, 0, acc
        for c in range(len(P)):
            if f == n:
                break
            fk = f * k
            col = _reduce(P[c, fk:], p)
            if np.count_nonzero(col[:k]):
                i = 0
            else:
                nz = col[: (search - f) * k].nonzero()[0]
                if nz.size == 0:
                    if search < n:
                        return None
                    continue
                i = int(nz[0]) // k
            if i:
                rows = np.array([*range(fk, fk + k), *range(fk + i * k, fk + i * k + k)])
                swapped = rows.reshape(2, k)[::-1].ravel()
                L[rows, :fk] = L[swapped, :fk]
                P[c:, rows] = P[c:, swapped]
                order[[f, f + i]] = order[[f + i, f]]
            F = col.reshape(-1, k)
            table = _multiplier_table(self._field, F[0].tobytes(), self.dtype)
            # the multiplication matrix of each multiplier m: column u is m * g**u
            if k == 1:
                m = _reduce(F[1:, 0] * table[0, 0, 0], p)
                L[fk + 1 :, fk] = m
            else:
                m = _reduce(F[1:] @ table.transpose(1, 2, 0).reshape(k, k * k), p)
                m = L[fk + k :, fk : fk + k] = m.reshape(-1, k)
            f += 1
            if c + 1 == len(P):
                break
            # the later panel columns take this pivot's row, reduced
            if pending + k > self._room:
                _reduce(P[c + 1 :, fk:], p)
                pending = 0
            else:
                _reduce(P[c + 1 :, fk : fk + k], p)
            X, rest = P[c + 1 :, fk : fk + k], P[c + 1 :, fk + k :]
            if k == 1:
                rest -= np.multiply.outer(X[:, 0], m)
            else:
                rest -= X @ m.T
            pending += k
        return f

    def _eliminate(self, W, j0, j1, acc):
        """Find the pivots of columns j0..j1-1 of the transposed batch W,
        already reduced by every earlier pivot with at most `acc` products
        pending: one half of the span after the other, down to panels of
        at most ``_PANEL`` columns."""
        r, n = self.rank, self._perm.size - self.rank
        if n == 0:
            return
        if j1 - j0 > _PANEL:
            mid = (j0 + j1) // 2
            self._eliminate(W, j0, mid, acc)
            self._eliminate(W, mid, j1, self._update(W[mid:j1], r, self.rank, acc))
            return
        p, k, b, r0 = self.p, self.k, j1 - j0, r * self.k
        bk, s, f = b * k, b + _SPARE, None
        P, L = W[j0:j1, r0:], self._lt[r0:, r0 : r0 + bk]
        if n > 4 * s:  # else the candidates' copy and product cost more than they save
            # the candidate rows, then b*k identity rows
            C = np.zeros((b, (s + bk) * k), self.dtype)
            C[:, : s * k] = P[:, : s * k]
            C[:, s * k :].reshape(b, b, k, k)[np.arange(b), np.arange(b)] = np.eye(k)
            Lc = np.empty(((s + bk) * k, bk), self.dtype)
            order = np.arange(s + bk)
            f = self._factor(C, Lc, order, acc, s)
        if f == b:
            A = _reduce(P[:, s * k :], p)
            A = A.T if k == 1 else A.reshape(b, n - s, k).transpose(1, 0, 2).reshape(-1, bk)
            inv = Lc[s * k :].reshape(bk, -1)  # row (c, a): g**a times row c of U's inverse
            if bk > self._room:
                A, inv = A.astype(np.float64), inv.astype(np.float64)
            L[s * k :] = _reduce(A @ inv, p).reshape(-1, bk)
            L[: s * k] = Lc[: s * k]
        else:
            order = np.arange(n)
            f = self._factor(P, L, order, acc, n)
        moved = np.flatnonzero(order != np.arange(order.size))
        if moved.size:
            src = order[moved]
            self._perm[r + moved] = self._perm[r + src]
            moved, src = [(x[:, None] * k + np.arange(k)).ravel() + r0 for x in (moved, src)]
            W[j1:, moved] = W[j1:, src]
            self._lt[moved, :r0] = self._lt[src, :r0]
        self.rank = r + f

    def add_columns(self, cols: np.ndarray) -> int:
        """Feed the columns of a (rows, c) log-representation matrix,
        ZERO = -1 allowed.  Returns the rank of all columns fed so far."""
        if self.rank == self._perm.size or cols.shape[1] == 0:
            return self.rank
        # one row per column: its logs in row order, then each one's k digits
        W = self._digits[np.take(cols.T, self._perm, axis=1)].view(self.dtype)
        self._eliminate(W, 0, W.shape[0], self._update(W, 0, self.rank, 0))
        return self.rank


def gf_rank(cols: np.ndarray, field: Field) -> int:
    """Rank over GF(q) of a log-representation matrix (ZERO entries
    allowed as -1), fed transposed so that its rows arrive as columns."""
    cols = np.asarray(cols)
    if cols.size == 0:
        return 0
    m, n = cols.shape
    return _Echelon(n, field, capacity=min(m, n)).add_columns(cols.T)


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
    rows over `size` points, whose multipliers fill size*k by distinct*k
    cells over GF(p), if that count exceeds `limit`."""
    cells = size * k * distinct * k
    if cells > limit:
        raise TooLargeError(f"rank echelon has {caps.count_text(cells)} cells, cap is {limit}")


def _check_distinct(rank: int, rows: int) -> None:
    # rows are distinct characters of the group X, hence independent
    if rank != rows:
        raise ConsistencyError(f"rank {rank} differs from the {rows} distinct rows")


def hilbert_value(ps: PointSet, d: int, field: Field) -> int:
    """Rank of the degree-d evaluation matrix (|X| rows, C(s+d-1, d)
    columns before deduplication, the cells the matrix cap counts here),
    computed on its own: the single-degree oracle for the profile of
    `_hilbert_levels`."""
    if field.q != ps.q:
        raise ValueError(f"field GF({field.q}) does not match point set over GF({ps.q})")
    cells, limit = ps.size * comb(ps.s + d - 1, d), caps.matrix_cap()
    if cells > limit:
        raise TooLargeError(f"evaluation matrix has {caps.count_text(cells)} cells, "
                            f"cap is {limit}")
    mons = monomial_matrix(ps.s, d)
    E = evaluation_columns(ps, mons, field)
    E = _unique_rows(E)
    rank = gf_rank(E, field)
    if rank > min(E.shape):
        raise ConsistencyError("rank exceeded its dimension bound")
    _check_distinct(rank, E.shape[0])
    return rank


def _shift(rows: np.ndarray, col: np.ndarray, qm1: int) -> np.ndarray:
    """(rows + col) mod qm1 for unsigned logs below qm1 whose sum the dtype
    holds: below qm1, the sum minus qm1 wraps around above the sum."""
    s = rows + col
    return np.minimum(s, s - qm1, out=s)


def _hilbert_levels(ps: PointSet, field: Field):
    """H(0), H(1), ... of the point set from one resumable elimination,
    with rows built from the points alone (see the module docstring).

    Degree d's candidates are the rows new at degree d-1 shifted by each
    point column j >= 2, mod q-1, one column at a time, each row only by
    the columns at or after the one that first built it.  Those not seen
    at a lower degree are the next frontier, stacked by the column that
    built them; they enter one `_Echelon` as new columns.  Before degree
    d >= 1 is built, the echelon it can fill, at most
    min(|X|, |seen| + (s-1)|frontier|) distinct rows, is checked against
    the matrix cap.  H must rise strictly at every degree up to |X| and
    never pass it; once it reaches |X| it stays there, and nothing more
    is built or checked.
    """
    if field.q != ps.q:
        raise ValueError(f"field GF({field.q}) does not match point set over GF({ps.q})")
    if np.any(ps.points[:, 0] != 0):
        raise ConsistencyError("point set is not in canonical form: first log is not 0")
    limit = caps.matrix_cap()
    size, qm1, k = ps.size, field.q - 1, field.k
    # every degree that passes the cap leaves at most this many distinct rows
    distinct = min(size, max(1, limit // (size * k * k)))
    echelon = _Echelon(size, field, capacity=distinct)
    # logs are below q-1, so the sum of two never overflows this dtype
    P = ps.points.astype(np.min_scalar_type(2 * (qm1 - 1)))
    frontier = np.zeros((1, size), P.dtype)  # the row of the monomial 1
    # frontier[:ends[j]] are the rows first built by a point column <= j
    ends = [1] * ps.s
    seen = set()
    h = 0
    for d in count():
        if h < size:
            if d:
                bound = len(seen) + (ps.s - 1) * len(frontier)
                _check_echelon(size, min(size, bound), k, limit)
                parts = [_unique_rows(_shift(frontier[: ends[j]], P[:, j], qm1), seen)
                         for j in range(1, ps.s)]
                ends = [0, *accumulate(map(len, parts))]
                frontier = np.vstack(parts)
            else:
                frontier = _unique_rows(frontier, seen)
            prev, h = h, echelon.add_columns(frontier.T)
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
    ceiling = (g.s - 1) * (q - 2) + 1
    values = []
    for d, h in zip(range(ceiling + 1), _hilbert_levels(ps, field)):
        values.append(h)
        if h == size:
            return HilbertProfile(values=tuple(values), degree=size, regularity=d)
    raise CeilingExceededError(
        f"Hilbert function did not reach {size} by degree {ceiling}"
    )
