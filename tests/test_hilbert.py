import random
from math import comb

import numpy as np
import pytest

from toricreg.errors import ConsistencyError, TooLargeError
from toricreg.field import Field, ZERO
from toricreg.graph import cycle_graph, parallel_composition, path_graph, simplify
from toricreg.hilbert import (
    _PANEL,
    _Echelon,
    _hilbert_levels,
    _multiplier_table,
    _reduce,
    _row_order,
    _shift,
    evaluation_columns,
    gf_rank,
    hilbert_value,
    monomial_matrix,
    monomials_of_degree,
    rank_reference,
    regularity_rank,
)
from toricreg.ideal import regularity_sieve
from toricreg.points import PointSet, enumerate_points

from test_field import PRIME_POWERS_64
from test_graph import _random_multigraph


def test_monomials_order_and_count():
    assert monomials_of_degree(2, 0) == [(0, 0)]
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(monomials_of_degree(3, 2)) == 6
    for s, d in ((3, 4), (5, 3), (1, 7)):
        mons = monomials_of_degree(s, d)
        assert len(mons) == comb(s + d - 1, d)
        assert len(set(mons)) == len(mons)
        assert all(sum(m) == d for m in mons)
        assert mons == sorted(mons, reverse=True)


def test_hilbert_values_path2():
    g = path_graph(2)
    field = Field(3)
    ps = enumerate_points(g, 3)
    assert hilbert_value(ps, 0, field) == 1
    assert hilbert_value(ps, 1, field) == 2


def test_hilbert_values_triangle():
    g = cycle_graph(3)
    field = Field(3)
    ps = enumerate_points(g, 3)
    assert [hilbert_value(ps, d, field) for d in (0, 1, 2)] == [1, 3, 4]


def test_profiles():
    prof = regularity_rank(cycle_graph(4), 3)
    assert prof.values == (1, 4) and prof.regularity == 1
    prof = regularity_rank(path_graph(2), 3)
    assert prof.values == (1, 2) and prof.regularity == 1
    prof = regularity_rank(cycle_graph(3), 3)
    assert prof.values == (1, 3, 4) and prof.regularity == 2
    prof = regularity_rank(parallel_composition((1, 1)), 3)
    assert prof.values == (1,) and prof.regularity == 0
    assert prof.strictly_increasing_then_constant()


def _logs(mat, field):
    """Log representation of a matrix of residues mod a prime field's p."""
    return np.array(field.log_table)[np.asarray(mat)]


def _rank_p(mat, field, block=256):
    """Rank of a matrix of residues over the prime field, from one echelon."""
    logs = _logs(mat, field)
    return _Echelon(logs.shape[0], field, block=block).add_columns(logs)


def _random_log_matrix(rng, q, m, n, density=0.85):
    return [
        [
            rng.randrange(q - 1) if rng.random() < density else ZERO
            for _ in range(n)
        ]
        for _ in range(m)
    ]


def _scaled_combination_rows(rng, field, basis, count):
    """Rows that are single scaled copies of basis rows: rank stays at
    most the basis size without needing field-sum arithmetic."""
    q = field.q
    out = []
    for _ in range(count):
        row = list(rng.choice(basis))
        c = rng.randrange(q - 1)
        out.append([ZERO if x == ZERO else (x + c) % (q - 1) for x in row])
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 49])
def test_rank_paths_agree_with_reference(q):
    field = Field(q)
    rng = random.Random(q * 17)
    for trial in range(8):
        m = rng.randrange(1, 14)
        n = rng.randrange(1, 14)
        mat = _random_log_matrix(rng, q, m, n)
        if trial % 3 == 0 and m >= 4:
            basis = mat[: max(1, m // 3)]
            mat = basis + _scaled_combination_rows(
                rng, field, basis, m - len(basis)
            )
        expected = rank_reference(mat, field)
        arr = np.array(mat, dtype=np.int64)
        assert gf_rank(arr, field) == expected
        # the echelon itself, fed the matrix untransposed
        assert _Echelon(m, field).add_columns(arr) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 13, 251])
def test_blocked_rank_crosses_block_boundaries(p):
    rng = np.random.default_rng(p)
    # rank-deficient: product of thin matrices, rank <= 7
    a = rng.integers(0, p, size=(60, 7))
    b = rng.integers(0, p, size=(7, 90))
    mat = (a @ b) % p
    field = Field(p)
    expected = rank_reference(_logs(mat, field).tolist(), field)
    assert _rank_p(mat, field, block=16) == expected
    assert _rank_p(mat, field, block=4) == expected
    assert _rank_p(mat, field) == expected


def _product(field, a, b):
    """A.B over GF(q) in the log representation, summed with Field.add."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ZERO
            for x, brow in zip(row, b):
                acc = field.add(acc, field.mul(x, brow[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_extension_rank_crosses_block_boundaries(q):
    field = Field(q)
    rng = random.Random(q)
    # rank <= 6 with dependencies that are field sums; a block of two
    # pivots makes the echelon cross block boundaries
    a = _random_log_matrix(rng, q, 30, 6)
    b = _random_log_matrix(rng, q, 6, 140)
    mat = _product(field, a, b)
    expected = rank_reference(mat, field)
    assert expected > 2
    arr = np.array(mat, dtype=np.int64)
    assert gf_rank(arr, field) == expected
    assert _Echelon(140, field, block=2).add_columns(arr.T) == expected


@pytest.mark.parametrize("q, block, rank", [(121, 4, 50), (251 * 251, 1, 143)])
def test_extension_rank_with_large_p(q, block, rank):
    """Extension fields with p above 7, ranked by `gf_rank` and by an
    echelon of `block` pivots fed in batches cut at random.  A digit
    product at p = 251 is up to 250**2, past 16 bits.  At q = 251**2 a
    block of one pivot is float32 with room for 268 products, 134
    pivots of k = 2, so the delayed reduction runs.  The rows are scaled
    copies of a basis, which the reference eliminates fast."""
    field = Field(q)
    rng = random.Random(q)
    m = n = rank + 7
    basis = _random_log_matrix(rng, q, rank, n)
    mat = basis + _scaled_combination_rows(rng, field, basis, m - rank)
    rng.shuffle(mat)
    expected = rank_reference(mat, field)
    arr = np.array(mat, dtype=np.int64)
    assert gf_rank(arr, field) == expected
    echelon = _Echelon(n, field, block=block)  # rows arrive as columns
    if field.p == 251:
        assert echelon.dtype == np.float32 and echelon._room == 268
        assert expected * field.k > echelon._room
    cuts = sorted(rng.sample(range(1, m), 5))
    for lo, hi in zip([0] + cuts, cuts + [m]):
        assert echelon.add_columns(arr[lo:hi].T) == gf_rank(arr[:hi], field), (lo, hi)
    assert echelon.rank == expected


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_multiplication_blocks_hold_digits_below_p(q):
    """`_Echelon.add_columns` casts the looked-up digits without reducing
    them mod p, so every digit must already lie in [0, p); the last row
    of the digit table, where ZERO = -1 lands, is zero, and every other
    row packs to the element it stands for.  The multiplier table of a
    pivot, built from those digits, holds the digits of g**(a+u) / pivot
    at (u, a), g = x the root of the field's polynomial."""
    field = Field(q)
    p, k = field.p, field.k
    digits = field.digits
    assert digits.shape == (q, k)
    assert digits.min() >= 0 and digits.max() < p
    assert not digits[-1].any()
    assert digits[:-1].any(axis=1).all()
    place = p ** np.arange(k)
    assert np.array_equal(digits[:-1].astype(np.int64) @ place, field.exp_table)
    for pivot in range(1, q):
        key = digits[field.log_table[pivot]].astype(np.float64).tobytes()
        table = _multiplier_table(field, key, np.float64)
        assert table.shape == (k, k, k)
        assert table.min() >= 0 and table.max() < p
        inverse = field.inv(field.from_int(pivot))
        for u in range(k):
            for a in range(k):
                expected = field.to_int(field.mul((a + u) % (q - 1), inverse))
                assert int(table[u, a] @ place) == expected, (pivot, u, a)


def test_blocked_rank_full_rank_square():
    p = 5
    rng = np.random.default_rng(42)
    mat = rng.integers(0, p, size=(50, 50))
    field = Field(p)
    expected = rank_reference(_logs(mat, field).tolist(), field)
    assert _rank_p(mat, field, block=8) == expected


def _low_rank(rng, p, m, n, r, zero_cols=0):
    """An m x n matrix over GF(p) of rank <= r, some columns zeroed."""
    mat = (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))) % p
    mat[:, rng.choice(n, size=zero_cols, replace=False)] = 0
    return mat


@pytest.mark.parametrize(
    "p,block", [(2, 256), (3, 256), (5, 256), (7, 256), (5, 16), (2039, 4), (4093, 1)]
)
def test_echelon_batches_match_one_shot(p, block):
    """Feeding columns in random batches gives, after every batch, the
    rank of the columns fed so far.  Cuts fall inside column blocks; the
    matrices have zero columns, deficient rank and more columns than
    rows.  At p = 2039 with block 4 an entry has room for four products
    and at p = 4093 with block 1 for one, so the delayed reduction runs
    between most updates."""
    rng = np.random.default_rng(p * 1000 + block)
    field = Field(p)
    cases = [
        _low_rank(rng, p, 30, 300, 20, zero_cols=25),
        _low_rank(rng, p, 24, 340, 24, zero_cols=10),
        _low_rank(rng, p, 40, 25, 12, zero_cols=3),
        np.zeros((12, 9), dtype=np.int64),
    ]
    for mat in cases:
        m, n = mat.shape
        logs = _logs(mat, field)
        assert _rank_p(mat, field, block) == rank_reference(logs.T.tolist(), field)
        cuts = sorted(rng.choice(np.arange(1, n), size=min(6, n - 1), replace=False))
        echelon = _Echelon(m, field, block=block)
        for lo, hi in zip([0] + cuts, cuts + [n]):
            got = echelon.add_columns(logs[:, lo:hi])
            assert got == _rank_p(mat[:, :hi], field, block), (lo, hi)
        assert echelon.rank == _rank_p(mat, field, block)


@pytest.mark.parametrize(
    "q, block, rank", [(2, 256, 100), (5, 256, 100), (2039, 2, 13), (4, 8, 30), (9, 8, 30)]
)
def test_run_inverses_match_the_reference(q, block, rank):
    """Complete runs of pivots are applied by one product with their
    cached inverse.  Batches are cut inside runs, so each batch's replay
    of the pivots already found mixes complete runs with partial ones,
    and the rank spans at least three complete runs.  At p = 2039 with
    block 2, a run of two pivots in float32 has room for four products:
    the rows of a run take two from the span before it, and multiplying
    them by the inverse unreduced would pass 2**24."""
    field = Field(q)
    m, n = rank + 10, rank + 40
    if field.k == 1:
        logs = _logs(_low_rank(np.random.default_rng(q), q, m, n, rank), field)
    else:
        rng = random.Random(q)
        a = _random_log_matrix(rng, q, m, rank)
        logs = np.array(_product(field, a, _random_log_matrix(rng, q, rank, n)))
    echelon = _Echelon(m, field, block=block)
    run = echelon._run
    assert rank >= 3 * run
    if q == 2039:
        assert run == 2 and echelon.dtype == np.float32 and echelon._room == 4
    lo = 0
    for hi in (run + 1, 2 * run + 1, 3 * run + 1, n):
        got = echelon.add_columns(logs[:, lo:hi])
        assert got == rank_reference(logs[:, :hi].T.tolist(), field), hi
        if hi < n:
            assert got % run, hi  # the cut falls inside a run
        lo = hi
    assert echelon.rank == rank


def test_echelon_reduces_before_a_panel_overflows():
    """At p = 2897 with block 2 an entry reduced below p has room for
    two products of (p-1)**2 in float32.  The second batch takes two
    such products from the replay of the first batch's pivots, and
    applying its own first pivot to its second column would add a third
    to the entry that decides the last pivot: unreduced, that entry is
    odd and above 2**24, so it would round.  The rows are fed in the
    inverse of the echelon's row order, so that they meet the
    elimination in the order written here."""
    p = 2897
    mat = np.array(
        [
            [1, 0, p - 1, p - 1],
            [0, 1, p - 1, p - 1],
            [p - 1, p - 1, 3, 1],
            [p - 1, p - 1, 1, 3],
        ]
    )
    field = Field(p)
    logs = _logs(mat, field)
    echelon = _Echelon(4, field, block=2)
    assert echelon.dtype == np.float32
    fed = logs[np.argsort(echelon._perm)]
    echelon.add_columns(fed[:, :2])
    assert echelon.add_columns(fed[:, 2:]) == rank_reference(logs.T.tolist(), field) == 3


@pytest.mark.parametrize(
    "q, block",
    [(2, 256), (5, 256), (2039, 256), (2039, 4), (4093, 1), (251, 4), (4, 256), (8, 256), (9, 256),
     (25, 256)],
)
def test_panel_batches_match_the_reference(q, block):
    """The bottom of the recursion eliminates up to ``_PANEL`` columns as
    one panel.  Batches of 1, _PANEL - 1, _PANEL, _PANEL + 1 and
    3 _PANEL + 5 columns cut the columns inside panels and the pivots
    inside runs; within a batch, columns are new, zero, or scaled copies
    of an earlier column of the same batch, so panels are rank-deficient
    and a batch wider than a panel meets row swaps past its first panel.
    A float32 entry has room for 268 products at p = 251 with block 4,
    4 at p = 2039 with block 4 and 1 at p = 4093 with block 1, so a
    panel reduces between its rank-1 updates."""
    field = Field(q)
    rng = random.Random(q * 1000 + block)
    m = 48
    widths = [1, _PANEL - 1, _PANEL, _PANEL + 1, 3 * _PANEL + 5]
    cols = []
    for w in widths:
        start = len(cols)
        for _ in range(w):
            u = rng.random()
            if u < 0.4 or len(cols) == start:
                cols += _random_log_matrix(rng, q, 1, m)
            elif u < 0.85:
                cols += _scaled_combination_rows(rng, field, cols[start:], 1)
            else:
                cols.append([ZERO] * m)
    logs = np.array(cols).T
    echelon = _Echelon(m, field, block=block)
    ranks, hi = [], 0
    for w in widths:
        lo, hi = hi, hi + w
        ranks.append(echelon.add_columns(logs[:, lo:hi]))
        assert ranks[-1] == rank_reference(logs[:, :hi].tolist(), field), (lo, hi)
    assert echelon._run == 1 or any(r % echelon._run for r in ranks[:-1])
    assert all(a < b for a, b in zip(ranks, ranks[1:])) and echelon.rank < m


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2039, 2897, 4093])
@pytest.mark.parametrize("dtype,bits", [(np.float32, 24), (np.float64, 53)])
def test_reduce_is_exact_over_the_delayed_reduction_range(p, dtype, bits):
    """An entry reduced below p absorbs at most ``_room`` products of
    (p-1)**2, so it lies within 2**bits - p of zero: the residue must be
    exact there, at both ends, on negatives and on multiples of p."""
    lim = (1 << bits) - p
    rng = np.random.default_rng(p * bits)
    k = lim // p
    xi = np.concatenate(
        [
            np.arange(-lim, -lim + 1000),
            np.arange(lim - 999, lim + 1),
            np.arange(-1000, 1000),
            p * np.arange(-k, -k + 500),
            p * np.arange(k - 499, k + 1),
            p * np.arange(-250, 250),
            rng.integers(-lim, lim + 1, size=20000),
        ]
    )
    x = xi.astype(dtype)
    assert np.array_equal(x.astype(np.int64), xi)
    for chunk in (x, x[:100]):  # the short one takes numpy's remainder
        got = _reduce(chunk.copy(), p)
        assert got.dtype == dtype
        assert np.array_equal(got.astype(np.int64), xi[: chunk.size] % p)


def test_zero_diagonal_ranks_like_the_reference():
    """In their given order the rows put a zero on every diagonal
    position, so every pivot of an echelon in that order needs a row
    swap; the rank must not depend on the order the echelon uses."""
    rng = np.random.default_rng(13)
    for p in (2, 3, 5, 2039):
        field = Field(p)
        for m, n, r in ((24, 24, 24), (30, 40, 9), (40, 18, 18)):
            mat = _low_rank(rng, p, m, n, r)
            mat[np.arange(min(m, n)), np.arange(min(m, n))] = 0
            logs = _logs(mat, field)
            expected = rank_reference(logs.T.tolist(), field)
            assert _rank_p(mat, field) == expected
            echelon = _Echelon(m, field, block=4)
            for lo in range(0, n, 5):
                echelon.add_columns(logs[:, lo : lo + 5])
            assert echelon.rank == expected, (p, m, n)


def test_row_order_is_a_fixed_permutation():
    for rows in (0, 1, 2, 7, 4096):
        order = _row_order(rows)
        assert np.array_equal(np.sort(order), np.arange(rows))
        assert np.array_equal(_row_order(rows), order)
        assert np.array_equal(_Echelon(rows, Field(5))._perm, order)
    mask = (1 << 64) - 1

    def splitmix64(x):
        z = (x + 0x9E3779B97F4A7C15) & mask
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    # the first output of SplitMix64 seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert _row_order(64).tolist() == sorted(range(64), key=splitmix64)
    # well mixed: neighbouring indices do not stay neighbours
    order = _row_order(4096)
    assert np.count_nonzero(np.abs(np.diff(order)) == 1) < 20


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 128, 131])
def test_shift_is_the_sum_mod_q_minus_1(q):
    qm1 = q - 1
    dtype = np.min_scalar_type(2 * (qm1 - 1))
    a, b = np.meshgrid(np.arange(qm1), np.arange(qm1))
    got = _shift(a.astype(dtype), b.astype(dtype), qm1)
    assert got.dtype == dtype
    assert np.array_equal(got, (a + b) % qm1)


def test_evaluation_columns_shape_and_range():
    g = cycle_graph(4)
    field = Field(4)
    ps = enumerate_points(g, 4)
    mons = monomial_matrix(g.s, 2)
    E = evaluation_columns(ps, mons, field)
    assert E.shape == (mons.shape[0], ps.size)
    assert E.min() >= 0 and E.max() < field.q - 1


def test_matrix_cap(monkeypatch):
    g = cycle_graph(6)
    field = Field(5)
    ps = enumerate_points(g, 5)
    monkeypatch.setenv("TORICREG_MAX_STATES", "100")
    with pytest.raises(TooLargeError):
        hilbert_value(ps, 6, field)


@pytest.mark.parametrize("g, q", [(cycle_graph(8), 3), (cycle_graph(6), 4)])
def test_rank_cap_counts_the_saturated_echelon(monkeypatch, g, q):
    import toricreg.hilbert as hilbert

    size, k = enumerate_points(g, q).size, Field(q).k
    cells = (size * k) ** 2
    assert size * g.s < cells  # the state cap never decides
    monkeypatch.setenv("TORICREG_MAX_STATES", str(cells))
    assert regularity_rank(g, q).degree == size

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(hilbert, "enumerate_points", forbidden)
    monkeypatch.setattr(hilbert, "_Echelon", forbidden)
    monkeypatch.setenv("TORICREG_MAX_STATES", str(cells - 1))
    with pytest.raises(TooLargeError, match=f"rank echelon has {cells} cells"):
        regularity_rank(g, q)


def test_profile_invariants_are_checked_in_the_levels(monkeypatch):
    import toricreg.hilbert as hilbert

    ps = enumerate_points(cycle_graph(6), 5)
    # no rows ever kept: H(0) = 0 does not rise above H(-1) = 0
    monkeypatch.setattr(hilbert, "_unique_rows", lambda E, seen=None: E[:0])
    with pytest.raises(ConsistencyError, match=r"H\(0\) = 0 after 0"):
        next(_hilbert_levels(ps, Field(5)))


def test_regularity_invariant_under_simplify():
    for ks in ((1, 1), (1, 1, 2), (1, 1, 3)):
        g = parallel_composition(ks)
        gs = simplify(g)
        assert regularity_rank(g, 3).regularity == regularity_rank(gs, 3).regularity
        assert regularity_sieve(g, 3) == regularity_sieve(gs, 3)


def test_rank_against_sieve_spot():
    for ks, q in (((2, 3), 4), ((1, 2, 3), 3), ((2, 2, 2), 4)):
        g = parallel_composition(ks)
        assert regularity_rank(g, q).regularity == regularity_sieve(g, q)


def _small_instances():
    """(graph, q) pairs: fixed ones covering q = 2, 3, 4, 5, 7, 8, 9, 131
    and s = 1, then seeded random multigraphs small enough to rank at
    every degree.  At q = 131 a sum of two logs needs more than 8 bits."""
    fixed = [
        (path_graph(1), 3),
        (path_graph(1), 2),
        (path_graph(2), 131),
        (parallel_composition((1, 2, 3)), 2),
        (parallel_composition((1, 2, 3)), 3),
        (parallel_composition((2, 3)), 4),
        (parallel_composition((2, 2, 2)), 4),
        (parallel_composition((1, 3)), 5),
        (cycle_graph(5), 5),
        (cycle_graph(4), 7),
        (parallel_composition((1, 2)), 8),
        (cycle_graph(3), 9),
    ]
    yield from fixed
    rng = random.Random(20261018)
    for _ in range(40):
        g = _random_multigraph(rng)
        qs = [q for q in (2, 3, 4, 5, 7, 8, 9) if (q - 1) ** g.n <= 2000]
        yield g, rng.choice(qs)


def test_profile_matches_single_degree_oracle():
    for g, q in _small_instances():
        ps = enumerate_points(g, q)
        prof = regularity_rank(g, q, points=ps)
        field = Field(q)
        oracle = [hilbert_value(ps, d, field) for d in range(len(prof.values))]
        assert list(prof.values) == oracle, (g.edges, q)
        assert prof.strictly_increasing_then_constant()


class _CountingEchelon:
    """Stands in for `_Echelon` in `_hilbert_levels`: distinct rows on a
    point set are independent, so the rank is the count of rows fed.
    Records each degree's rows as a set."""

    def __init__(self, *args, **kwargs):
        self.rank, self.fed = 0, []

    def add_columns(self, cols):
        self.fed.append({row.tobytes() for row in cols.T.astype(np.uint16)})
        self.rank += cols.shape[1]
        return self.rank


def _fed_rows(monkeypatch, ps):
    """Each degree's new rows as `_hilbert_levels` builds them, up to
    saturation, with no elimination."""
    import toricreg.hilbert as hilbert

    echelon = _CountingEchelon()
    monkeypatch.setattr(hilbert, "_Echelon", lambda *args, **kwargs: echelon)
    for h in _hilbert_levels(ps, Field(ps.q)):
        if h == ps.size:
            return echelon.fed


def _unpruned_rows(ps):
    """Each degree's new rows, built by shifting every new row of the
    degree before by every point column j >= 2."""
    points = ps.points.astype(np.uint16)
    frontier = np.zeros((1, ps.size), np.uint16)
    seen = {frontier[0].tobytes()}
    out = [set(seen)]
    while len(seen) < ps.size:
        new = {}
        for j in range(1, ps.s):
            for row in (frontier + points[:, j]) % (ps.q - 1):
                key = row.tobytes()
                if key not in seen:
                    new.setdefault(key, row)
        seen.update(new)
        out.append(set(new))
        frontier = np.array(list(new.values()))
    return out


def test_frontier_rows_match_an_unpruned_build(monkeypatch):
    """`_hilbert_levels` shifts a new row only by the point columns at or
    after the one that first built it.  Every degree must still feed the
    echelon exactly the new rows of the build that shifts every row by
    every column."""
    rng = random.Random(20261020)
    cases = [(parallel_composition((3, 5)), 4), (parallel_composition((3, 5)), 5)]
    for q in (2, 3, 4, 5, 7, 8, 9):
        drawn = 0
        while drawn < 8:
            g = _random_multigraph(rng)
            if g.s > 1 and (q - 1) ** g.n <= 4000:
                cases.append((g, q))
                drawn += 1
    for g, q in cases:
        ps = enumerate_points(g, q)
        assert _fed_rows(monkeypatch, ps) == _unpruned_rows(ps), (g.edges, q)


def test_frontier_build_passes_few_candidate_rows(monkeypatch):
    """A work guard without timing: on parallel(3,5) at q = 5 (4,096
    points) the pruned build passes 5,944 candidate rows to
    `_unique_rows`, the row of the monomial 1 included; shifting every
    new row by every column passes 23,920."""
    import toricreg.hilbert as hilbert

    passed = []
    unique = hilbert._unique_rows

    def counting(E, seen=None):
        passed.append(len(E))
        return unique(E, seen)

    monkeypatch.setattr(hilbert, "_unique_rows", counting)
    fed = _fed_rows(monkeypatch, enumerate_points(parallel_composition((3, 5)), 5))
    assert sum(map(len, fed)) == 4096
    assert sum(passed) <= 6000


def test_levels_need_canonical_points():
    g = cycle_graph(3)
    ps = enumerate_points(g, 5)
    shifted = PointSet(5, ps.s, (ps.points + 1) % 4)
    with pytest.raises(ConsistencyError):
        regularity_rank(g, 5, points=shifted)
    with pytest.raises(ConsistencyError):
        next(_hilbert_levels(shifted, Field(5)))


def test_rank_equals_distinct_rows_is_checked(monkeypatch):
    import toricreg.hilbert as hilbert

    g = cycle_graph(3)
    ps = enumerate_points(g, 5)
    field = Field(5)
    unique = hilbert._unique_rows
    # a repeated row leaves the rank one short of the row count
    monkeypatch.setattr(hilbert, "_unique_rows", lambda E: np.vstack([unique(E), unique(E)[:1]]))
    with pytest.raises(ConsistencyError):
        hilbert_value(ps, 2, field)
    # rows that never reach the carried set leave it smaller than the rank
    monkeypatch.setattr(hilbert, "_unique_rows", lambda E, seen: unique(E))
    with pytest.raises(ConsistencyError):
        regularity_rank(g, 5, points=ps)
