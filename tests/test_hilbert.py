import random
from math import comb

import numpy as np
import pytest

from toricreg.errors import ConsistencyError, TooLargeError
from toricreg.field import Field, ZERO
from toricreg.graph import cycle_graph, parallel_composition, path_graph, simplify
from toricreg.hilbert import (
    _PrimeEchelon,
    _hilbert_levels,
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


def _rank_p(mat, p, block=256):
    mat = np.asarray(mat)
    return _PrimeEchelon(mat.shape[0], p, block=block).add_columns(mat)


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
        if field.k == 1:
            idx = np.where(arr < 0, 0, arr)
            vals = field.exp_array[idx]
            vals[arr < 0] = 0
            assert _rank_p(vals, field.p) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 13, 251])
def test_blocked_rank_crosses_block_boundaries(p):
    rng = np.random.default_rng(p)
    # rank-deficient: product of thin matrices, rank <= 7
    a = rng.integers(0, p, size=(60, 7))
    b = rng.integers(0, p, size=(7, 90))
    mat = (a @ b) % p
    field = Field(p)
    logs = [[field.from_int(int(x) % p) for x in row] for row in mat]
    expected = rank_reference(logs, field)
    assert _rank_p(mat, p, block=16) == expected
    assert _rank_p(mat, p, block=4) == expected
    assert _rank_p(mat, p) == expected


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
    # rank <= 6 with dependencies that are field sums, and k*n > 256 so
    # the regular representation spans more than one column block
    a = _random_log_matrix(rng, q, 30, 6)
    b = _random_log_matrix(rng, q, 6, 140)
    mat = _product(field, a, b)
    assert field.k * len(mat[0]) > 256
    expected = rank_reference(mat, field)
    assert gf_rank(np.array(mat, dtype=np.int64), field) == expected


def test_blocked_rank_full_rank_square():
    p = 5
    rng = np.random.default_rng(42)
    mat = rng.integers(0, p, size=(50, 50))
    field = Field(p)
    logs = [[field.from_int(int(x) % p) for x in row] for row in mat]
    expected = rank_reference(logs, field)
    assert _rank_p(mat, p, block=8) == expected


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
        logs = [[field.from_int(int(x)) for x in col] for col in mat.T]
        assert _rank_p(mat, p, block) == rank_reference(logs, field)
        cuts = sorted(rng.choice(np.arange(1, n), size=min(6, n - 1), replace=False))
        echelon = _PrimeEchelon(m, p, block=block)
        for lo, hi in zip([0] + cuts, cuts + [n]):
            got = echelon.add_columns(mat[:, lo:hi])
            assert got == _rank_p(mat[:, :hi], p, block), (lo, hi)
        assert echelon.rank == _rank_p(mat, p, block)


def test_echelon_reduces_before_a_panel_overflows():
    """At p = 2897 with block 2 an entry reduced below p has room for
    two products of (p-1)**2 in float32.  The second batch takes two
    such products from the replay of the first batch's pivots, and its
    panel would add a third to the entry that decides the last pivot:
    unreduced, that entry is odd and above 2**24, so it would round."""
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
    logs = [[field.from_int(int(x)) for x in col] for col in mat.T]
    echelon = _PrimeEchelon(4, p, block=2)
    assert echelon.dtype == np.float32
    echelon.add_columns(mat[:, :2])
    assert echelon.add_columns(mat[:, 2:]) == rank_reference(logs, field) == 3


def test_evaluation_columns_shape_and_range():
    g = cycle_graph(4)
    field = Field(4)
    ps = enumerate_points(g, 4)
    mons = monomial_matrix(g.s, 2)
    E = evaluation_columns(ps, mons, field)
    assert E.shape == (mons.shape[0], ps.size)
    assert E.min() >= 0 and E.max() < field.q - 1


def test_matrix_cap():
    g = cycle_graph(6)
    field = Field(5)
    ps = enumerate_points(g, 5)
    with pytest.raises(TooLargeError):
        hilbert_value(ps, 6, field, cap=100)


@pytest.mark.parametrize("g, q", [(cycle_graph(8), 3), (cycle_graph(6), 4)])
def test_rank_cap_counts_the_saturated_echelon(monkeypatch, g, q):
    import toricreg.hilbert as hilbert

    size, k = enumerate_points(g, q).size, Field(q).k
    cells = (size * k) ** 2
    assert (q - 1) ** g.n < cells  # the state cap never decides
    monkeypatch.setenv("TORICREG_MAX_STATES", str(cells))
    assert regularity_rank(g, q).degree == size

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(hilbert, "enumerate_points", forbidden)
    monkeypatch.setattr(hilbert, "_PrimeEchelon", forbidden)
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
