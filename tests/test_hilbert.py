import random
from math import comb

import numpy as np
import pytest

from toricreg.errors import ConsistencyError, TooLargeError
from toricreg.field import Field, ZERO
from toricreg.graph import cycle_graph, parallel_composition, path_graph, simplify
from toricreg.hilbert import (
    _rank_prime_blocked,
    evaluation_columns,
    gf_rank,
    hilbert_value,
    monomial_matrix,
    monomials_of_degree,
    rank_reference,
    regularity_rank,
)
from toricreg.ideal import regularity_sieve
from toricreg.points import enumerate_points


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
            assert _rank_prime_blocked(vals, field.p) == expected


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
    assert _rank_prime_blocked(mat, p, block=16) == expected
    assert _rank_prime_blocked(mat, p, block=4) == expected
    assert _rank_prime_blocked(mat, p) == expected


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
    assert _rank_prime_blocked(mat, p, block=8) == expected


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
