import random
from itertools import combinations, product

import pytest

from toricreg.errors import (
    CeilingExceededError,
    NotHomogeneousError,
    NotSameParityEarError,
    TooLargeError,
)
from toricreg.field import Field
from toricreg.graph import (
    Multigraph,
    cycle_graph,
    parallel_composition,
    path_graph,
    star_graph,
)
from toricreg.hilbert import monomials_of_degree
from toricreg.ideal import (
    binomial_in_ideal,
    ear_swap,
    monomial_in_ideal_plus_edge,
    parallel_fg_binomial,
    reachable_residues,
    regularity_sieve,
    residue_of,
    same_parity_ear_pair,
)
from toricreg.points import enumerate_points, evaluate_monomial


def test_residue_examples():
    g = path_graph(2)
    assert residue_of(g, 3, (1, 0)) == (1, 1, 0)
    assert residue_of(g, 3, (1, 1)) == (1, 0, 1)
    assert residue_of(g, 3, (0, 0)) == (0, 0, 0)
    with pytest.raises(ValueError):
        residue_of(g, 3, (1, 0, 0))


def test_residue_counts_parallel_edges_at_both_endpoints():
    double = parallel_composition((1, 1))
    assert residue_of(double, 4, (1, 2)) == (0, 0)
    assert residue_of(double, 4, (1, 1)) == (2, 2)


def test_binomial_membership_basics():
    g = path_graph(2)
    assert binomial_in_ideal(g, 3, (1, 1), (1, 1))
    # t1 - t2 is not in the ideal but t1^2 - t2^2 is (q = 3)
    assert not binomial_in_ideal(g, 3, (1, 0), (0, 1))
    assert binomial_in_ideal(g, 3, (2, 0), (0, 2))
    with pytest.raises(NotHomogeneousError):
        binomial_in_ideal(g, 3, (1, 0), (1, 1))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_torus_generators_in_every_ideal(q):
    for g in (path_graph(3), cycle_graph(4), parallel_composition((1, 2, 2))):
        for i in range(g.s):
            for j in range(g.s):
                a = [0] * g.s
                b = [0] * g.s
                a[i] = q - 1
                b[j] = q - 1
                assert binomial_in_ideal(g, q, a, b)


def _point_eval_verdict(g, q, ps, field, a, b):
    return all(
        evaluate_monomial(p, a, field) == evaluate_monomial(p, b, field)
        for p in ps.as_tuples()
    )


@pytest.mark.parametrize("q", [3, 4])
def test_membership_agrees_with_point_evaluation_small(q):
    field = Field(q)
    for g in (path_graph(2), cycle_graph(3), parallel_composition((1, 1))):
        ps = enumerate_points(g, q)
        for d in range(1, 4):
            mons = monomials_of_degree(g.s, d)
            for a, b in combinations(mons, 2):
                assert binomial_in_ideal(g, q, a, b) == _point_eval_verdict(
                    g, q, ps, field, a, b
                )


def brute_reach(g, q, d):
    return {
        residue_of(g, q, a) for a in monomials_of_degree(g.s, d)
    }


def test_reach_examples_path2():
    g = path_graph(2)
    reach = reachable_residues(g, 3, 2)
    assert reach.level(0) == {(0, 0, 0)}
    assert reach.level(1) == {(1, 1, 0), (0, 1, 1)}
    assert reach.level(2) == {(0, 0, 0), (1, 0, 1)}
    assert reach.level(-1) == frozenset()


def test_reach_examples_triangle():
    reach = reachable_residues(cycle_graph(3), 3, 2)
    even_weight = {
        v for v in product(range(2), repeat=3) if sum(v) % 2 == 0
    }
    assert reach.level(2) == even_weight


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_reach_dp_matches_brute_force(q):
    graphs = [
        path_graph(2),
        path_graph(4),
        cycle_graph(4),
        parallel_composition((1, 2)),
        parallel_composition((1, 1, 2)),
        star_graph(4),
    ]
    for g in graphs:
        reach = reachable_residues(g, q, 4)
        for d in range(5):
            assert reach.level(d) == brute_reach(g, q, d)


def brute_sieve(g, q, edge):
    """The sieve's vanishing degree minus 1, from brute-force Reach sets."""
    u, w = g.edges[edge]
    d = 1
    while True:
        prev = brute_reach(g, q, d - 1)
        stepped = {
            tuple(
                (x - (v in (u, w))) % (q - 1) for v, x in enumerate(r)
            )
            for r in brute_reach(g, q, d)
        }
        if stepped <= prev:
            return d - 1
        d += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sieve_matches_brute_force(q):
    for g in (
        path_graph(3),
        cycle_graph(3),
        cycle_graph(4),
        parallel_composition((1, 2)),
        parallel_composition((1, 1, 2)),
        star_graph(3),
    ):
        for edge in range(g.s):
            assert regularity_sieve(g, q, edge=edge) == brute_sieve(g, q, edge)


def test_q2_has_no_vertex_limit():
    # at q = 2 every residue is 0, so a graph of any size has one state
    g = path_graph(40)
    reach = reachable_residues(g, 2, 3)
    zero = (0,) * g.n
    assert all(reach.level(d) == {zero} for d in range(4))
    assert reach.contains(3, zero)
    assert monomial_in_ideal_plus_edge(g, 2, (1,) + (0,) * 39, 0, reach)
    assert regularity_sieve(g, 2) == 0
    assert regularity_sieve(g, 2, edge=g.s - 1) == 0
    # at q = 3 the same graph has 2**41 states, far above the cap
    with pytest.raises(TooLargeError):
        reachable_residues(g, 3, 1)
    with pytest.raises(TooLargeError):
        regularity_sieve(g, 3)


def test_reach_cap():
    with pytest.raises(TooLargeError):
        reachable_residues(cycle_graph(12), 5, 2, cap=100)


def test_monomial_in_extended_ideal_examples():
    g = path_graph(2)
    reach = reachable_residues(g, 3, 3)
    assert monomial_in_ideal_plus_edge(g, 3, (1, 0), 0, reach)
    assert monomial_in_ideal_plus_edge(g, 3, (1, 1), 0, reach)
    assert not monomial_in_ideal_plus_edge(g, 3, (0, 1), 0, reach)
    # degree zero: 1 is not in a proper ideal
    assert not monomial_in_ideal_plus_edge(g, 3, (0, 0), 0, reach)
    with pytest.raises(IndexError):
        monomial_in_ideal_plus_edge(g, 3, (1, 0), 5, reach)


def test_sieve_examples():
    assert regularity_sieve(path_graph(2), 3, edge=0) == 1
    assert regularity_sieve(cycle_graph(4), 3) == 1
    assert regularity_sieve(cycle_graph(3), 3) == 2
    assert regularity_sieve(parallel_composition((1, 1)), 3) == 0


def test_sieve_q2_is_zero():
    for g in (path_graph(4), cycle_graph(5), parallel_composition((2, 3))):
        assert regularity_sieve(g, 2) == 0


@pytest.mark.parametrize("q", [3, 4])
def test_sieve_independent_of_edge_choice(q):
    for g in (path_graph(3), cycle_graph(5), parallel_composition((1, 2, 3))):
        values = {regularity_sieve(g, q, edge=j) for j in range(g.s)}
        assert len(values) == 1


def test_ear_swap_spec_example():
    g = parallel_composition((5, 1))
    assert ear_swap(g, (2, 0, 1, 0, 0, 0), 0, 2) == (1, 0, 2, 0, 0, 0)
    with pytest.raises(NotSameParityEarError):
        ear_swap(g, (2, 0, 1, 0, 0, 0), 0, 1)


def test_ear_pair_rules():
    # open ears in a parallel composition with three paths
    g = parallel_composition((3, 3, 3))
    assert same_parity_ear_pair(g, 0, 2)  # positions 1, 3 of one path
    assert not same_parity_ear_pair(g, 0, 1)
    assert not same_parity_ear_pair(g, 0, 3)  # different paths
    # pure even cycle: opposite and distance-2 edges qualify
    c6 = cycle_graph(6)
    valid = {
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if same_parity_ear_pair(c6, i, j)
    }
    assert len(valid) == 6
    # loop hanging off a branch vertex: first/last pair is not covered
    tri = Multigraph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert not same_parity_ear_pair(tri, 0, 2)


@pytest.mark.parametrize("q", [3, 4])
def test_ear_swap_membership_invariance_randomized(q):
    rng = random.Random(q * 11)
    graphs = [
        parallel_composition((5, 3)),
        parallel_composition((3, 3, 3)),
        path_graph(5),
        cycle_graph(6),
    ]
    for g in graphs:
        pairs = [
            (i, j)
            for i in range(g.s)
            for j in range(i + 1, g.s)
            if same_parity_ear_pair(g, i, j)
        ]
        assert pairs
        for _ in range(300):
            i, j = rng.choice(pairs)
            d = rng.randint(1, 5)
            a = [0] * g.s
            b = [0] * g.s
            for _ in range(d):
                a[rng.randrange(g.s)] += 1
                b[rng.randrange(g.s)] += 1
            before = binomial_in_ideal(g, q, a, b)
            after = binomial_in_ideal(
                g, q, ear_swap(g, tuple(a), i, j), ear_swap(g, tuple(b), i, j)
            )
            assert before == after


def test_parallel_fg_exponents():
    first, second = parallel_fg_binomial((3, 3), 0, 1)
    assert first == (1, 0, 1, 0, 1, 0)  # t1 t3 t5
    assert second == (0, 1, 0, 1, 0, 1)  # t2 t4 t6
    first, second = parallel_fg_binomial((1, 1), 0, 1)
    assert first == (1, 0) and second == (0, 1)
    with pytest.raises(IndexError):
        parallel_fg_binomial((3, 3), 0, 0)
    with pytest.raises(IndexError):
        parallel_fg_binomial((3, 3), 0, 2)


@pytest.mark.parametrize("q", [3, 4])
def test_parallel_fg_relation_same_parity(q):
    for ks in ((3, 3), (1, 3), (5, 3), (2, 4), (3, 3, 5), (2, 2, 4)):
        g = parallel_composition(ks)
        for i in range(len(ks)):
            for j in range(len(ks)):
                if i == j or (ks[i] - ks[j]) % 2:
                    continue
                a, b = parallel_fg_binomial(ks, i, j)
                assert binomial_in_ideal(g, q, a, b)


def test_parallel_fg_mixed_parity_is_inhomogeneous():
    ks = (3, 2)
    g = parallel_composition(ks)
    a, b = parallel_fg_binomial(ks, 0, 1)
    assert sum(a) != sum(b)
    with pytest.raises(NotHomogeneousError):
        binomial_in_ideal(g, 3, a, b)


def test_sieve_stays_within_ceiling():
    # the search bound is (s-1)(q-2) + 2; values land well inside it
    g = parallel_composition((2, 2))
    assert regularity_sieve(g, 5) == 3  # (2/2 + 2/2 - 1)(q-2)
    assert regularity_sieve(g, 4) == 2
    assert issubclass(CeilingExceededError, RuntimeError)
