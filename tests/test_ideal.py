import random
import time
import tracemalloc
from itertools import combinations, islice, product
from math import comb

import numpy as np
import pytest

from toricreg import ideal
from toricreg.cli import main
from toricreg.errors import (
    CeilingExceededError,
    ConsistencyError,
    NotHomogeneousError,
    NotSameParityEarError,
    TooLargeError,
)
from toricreg.field import Field
from toricreg.graph import (
    GraphStats,
    Multigraph,
    cycle_graph,
    graph_stats,
    parallel_composition,
    path_graph,
    star_graph,
)
from toricreg.hilbert import monomials_of_degree
from toricreg.ideal import (
    ReachTable,
    binomial_in_ideal,
    ear_swap,
    monomial_in_ideal_plus_edge,
    parallel_fg_binomial,
    regularity_sieve,
    residue_of,
    same_parity_ear_pair,
)
from toricreg.points import degree_formula, enumerate_points, evaluate_monomial

from test_graph import _random_multigraph
from test_points import MIXED_GRAPHS


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
    reach = ReachTable(g, 3)
    assert reach.level(0) == {(0, 0, 0)}
    assert reach.level(1) == {(1, 1, 0), (0, 1, 1)}
    assert reach.level(2) == {(0, 0, 0), (1, 0, 1)}
    assert reach.level(-1) == frozenset()


def test_reach_examples_triangle():
    reach = ReachTable(cycle_graph(3), 3)
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
        reach = ReachTable(g, q)
        for d in range(5):
            assert reach.level(d) == brute_reach(g, q, d)


def reference_levels(g, q, d_max, budget=2000):
    """Reach(0..d_max) in full residue coordinates, as arrays of residue
    rows: by brute force while a degree has at most `budget` monomials,
    then by the defining recursion Reach(d) = union over edges of
    Reach(d-1) + chi_e."""
    chi = np.zeros((g.s, g.n), np.int64)
    for e, (u, w) in enumerate(g.edges):
        chi[e, [u, w]] = 1
    radix = (q - 1) ** np.arange(g.n)
    levels = []
    for d in range(d_max + 1):
        if comb(g.s + d - 1, d) <= budget:
            rows = np.array(sorted(brute_reach(g, q, d)), np.int64)
        else:
            rows = (levels[-1][:, None, :] + chi).reshape(-1, g.n) % (q - 1)
            rows = rows[np.unique(rows @ radix, return_index=True)[1]]
        levels.append(rows)
    return levels


def as_set(rows):
    return set(map(tuple, rows.tolist()))


def test_reach_table_shifts_past_the_first_stable_level():
    rng = random.Random(20261019)
    pairs = [(g, q) for q in (3, 4, 5) for g in (path_graph(1), path_graph(2), cycle_graph(5))]
    pairs += [(_random_multigraph(rng), rng.choice((3, 4, 5))) for _ in range(40)]
    for g, q in pairs:
        if (q - 1) ** g.n > 1024:
            continue
        sizes = [len(level) for level in reference_levels(g, q, g.s * (q - 2) + 2)]
        last = next(d for d in range(len(sizes) - 1) if sizes[d + 1] == sizes[d])
        # L = last, the first stable level
        levels = [as_set(rows) for rows in reference_levels(g, q, 3 * last + 2)]
        reach = ReachTable(g, q)
        assert reach._dist[reach._dist < reach._inf].max() == last
        for d, level in enumerate(levels):
            assert reach.level(d) == level
            for r in product(range(q - 1), repeat=g.n):
                assert reach.contains(d, r) == (r in level), (g.edges, q, d, r)


def test_reach_table_reads_residues_mod_q_minus_1():
    # path(2) at q=4: Reach(1) = {(1,1,0), (0,1,1)}; (0,1,4) used to raise
    # IndexError and only the first edge's endpoints were reduced
    reach = ReachTable(path_graph(2), 4)
    assert reach.contains(1, (0, 1, 4))
    assert reach.contains(1, (3, -2, 1))
    assert not reach.contains(1, (0, 4, 3))
    for d in range(4):
        for r in product(range(-3, 7), repeat=3):
            assert reach.contains(d, r) == reach.contains(d, tuple(x % 3 for x in r))
    # at q = 2 every residue is 0 mod 1
    assert ReachTable(path_graph(2), 2).contains(1, (1, 0, 5))
    for q in (2, 4):
        table = ReachTable(path_graph(2), q)
        for bad in [(0, 1), (0, 1, 1, 0)]:
            with pytest.raises(ValueError, match="length"):
                table.contains(1, bad)
            with pytest.raises(ValueError, match="length"):
                table.contains(-1, bad)


def test_cli_member_far_past_the_stable_level(capsys):
    t0 = time.perf_counter()
    assert main(
        ["member", "path(2)", "-q", "3", "--monomial", "1000000,0", "--mod-edge", "2"]
    ) == 0
    assert time.perf_counter() - t0 < 2.0
    assert capsys.readouterr().out.strip() == "IN (I(X), t_2)"


def brute_sieve(g, q, edge, levels=None):
    """The sieve's vanishing degree minus 1, from brute-force Reach sets
    or from `levels` (those of `reference_levels`); residues are compared
    as integer codes."""
    chi = np.array([v in g.edges[edge] for v in range(g.n)], np.int64)
    radix = (q - 1) ** np.arange(g.n)

    def rows(d):
        if levels is not None:
            return levels[d]
        return np.array(list(brute_reach(g, q, d)), np.int64)

    d = 1
    while True:
        if np.isin((rows(d) - chi) % (q - 1) @ radix, rows(d - 1) @ radix).all():
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
    reach = ReachTable(g, 2)
    zero = (0,) * g.n
    assert all(reach.level(d) == {zero} for d in range(4))
    assert reach.contains(3, zero)
    assert monomial_in_ideal_plus_edge(reach, (1,) + (0,) * 39, 0)
    assert regularity_sieve(g, 2) == 0
    assert regularity_sieve(g, 2, edge=g.s - 1) == 0
    # at q = 3 the same graph has 2**39 reduced states, far above the cap
    with pytest.raises(TooLargeError):
        ReachTable(g, 3)
    with pytest.raises(TooLargeError):
        regularity_sieve(g, 3)


def test_reach_cap(monkeypatch):
    monkeypatch.setenv("TORICREG_MAX_STATES", "100")
    with pytest.raises(TooLargeError):
        ReachTable(cycle_graph(12), 5)


def test_reach_cap_is_checked_before_the_lift_is_built(monkeypatch):
    """path(3000) keeps k = 2999 vertices, so (q-1)**k passes the cap;
    the lift back to every vertex would be a 2999 x 3001 int64 array
    (72 MB), and the refusal must come before it."""
    monkeypatch.delenv("TORICREG_MAX_STATES", raising=False)
    g = path_graph(3000)
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="exceed the state cap"):
            ReachTable(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_state_cap_counts_the_reduced_residues(monkeypatch):
    # cycle(7): n=7, m=1, gamma=1, so k = 6 kept axes, 4**6 < 4**7 states
    g = cycle_graph(7)
    value = regularity_sieve(g, 5)
    monkeypatch.setenv("TORICREG_MAX_STATES", str(4**6))
    assert regularity_sieve(g, 5, edge=3) == value
    assert len(ReachTable(g, 5).level(40)) == 4**6
    monkeypatch.setenv("TORICREG_MAX_STATES", str(4**6 - 1))
    with pytest.raises(TooLargeError):
        regularity_sieve(g, 5)
    with pytest.raises(TooLargeError):
        ReachTable(g, 5)


def test_tensor_axes_count_the_kept_vertices():
    # 17 disjoint edges: 34 vertices but k = 16 axes; X is the projective
    # torus of dimension 16, of regularity 16*(q-2)
    g = Multigraph(34, [(2 * i, 2 * i + 1) for i in range(17)])
    assert regularity_sieve(g, 3) == 16
    assert regularity_sieve(g, 3, edge=16) == 16


def test_cli_sieve_answers_parallel_4_5_at_q7(capsys):
    # 6**9 vertex residues exceed the default state cap, 6**8 kept ones do not
    assert main(["reg", "parallel(4,5)", "-q", "7", "--method", "sieve", "--edge", "6"]) == 0
    assert capsys.readouterr().out.strip() == "40"


def test_stable_level_must_hold_the_degree(monkeypatch):
    g = parallel_composition((1, 2))
    monkeypatch.setattr(ideal, "degree_formula", lambda stats, q: degree_formula(stats, q) + 1)
    with pytest.raises(ConsistencyError, match="stable Reach level holds 16"):
        regularity_sieve(g, 5, edge=1)
    with pytest.raises(ConsistencyError, match="stable Reach level holds 16"):
        ReachTable(g, 5)
    monkeypatch.setattr(ideal, "GraphStats", lambda n, m, gamma: GraphStats(n, m, gamma + 1))
    with pytest.raises(ConsistencyError, match="kept vertices"):
        regularity_sieve(g, 5)


def _mixed_multigraph(rng, odd_first):
    """A random multigraph with at least one bipartite and one
    non-bipartite component, the first component of the kind asked for."""
    while True:
        g = _random_multigraph(rng)
        stats = graph_stats(g)
        if 0 < stats.gamma < stats.m and g.s <= 8:
            comps, _, odd = ideal._traverse(g)
            if odd[0] == odd_first:
                return g


def test_reach_and_sieve_match_brute_force_on_mixed_graphs():
    """Disconnected multigraphs mixing bipartite and non-bipartite
    components in either order: the total-degree drop must sit in the
    first non-bipartite component, not merely the first component."""
    rng = random.Random(20261020)
    graphs = MIXED_GRAPHS + [_mixed_multigraph(rng, odd_first=i % 2 == 0) for i in range(6)]
    for g in graphs:
        for q in (3, 4, 5, 7):
            # the reference runs two levels past the sieve's claim; a
            # brute-force vanishing degree beyond them raises IndexError
            levels = reference_levels(g, q, regularity_sieve(g, q) + 2)
            for edge in range(g.s):
                assert regularity_sieve(g, q, edge=edge) == brute_sieve(g, q, edge, levels)
            reach = ReachTable(g, q)
            qm1 = q - 1
            for d, rows in enumerate(levels):
                level = as_set(rows)
                assert reach.level(d) == level, (g.edges, q, d)
                probes = {
                    tuple((x + (v == u)) % qm1 for v, x in enumerate(r))
                    for r in islice(level, 20) for u in range(-1, g.n)
                }
                for r in probes:
                    assert reach.contains(d, r) == (r in level), (g.edges, q, d, r)


def test_distance_tensor_matches_the_levels():
    """Every level, membership probes and every edge's sieve value read
    from the one distance tensor, against the recursion.  At q = 8 and 9
    some shifts have order below q-1, so their doubling stops early."""
    rng = random.Random(20261021)
    graphs = MIXED_GRAPHS + [_random_multigraph(rng) for _ in range(24)]
    checked = 0
    for q in (3, 4, 5, 7, 8, 9):
        for g in graphs:
            if degree_formula(graph_stats(g), q) > 1500:
                continue
            levels = reference_levels(g, q, g.s * (q - 2) + 2, budget=100)
            # L, the first stable level of the recursion
            last = next(d for d in range(len(levels) - 1) if len(levels[d + 1]) == len(levels[d]))
            levels = levels[: last + 2]
            reach = ReachTable(g, q)
            assert reach._dist[reach._dist < reach._inf].max() == last, (g.edges, q)
            # far past the ceiling, Reach(d) is the stable level shifted by d*chi_1
            chi_1 = np.isin(np.arange(g.n), g.edges[0])
            far = as_set((levels[last] + (10**6 - last) * chi_1) % (q - 1))
            assert reach.level(10**6) == far
            if (q - 1) ** g.n <= 4096:
                for r in product(range(q - 1), repeat=g.n):
                    assert reach.contains(10**6, r) == (r in far), (g.edges, q, r)
            values = tuple(brute_sieve(g, q, edge, levels) for edge in range(g.s))
            assert tuple(reach.sieve(e) for e in range(g.s)) == values, (g.edges, q)
            assert [regularity_sieve(g, q, edge=e) for e in range(g.s)] == list(values)
            for d, rows in enumerate(levels):
                level = as_set(rows)
                assert reach.level(d) == level, (g.edges, q, d)
                probes = {
                    tuple((x + (v == u)) % (q - 1) for v, x in enumerate(r))
                    for r in islice(level, 10) for u in range(-1, g.n)
                }
                for r in probes:
                    assert reach.contains(d, r) == (r in level), (g.edges, q, d, r)
            checked += 1
    assert checked >= 100


def plain_doubling(g, q):
    """The residue DP without a layout: every distinct delta rolled by
    min-plus doubling in the one axis order of ``_reduced_coordinates``.
    Returns (dist, inf, kept, lift, deltas), all in that order."""
    traversal = ideal._traverse(g)
    comps, _, odd = traversal
    stats = GraphStats(n=g.n, m=len(comps), gamma=sum(odd))
    qm1 = q - 1
    k = stats.n - stats.m + stats.gamma - 1 if q > 2 else 0
    if q > 2:
        kept, lift = ideal._reduced_coordinates(g, traversal, stats)
    else:
        kept, lift = [], np.zeros((0, g.n), np.int64)
    deltas = ideal._deltas(g, kept) % qm1
    inf = (g.s - 1) * (q - 2) + 2
    dist = np.full((qm1,) * k, inf, np.int64)
    dist[(0,) * k] = 0
    for delta in {tuple(delta) for delta in deltas.tolist()}:
        for t in range((q - 2).bit_length()):
            shift = np.array(delta) * (1 << t) % qm1
            if not shift.any():
                break
            axes = np.flatnonzero(shift)
            moved = np.roll(dist, shift[axes], axis=tuple(axes)) + (1 << t)
            np.minimum(dist, moved, out=dist)
    return dist, inf, kept, lift, deltas


def plain_reads(g, q, dist, inf, lift, deltas):
    """level(d) and every edge's sieve value read from a plain tensor as
    the single-order table read them: a masked max per edge."""
    def level(d):
        rows = np.argwhere(dist <= min(d, inf - 1)) @ lift
        rows[:, list(g.edges[0])] += d
        return frozenset(map(tuple, (rows % (q - 1)).tolist()))

    values = []
    for delta in deltas:
        axes = np.flatnonzero(delta)
        back = np.roll(dist, delta[axes], axis=tuple(axes)) if axes.size else dist.copy()
        back = np.minimum(back, inf - 1)
        values.append(int(np.max(back, where=back >= dist, initial=0)))
    return level, values


def test_layout_matches_the_plain_doubling():
    """The laid-out table against the plain doubling loop: the tensor
    cell for cell once its axes are put back in the order of
    ``_reduced_coordinates``, the sieve on every edge, and on tables of
    at most 8000 cells levels and membership at several degrees.
    parallel(1,4,4) at q = 7 transposes its tensor between rolls."""
    rng = random.Random(20261022)
    graphs = MIXED_GRAPHS + [_random_multigraph(rng) for _ in range(16)]
    pairs = [(g, q) for q in (2, 3, 4, 5, 7, 8, 9) for g in graphs]
    pairs.append((parallel_composition((1, 4, 4)), 7))
    checked = 0
    for g, q in pairs:
        try:
            reach = ReachTable(g, q)
        except TooLargeError:
            continue
        if reach._dist.size > 300_000:
            continue
        dist, inf, kept, lift, deltas = plain_doubling(g, q)
        assert sorted(reach._kept) == kept and reach._inf == inf
        assert not reach._dist.flags.writeable
        undone = reach._dist.transpose([reach._kept.index(v) for v in kept])
        assert np.array_equal(undone, dist), (g.edges, q)
        level, values = plain_reads(g, q, dist, inf, lift, deltas)
        assert [reach.sieve(e) for e in range(g.s)] == values, (g.edges, q)
        top = max(values) + 1
        for d in (0, 1, top // 2, top, top + 1) if dist.size <= 8000 else ():
            expected = level(d)
            assert reach.level(d) == expected, (g.edges, q, d)
            probes = {
                tuple((x + (v == u)) % (q - 1) for v, x in enumerate(r))
                for r in islice(expected, 5) for u in range(-1, g.n)
            }
            for r in probes:
                assert reach.contains(d, r) == (r in expected), (g.edges, q, d, r)
        checked += 1
    assert checked >= 100
    # the stored order of parallel(1,4,4) at q = 7 is not the plain one
    assert reach._kept != kept and reach._dist.size == 6**7


def test_distance_tensor_widens_past_uint8():
    # closed forms: an odd k-cycle and a tree of s edges are projective
    # tori of regularity (k-1)(q-2) and (s-1)(q-2); the sentinel
    # (s-1)(q-2)+2 plus the largest doubling step picks the dtype
    for g, q, reg, dtype in [
        (cycle_graph(5), 17, 60, np.uint8),
        (cycle_graph(3), 128, 252, np.uint16),
        (cycle_graph(3), 131, 258, np.uint16),
        (path_graph(2), 256, 254, np.uint16),
        (path_graph(2), 65536, 65534, np.uint32),
    ]:
        reach = ReachTable(g, q)
        dist, inf = reach._dist, reach._inf
        assert dist.dtype == dtype and inf == (g.s - 1) * (q - 2) + 2
        assert int(dist[dist < inf].max()) == reg
        assert [reach.sieve(e) for e in range(g.s)] == [reg] * g.s


def test_reads_are_unchanged_by_the_sieve():
    """One table answers every read alike before and after the sieve on
    every edge: the sieve never writes the tensor.  The last graph has
    cells outside the group at odd q, which a written sentinel would
    bring into the levels."""
    for g in MIXED_GRAPHS:
        for q in (3, 5, 7):
            reach = ReachTable(g, q)
            top = int(reach._dist[reach._dist < reach._inf].max()) + 1
            probes = list(islice(product(range(q - 1), repeat=g.n), 500))

            def reads():
                return (
                    [reach.level(d) for d in range(top + 1)],
                    [reach.contains(d, r) for d in (0, top // 2, top) for r in probes],
                )

            before = reads()
            values = [reach.sieve(e) for e in range(g.s)]
            assert reads() == before, (g.edges, q)
            assert [reach.sieve(e) for e in range(g.s)] == values, (g.edges, q)
            for bad in (-1, g.s):
                with pytest.raises(IndexError, match="out of range"):
                    reach.sieve(bad)
    with pytest.raises(IndexError, match="out of range"):
        regularity_sieve(parallel_composition((1, 2)), 5, edge=-1)


def test_monomial_in_extended_ideal_examples():
    g = path_graph(2)
    reach = ReachTable(g, 3)
    assert monomial_in_ideal_plus_edge(reach, (1, 0), 0)
    assert monomial_in_ideal_plus_edge(reach, (1, 1), 0)
    assert not monomial_in_ideal_plus_edge(reach, (0, 1), 0)
    # degree zero: 1 is not in a proper ideal
    assert not monomial_in_ideal_plus_edge(reach, (0, 0), 0)
    with pytest.raises(IndexError):
        monomial_in_ideal_plus_edge(reach, (1, 0), 5)
    # the exponents are read against the table's own graph
    with pytest.raises(ValueError, match="expected 3"):
        monomial_in_ideal_plus_edge(ReachTable(cycle_graph(3), 3), (1, 0), 0)


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
