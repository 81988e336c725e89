import random
from itertools import product

import numpy as np
import pytest

from toricreg.cli import main
from toricreg import points
from toricreg.errors import ConsistencyError, TooLargeError
from toricreg.field import Field
from toricreg.graph import (
    Multigraph,
    cycle_graph,
    graph_stats,
    parallel_composition,
    path_graph,
)
from toricreg.harness import default_catalog
from toricreg.points import degree_formula, enumerate_points, evaluate_monomial

from test_graph import _random_multigraph


def test_single_edge_is_one_point():
    ps = enumerate_points(path_graph(1), 3)
    assert ps.as_tuples() == [(0,)]
    assert degree_formula(graph_stats(path_graph(1)), 3) == 1


def test_path2_points_q3():
    ps = enumerate_points(path_graph(2), 3)
    assert ps.as_tuples() == [(0, 0), (0, 1)]


def test_triangle_points_q3():
    ps = enumerate_points(cycle_graph(3), 3)
    assert set(ps.as_tuples()) == {
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)
    }


def test_degree_formula_branches():
    # odd q, non-bipartite
    assert degree_formula(graph_stats(cycle_graph(3)), 5) == 16
    # even q, non-bipartite
    assert degree_formula(graph_stats(cycle_graph(3)), 4) == 9
    # bipartite, disconnected
    two_edges = Multigraph(4, [(0, 1), (2, 3)])
    assert degree_formula(graph_stats(two_edges), 3) == 2
    # q = 2: single point for connected graphs
    assert degree_formula(graph_stats(cycle_graph(5)), 2) == 1


SMALL_GRAPHS = [
    path_graph(1),
    path_graph(2),
    path_graph(3),
    cycle_graph(3),
    cycle_graph(4),
    cycle_graph(5),
    parallel_composition((1, 1)),
    parallel_composition((1, 2, 2)),
    parallel_composition((2, 3)),
    Multigraph(4, [(0, 1), (2, 3)]),
    Multigraph(5, [(0, 1), (1, 2), (3, 4)]),
]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_enumeration_matches_degree_formula(q):
    for g in SMALL_GRAPHS:
        ps = enumerate_points(g, q)
        assert ps.size == degree_formula(graph_stats(g), q)


@pytest.mark.parametrize("q", [3, 4])
def test_canonicalization_matches_lambda_scaling(q):
    """Two raw coordinate vectors name the same projective point exactly
    when one is a scalar multiple of the other; in exponent form that is
    adding a constant mod q-1.  The canonical form must agree."""
    for g in (path_graph(2), cycle_graph(3)):
        qm1 = q - 1
        raws = []
        for e in product(range(qm1), repeat=g.n):
            raws.append(
                tuple(
                    (e[u] + e[w]) % qm1 for u, w in g.edges
                )
            )
        def canon(raw):
            return tuple((x - raw[0]) % qm1 for x in raw)

        for r1 in raws:
            for r2 in raws:
                scaled = any(
                    all((x + c) % qm1 == y for x, y in zip(r1, r2))
                    for c in range(qm1)
                )
                assert scaled == (canon(r1) == canon(r2))


def test_points_are_canonical_and_unique():
    for q in (3, 4, 5):
        ps = enumerate_points(parallel_composition((2, 2)), q)
        pts = ps.as_tuples()
        assert all(p[0] == 0 for p in pts)
        assert len(pts) == len(set(pts))


def test_enumeration_cap(monkeypatch):
    g = cycle_graph(12)
    monkeypatch.setenv("TORICREG_MAX_STATES", "1000")
    with pytest.raises(TooLargeError):
        enumerate_points(g, 5)


def _vertex_walk(g, q):
    """Reference enumeration: map every vertex state to its canonical
    exponent vector and deduplicate.  Vertex 0 stays at exponent 0:
    adding c to every e_v adds 2c to every coordinate, which the
    canonical form takes out again."""
    qm1 = q - 1
    verts = np.indices((1,) + (qm1,) * (g.n - 1)).reshape(g.n, -1).T
    us, ws = np.array(g.edges).T
    E = (verts[:, us] + verts[:, ws]) % qm1
    return np.unique((E - E[:, :1]) % qm1, axis=0)


# disconnected, with bipartite and non-bipartite components in either order
MIXED_GRAPHS = [
    Multigraph(5, [(0, 1), (2, 3), (3, 4), (4, 2)]),
    Multigraph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
    Multigraph(8, [(6, 7), (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)]),
]


def test_enumeration_matches_the_vertex_walk():
    rng = random.Random(20261018)
    graphs = [e.graph for e in default_catalog()] + MIXED_GRAPHS
    graphs += [_random_multigraph(rng) for _ in range(60)]
    qs = (2, 3, 4, 5, 7, 8, 9)
    pairs = [(g, q) for q in qs for g in graphs if (q - 1) ** g.n <= 40_000]
    pairs.append((path_graph(2), 131))
    mixed = 0
    for g, q in pairs:
        ps = enumerate_points(g, q)
        assert ps.points.dtype == np.min_scalar_type(q - 2)
        assert np.array_equal(ps.points, _vertex_walk(g, q)), (g.edges, q)
        stats = graph_stats(g)
        mixed += 0 < stats.gamma < stats.m
    assert len(pairs) > 400 and mixed > 20


def test_state_cap_counts_the_point_cells(monkeypatch):
    g = cycle_graph(8)
    assert degree_formula(graph_stats(g), 5) * g.s == 32768 < 4**g.n
    monkeypatch.setenv("TORICREG_MAX_STATES", "32768")
    assert enumerate_points(g, 5).size == 4096
    monkeypatch.setenv("TORICREG_MAX_STATES", "32767")
    with pytest.raises(TooLargeError):
        enumerate_points(g, 5)


def test_enumeration_refuses_a_duplicate_coset_row(monkeypatch):
    # overshooting a generator's order repeats cosets of path(2) at q=3:
    # 2**3 rows for its 2 points
    monkeypatch.setattr(points, "_order_mod", lambda pts, gen, qm1: qm1)
    with pytest.raises(ConsistencyError, match="8 coset rows hold 2 distinct"):
        enumerate_points(path_graph(2), 3)
    # refused for the duplicates alone, when the row count matches the formula
    monkeypatch.setattr(points, "degree_formula", lambda stats, q: 8)
    with pytest.raises(ConsistencyError, match="8 coset rows hold 2 distinct"):
        enumerate_points(path_graph(2), 3)


def test_cli_degree_enumerates_the_largest_field(capsys):
    assert main(["degree", "path(2)", "-q", "65536", "--enumerate"]) == 0
    assert capsys.readouterr().out.strip() == "formula 65535, enumerated 65535"


def test_evaluate_monomial_examples():
    f3 = Field(3)
    # empty exponent vector: the constant 1
    assert evaluate_monomial((0, 1), (0, 0), f3) == f3.one
    # path(2), q=3, point (1, 2) as exponents (0, 1), monomial t1*t2 -> 2
    val = evaluate_monomial((0, 1), (1, 1), f3)
    assert f3.to_int(val) == 2
    f4 = Field(4)
    assert evaluate_monomial((0, 1, 2), (1, 1, 1), f4) == f4.one  # g^3 = 1
    with pytest.raises(ValueError):
        evaluate_monomial((0, 1), (1, 1, 1), f3)
