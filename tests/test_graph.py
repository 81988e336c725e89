import random
from itertools import combinations_with_replacement, product

import pytest

from toricreg.errors import EdgeExistsError, InvalidSpecError
from toricreg.graph import (
    GraphStats,
    Multigraph,
    ParallelSpec,
    bipartition,
    block_edge_partition,
    blocks,
    complete_bipartite,
    complete_multipartite,
    connected_components,
    cycle_graph,
    delete_pendant,
    ear_walks,
    edge_subgraph,
    family,
    graph_stats,
    identify_vertices,
    parallel_composition,
    path_graph,
    simplify,
    star_graph,
)


def all_parallel_specs(max_r=3, max_k=5, max_edges=9):
    out = []
    for r in (2, max_r):
        for ks in combinations_with_replacement(range(1, max_k + 1), r):
            if sum(ks) <= max_edges:
                out.append(ks)
    return out


def test_multigraph_validation():
    with pytest.raises(InvalidSpecError):
        Multigraph(2, [(0, 0)])  # loop
    with pytest.raises(InvalidSpecError):
        Multigraph(3, [(0, 1)])  # vertex 2 isolated
    with pytest.raises(InvalidSpecError):
        Multigraph(2, [])
    with pytest.raises(InvalidSpecError):
        Multigraph(2, [(0, 5)])


def test_parallel_double_edge():
    g = parallel_composition((1, 1))
    assert g.n == 2
    assert g.edges == ((0, 1), (0, 1))


def test_parallel_triangle_labeling():
    g = parallel_composition((1, 2))
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parallel_four_cycle():
    g = parallel_composition((2, 2))
    assert g.n == 4 and g.s == 4
    assert graph_stats(g) == graph_stats(cycle_graph(4))


@pytest.mark.parametrize("ks", all_parallel_specs())
def test_parallel_counts(ks):
    g = parallel_composition(ks)
    assert g.s == sum(ks)
    assert g.n == 2 + sum(k - 1 for k in ks)


def test_parallel_spec_validation():
    with pytest.raises(InvalidSpecError):
        ParallelSpec((3,))
    with pytest.raises(InvalidSpecError):
        ParallelSpec((0, 2))
    assert ParallelSpec((3, 1, 2)).offsets == (0, 3, 4)


def test_family_examples():
    assert family("cycle", (4,)).s == 4
    assert family("biclique", (2, 3)).s == 6
    assert family("multipartite", (1, 1, 2)).s == 5
    assert family("star", (3,)).s == 3
    assert family("parallel", (1, 2)) == parallel_composition((1, 2))
    for kind, params in (
        ("cycle", (2,)),
        ("biclique", (0, 2)),
        ("nonesuch", (1,)),
        # wrong arity is a bad spec, not a TypeError
        ("cycle", (1, 2)),
        ("biclique", (2,)),
        ("path", ()),
    ):
        with pytest.raises(InvalidSpecError):
            family(kind, params)


def test_graph_stats_examples():
    assert graph_stats(cycle_graph(3)) == graph_stats(parallel_composition((1, 2)))
    s3 = graph_stats(cycle_graph(3))
    assert (s3.n, s3.m, s3.gamma) == (3, 1, 1)
    s4 = graph_stats(cycle_graph(4))
    assert (s4.n, s4.m, s4.gamma) == (4, 1, 0)
    sd = graph_stats(Multigraph(4, [(0, 1), (2, 3)]))
    assert (sd.n, sd.m, sd.gamma) == (4, 2, 0)


def test_identify_vertices_on_four_cycle():
    g = cycle_graph(4)  # edges (0,1),(0,3),(1,2),(2,3)
    merged = identify_vertices(g, 0, 2)
    assert merged.n == 3
    assert merged.s == 4
    assert sorted(merged.edges) == [(0, 1), (0, 1), (0, 2), (0, 2)]
    simple = simplify(merged)
    assert simple.s == 2


def test_identify_path_endpoints_gives_double_edge():
    g = path_graph(2)
    merged = identify_vertices(g, 0, 2)
    assert merged.n == 2
    assert merged.edges == ((0, 1), (0, 1))


def test_identify_rejects_adjacent_pair():
    with pytest.raises(EdgeExistsError):
        identify_vertices(path_graph(2), 0, 1)
    with pytest.raises(InvalidSpecError):
        identify_vertices(path_graph(2), 1, 1)


def test_blocks_examples():
    assert len(block_edge_partition(path_graph(3))) == 3
    assert block_edge_partition(cycle_graph(6)) == [tuple(range(6))]
    double = parallel_composition((1, 1))
    assert block_edge_partition(double) == [(0, 1)]
    cactus = Multigraph(
        7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)]
    )
    parts = block_edge_partition(cactus)
    assert sorted(parts) == [(0, 1, 2, 3), (4, 5, 6, 7)]
    for blk in blocks(cactus):
        assert blk.s == 4 and blk.n == 4


@pytest.mark.parametrize("ks", all_parallel_specs())
def test_block_partition_covers_edges(ks):
    g = parallel_composition(ks)
    parts = block_edge_partition(g)
    seen = [e for part in parts for e in part]
    assert sorted(seen) == list(range(g.s))
    assert len(seen) == len(set(seen))


def test_simplify_examples():
    double = parallel_composition((1, 1))
    assert simplify(double).edges == ((0, 1),)
    assert simplify(parallel_composition((1, 1, 3))) == parallel_composition((1, 3))
    g = cycle_graph(5)
    assert simplify(g) == g  # fixpoint on simple graphs
    assert simplify(simplify(double)) == simplify(double)


def test_delete_pendant():
    g = delete_pendant(path_graph(3), 0)
    assert g.s == 2 and g.n == 3
    with pytest.raises(InvalidSpecError):
        delete_pendant(path_graph(3), 1)  # degree 2
    with pytest.raises(InvalidSpecError):
        delete_pendant(path_graph(1), 0)  # only edge


def test_edge_subgraph_keeps_order():
    g = parallel_composition((2, 2))
    sub = edge_subgraph(g, [0, 1])
    assert sub.s == 2 and sub.n == 3


def test_bipartition():
    assert bipartition(cycle_graph(3)) is None
    color = bipartition(cycle_graph(6))
    assert color is not None
    g = cycle_graph(6)
    assert all(color[u] != color[w] for u, w in g.edges)
    # a parallel pair is an even cycle, hence bipartite
    assert bipartition(parallel_composition((1, 1))) is not None


def _random_multigraph(rng):
    """Components of 2..5 vertices, each a random spanning tree (so leaves
    give pendant vertices) plus random extra edges, parallel copies
    included; vertex labels and edge order are shuffled."""
    sizes = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    edges, start = [], 0
    for k in sizes:
        verts = labels[start : start + k]
        start += k
        for i in range(1, k):
            edges.append((verts[rng.randrange(i)], verts[i]))
        for _ in range(rng.randint(0, 3)):
            edges.append(tuple(rng.sample(verts, 2)))
        if rng.random() < 0.3:
            edges.append(rng.choice(edges))
    rng.shuffle(edges)
    return Multigraph(len(labels), edges)


def _brute_components(g):
    """Union-find components, and whether each has an odd cycle (no
    2-coloring of its vertices makes every edge bichromatic)."""
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, w in g.edges:
        parent[find(u)] = find(w)
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    out = {}
    for verts in groups.values():
        inner = [(u, w) for u, w in g.edges if u in verts]
        odd = not any(
            all(c[verts.index(u)] != c[verts.index(w)] for u, w in inner)
            for c in product((0, 1), repeat=len(verts))
        )
        out[frozenset(verts)] = odd
    return out


def test_traversals_match_brute_force_on_random_multigraphs():
    rng = random.Random(20261018)
    seen_parallel = seen_pendant = seen_split = seen_odd = seen_mixed = False
    for _ in range(300):
        g = _random_multigraph(rng)
        truth = _brute_components(g)
        comps = connected_components(g)
        assert {frozenset(c): None for c in comps}.keys() == truth.keys()
        assert sum(len(c) for c in comps) == g.n
        # discovery order: each component starts at its smallest vertex
        assert [c[0] for c in comps] == sorted(min(c) for c in comps)
        odd = sum(truth.values())
        assert graph_stats(g) == GraphStats(n=g.n, m=len(truth), gamma=odd)
        color = bipartition(g)
        if odd:
            assert color is None
        else:
            assert sorted(set(color)) in ([0], [0, 1])
            assert all(color[u] != color[w] for u, w in g.edges)
        seen_parallel |= len(set(g.edges)) < g.s
        seen_pendant |= any(g.degree(v) == 1 for v in range(g.n))
        seen_split |= len(truth) > 1
        seen_odd |= odd > 0
        seen_mixed |= 0 < odd < len(truth)
    assert seen_parallel and seen_pendant and seen_split and seen_odd and seen_mixed


def test_ear_walks_shapes():
    # a path is one open walk between its leaves
    (walk,) = ear_walks(path_graph(3))
    assert walk[0] == (0, 1, 2) and not walk[3]
    # r >= 3 parallel composition: one open walk per path
    walks = ear_walks(parallel_composition((2, 2, 2)))
    assert len(walks) == 3
    assert all(not closed for _, _, _, closed in walks)
    # a cycle is a single closed walk
    (walk,) = ear_walks(cycle_graph(5))
    assert walk[3] and len(walk[0]) == 5
    # star: one single-edge walk per leaf
    assert len(ear_walks(star_graph(3))) == 3


def test_complete_multipartite_edge_count():
    g = complete_multipartite(1, 1, 2)
    assert g.s == 5  # C(4,2) - 1: the size-2 part contributes no edge
    assert complete_bipartite(2, 3).s == 6
