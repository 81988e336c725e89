"""Multigraphs with an ordered edge list.

The edge list order matters: edge i is identified with the polynomial
variable t_{i+1}, and every downstream object (points, monomials,
residues) is a coordinate vector in this order.  Constructors therefore
document and freeze their ordering.

Graphs are undirected, loop-free, and may have parallel edges.  Isolated
vertices are rejected at construction: every invariant computed here
quantifies over vertices with incident edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import EdgeExistsError, InvalidSpecError


class Multigraph:
    """Immutable multigraph on vertices 0..n-1 with an ordered edge list."""

    __slots__ = ("n", "edges", "_incident")

    def __init__(self, n: int, edges):
        norm = []
        for e in edges:
            u, w = e
            if u == w:
                raise InvalidSpecError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= w < n):
                raise InvalidSpecError(f"edge {e} out of range for n={n}")
            norm.append((u, w) if u < w else (w, u))
        if not norm:
            raise InvalidSpecError("a graph needs at least one edge")
        incident = [[] for _ in range(n)]
        for i, (u, w) in enumerate(norm):
            incident[u].append(i)
            incident[w].append(i)
        for v in range(n):
            if not incident[v]:
                raise InvalidSpecError(f"vertex {v} is isolated")
        self.n = n
        self.edges = tuple(norm)
        self._incident = tuple(tuple(ids) for ids in incident)

    @property
    def s(self) -> int:
        """Number of edges (= number of variables)."""
        return len(self.edges)

    def edges_at(self, v: int):
        """Indices of the edges incident to v; each parallel copy has its
        own index."""
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def is_edge(self, u: int, w: int) -> bool:
        pair = (u, w) if u < w else (w, u)
        return pair in self.edges

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and other.n == self.n
            and other.edges == self.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={list(self.edges)})"


@dataclass(frozen=True)
class ParallelSpec:
    """Lengths k_1..k_r of the paths in a parallel composition."""

    lengths: tuple

    def __post_init__(self):
        lens = tuple(int(k) for k in self.lengths)
        object.__setattr__(self, "lengths", lens)
        if len(lens) < 2:
            raise InvalidSpecError("a parallel composition needs r >= 2 paths")
        if any(k < 1 for k in lens):
            raise InvalidSpecError("path lengths must be >= 1")

    @property
    def r(self) -> int:
        return len(self.lengths)

    @property
    def size(self) -> int:
        """Total number of edges."""
        return sum(self.lengths)

    @property
    def offsets(self) -> tuple:
        """0-based index of the first edge of each path."""
        out, acc = [], 0
        for k in self.lengths:
            out.append(acc)
            acc += k
        return tuple(out)

    @classmethod
    def coerce(cls, obj) -> "ParallelSpec":
        if isinstance(obj, ParallelSpec):
            return obj
        return cls(tuple(obj))


@dataclass(frozen=True)
class GraphStats:
    """Vertex count, component count, and non-bipartite component count."""

    n: int
    m: int
    gamma: int


def parallel_composition(spec) -> Multigraph:
    """Join r paths at both endpoints.

    Terminal vertices are 0 and 1; the interior vertices of path i come
    next in order of traversal.  The edges of path i occupy indices
    offsets[i]..offsets[i]+k_i-1, ordered from terminal 0 to terminal 1.
    """
    spec = ParallelSpec.coerce(spec)
    v, w = 0, 1
    next_vertex = 2
    edges = []
    for k in spec.lengths:
        chain = [v] + list(range(next_vertex, next_vertex + k - 1)) + [w]
        next_vertex += k - 1
        edges.extend((chain[j], chain[j + 1]) for j in range(k))
    return Multigraph(next_vertex, edges)


def path_graph(k: int) -> Multigraph:
    """Path with k edges on vertices 0..k."""
    if k < 1:
        raise InvalidSpecError("a path needs length >= 1")
    return Multigraph(k + 1, [(i, i + 1) for i in range(k)])


def cycle_graph(k: int) -> Multigraph:
    if k < 3:
        raise InvalidSpecError("a cycle needs length >= 3")
    edges = sorted((min(i, (i + 1) % k), max(i, (i + 1) % k)) for i in range(k))
    return Multigraph(k, edges)


def complete_graph(n: int) -> Multigraph:
    if n < 2:
        raise InvalidSpecError("a complete graph needs n >= 2")
    return Multigraph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Multigraph:
    if a < 1 or b < 1:
        raise InvalidSpecError("part sizes must be >= 1")
    edges = sorted((u, a + w) for u in range(a) for w in range(b))
    return Multigraph(a + b, edges)


def complete_multipartite(*sizes: int) -> Multigraph:
    if len(sizes) < 2 or any(a < 1 for a in sizes):
        raise InvalidSpecError("need >= 2 parts of size >= 1")
    bounds, acc = [], 0
    part = {}
    for idx, a in enumerate(sizes):
        for v in range(acc, acc + a):
            part[v] = idx
        acc += a
    n = acc
    edges = sorted(
        (u, w) for u, w in combinations(range(n), 2) if part[u] != part[w]
    )
    if not edges:
        raise InvalidSpecError("complete multipartite graph has no edges")
    return Multigraph(n, edges)


def star_graph(leaves: int) -> Multigraph:
    if leaves < 1:
        raise InvalidSpecError("a star needs >= 1 leaf")
    return Multigraph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "biclique": complete_bipartite,
    "multipartite": complete_multipartite,
    "parallel": lambda *lengths: parallel_composition(lengths),
    "star": star_graph,
}


def family(kind: str, params) -> Multigraph:
    """Construct a named graph family, keyed by the spec grammar's names;
    vertex/edge order is deterministic (see each constructor)."""
    try:
        builder = FAMILIES[kind]
    except KeyError:
        raise InvalidSpecError(f"unknown family {kind!r}") from None
    try:
        return builder(*params)
    except TypeError:
        raise InvalidSpecError(
            f"bad parameters {tuple(params)!r} for {kind}"
        ) from None


def _traverse(g: Multigraph):
    """One depth-first walk of every component.

    Returns (components, color, odd): the vertex lists in discovery
    order, a 0/1 colour per vertex that alternates along the search
    tree, and for each component whether some edge joins two vertices
    of the same colour (an odd cycle).  Components without such an edge
    are properly 2-coloured.
    """
    color = [-1] * g.n
    comps, odd = [], []
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        comp, stack = [root], [root]
        clash = False
        while stack:
            v = stack.pop()
            for eid in g.edges_at(v):
                u, w = g.edges[eid]
                nxt = w if v == u else u
                if color[nxt] == -1:
                    color[nxt] = 1 - color[v]
                    comp.append(nxt)
                    stack.append(nxt)
                elif color[nxt] == color[v]:
                    clash = True
        comps.append(comp)
        odd.append(clash)
    return comps, color, odd


def connected_components(g: Multigraph):
    """List of vertex lists, one per component, in discovery order."""
    return _traverse(g)[0]


def bipartition(g: Multigraph):
    """2-coloring as a list of 0/1, or None if some component is odd."""
    _, color, odd = _traverse(g)
    return None if any(odd) else color


def graph_stats(g: Multigraph) -> GraphStats:
    """Component count and number of non-bipartite components."""
    comps, _, odd = _traverse(g)
    return GraphStats(n=g.n, m=len(comps), gamma=sum(odd))


def identify_vertices(g: Multigraph, u: int, v: int) -> Multigraph:
    """Merge two non-adjacent vertices; edge count and order are preserved.

    The merged vertex takes the label min(u, v); labels above max(u, v)
    shift down by one.
    """
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise InvalidSpecError(f"bad vertex pair ({u}, {v})")
    if g.is_edge(u, v):
        raise EdgeExistsError(f"{{{u}, {v}}} is an edge; identification needs a non-edge")
    keep, drop = min(u, v), max(u, v)

    def relabel(x):
        if x == drop:
            return keep
        return x - 1 if x > drop else x

    return Multigraph(g.n - 1, [(relabel(a), relabel(b)) for a, b in g.edges])


def delete_pendant(g: Multigraph, v: int) -> Multigraph:
    """Remove a degree-1 vertex and its edge; the neighbour must keep
    positive degree and the graph must have more than one edge."""
    if g.degree(v) != 1:
        raise InvalidSpecError(f"vertex {v} has degree {g.degree(v)}, not 1")
    if g.s <= 1:
        raise InvalidSpecError("cannot remove the only edge")
    (eid,) = g.edges_at(v)
    a, b = g.edges[eid]
    mate = b if v == a else a
    if g.degree(mate) < 2:
        raise InvalidSpecError("removal would isolate the neighbour")

    def relabel(x):
        return x - 1 if x > v else x

    edges = [
        (relabel(a), relabel(b)) for i, (a, b) in enumerate(g.edges) if i != eid
    ]
    return Multigraph(g.n - 1, edges)


def simplify(g: Multigraph) -> Multigraph:
    """Drop duplicate edges, keeping the lowest-indexed copy of each pair;
    relative edge order is preserved.  Idempotent."""
    seen = set()
    edges = []
    for e in g.edges:
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return Multigraph(g.n, edges)


def edge_subgraph(g: Multigraph, edge_ids) -> Multigraph:
    """Subgraph on the given edges, vertices renumbered in increasing order
    of their original labels; edges keep their relative order."""
    ids = sorted(edge_ids)
    if not ids:
        raise InvalidSpecError("a subgraph needs at least one edge")
    verts = sorted({v for i in ids for v in g.edges[i]})
    remap = {v: j for j, v in enumerate(verts)}
    return Multigraph(len(verts), [(remap[g.edges[i][0]], remap[g.edges[i][1]]) for i in ids])


def block_edge_partition(g: Multigraph):
    """Partition of edge indices into blocks (maximal 2-connected pieces or
    bridges).  A parallel pair is a cycle of length 2, hence one block:
    the traversal skips only the specific edge it entered on, so the
    second copy of a parallel pair is a genuine back edge.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    edge_stack = []
    blocks = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(g.edges_at(root)))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent_eid, it = stack[-1]
            advanced = False
            for eid in it:
                if eid == parent_eid:
                    continue
                a, b = g.edges[eid]
                w = b if v == a else a
                if disc[w] == -1:
                    edge_stack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(g.edges_at(w))))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                # u is a cut vertex (or the root): pop one block
                block = []
                while True:
                    eid = edge_stack.pop()
                    block.append(eid)
                    if eid == parent_eid:
                        break
                blocks.append(tuple(sorted(block)))
    return blocks


def blocks(g: Multigraph):
    """The blocks as standalone graphs, each inheriting its edges' order."""
    return [edge_subgraph(g, part) for part in block_edge_partition(g)]


def ear_walks(g: Multigraph):
    """Maximal chains of edges whose interior vertices have degree 2.

    Returns (edge sequence, start vertex, end vertex, closed) tuples.
    Open walks run between two vertices of degree != 2.  A closed walk
    starts and ends at the same such vertex (a cycle hanging off it).
    Pure cycle components, where every vertex has degree 2, are reported
    as closed walks with an arbitrary base vertex.
    """
    walks = []
    used = [False] * g.s
    anchors = [v for v in range(g.n) if g.degree(v) != 2]
    for a in anchors:
        for eid0 in g.edges_at(a):
            if used[eid0]:
                continue
            seq = [eid0]
            used[eid0] = True
            u, w = g.edges[eid0]
            cur = w if a == u else u
            while g.degree(cur) == 2 and cur != a:
                nxt_eid = next(e for e in g.edges_at(cur) if e != seq[-1])
                seq.append(nxt_eid)
                used[nxt_eid] = True
                x, y = g.edges[nxt_eid]
                cur = y if cur == x else x
            walks.append((tuple(seq), a, cur, cur == a))
    for eid0 in range(g.s):
        # leftover edges belong to components where every degree is 2
        if used[eid0]:
            continue
        a = g.edges[eid0][0]
        seq = [eid0]
        used[eid0] = True
        cur = g.edges[eid0][1]
        while cur != a:
            nxt_eid = next(e for e in g.edges_at(cur) if e != seq[-1])
            seq.append(nxt_eid)
            used[nxt_eid] = True
            x, y = g.edges[nxt_eid]
            cur = y if cur == x else x
        walks.append((tuple(seq), a, a, True))
    return walks
