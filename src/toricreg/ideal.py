"""Combinatorial membership machinery for the vanishing ideal.

A homogeneous binomial t^a - t^b lies in the ideal exactly when, at
every vertex, the incident exponents of a and b agree mod q-1.  The
per-vertex sums are the *residue vector* of a monomial; they are a
complete invariant, which turns monomial membership in (I, t_j) into
reachability of residues: t^a is in (I, t_j) iff some monomial t^b of
degree |a|-1 has residue residue(a) - chi_j, where chi_j bumps both
endpoints of edge j.

The dynamic program runs in the coordinates of X.  A degree-d residue r
is normalised to rho = r - d*chi_1, so Reach'(d), the normalised
residues of degree-d monomials, is {sum c_j delta_j : sum c_j <= d}
with delta_j = chi_j - chi_1; delta_1 = 0 pads every sum.  Every rho
obeys one linear relation per bipartite component and one for the
total degree, and ``_reduced_coordinates`` drops one vertex per
relation: the k = n-m+gamma-1 kept vertices determine the rest, and
their (q-1)**k residues hold the character group of X.
``ReachTable(g, q)`` stores every level in one tensor over them,
dist[rho] = the first d with rho in Reach'(d), by min-plus doubling:
for each distinct nonzero delta and t < T = (q-2).bit_length(), each
cell takes the least of itself and its neighbour 2^t*delta back plus
2^t.  The group is abelian, so one generator at a time is exact, in any
order of the generators and of the axes, and the T steps cover
0..2^T-1 >= q-2 copies of each, enough as (q-1)*delta = 0.  Cells start
at the sentinel inf = (s-1)(q-2)+2 and only take minima, so each ends
at the least of inf and its distance.  A group cell left at inf would
leave fewer than |X| cells below inf, which the degree-formula check
rejects; cells outside the group stay at inf, and no read counts them.
A roll that moves the innermost axis copies runs of under q-1 cells,
so each delta rolls in an axis order (a permutation of the kept
vertices) whose two innermost axes it leaves alone: every delta that
fits runs, and when none left fits, the tensor is transposed once, the
axes the remaining deltas move most often outermost (with k <= 2, or no
fit, they run as they are).  The table keeps the final order.  Every
read is a method of the one table: ``contains`` and ``level`` read
Reach'(d) as {dist <= d} at any degree, ``profile`` counts it, H(d) =
#{dist <= d}, up to the largest finite distance, the regularity (the
lattice picture of Renteria-Simis-Villarreal, Finite Fields Appl.
2011), and ``sieve`` reads an edge with one roll and unmasked passes.
For q = 2 every residue is 0 mod 1, so no vertex is kept and the tensor
has no axes: its one cell is the origin, at distance 0.  The table sees
q only through q-1: the module imports ``errors``, ``caps`` and ``graph``.
"""

from __future__ import annotations

import numpy as np

from . import caps
from .errors import (
    ConsistencyError,
    NotHomogeneousError,
    NotSameParityEarError,
    TooLargeError,
)
from .graph import (
    GraphStats,
    HilbertProfile,
    Multigraph,
    ParallelSpec,
    _traverse,
    degree_formula,
    ear_walks,
)


def residue_of(g: Multigraph, q: int, a) -> tuple:
    """Per-vertex incidence sums of the exponent vector, mod q-1.

    A parallel edge contributes at both its endpoints like any edge.
    """
    if len(a) != g.s:
        raise ValueError(f"exponent vector has length {len(a)}, expected {g.s}")
    qm1 = q - 1
    r = [0] * g.n
    for (u, w), e in zip(g.edges, a):
        r[u] += e
        r[w] += e
    return tuple(x % qm1 for x in r)


def binomial_in_ideal(g: Multigraph, q: int, a, b) -> bool:
    """Congruence membership test for the homogeneous binomial t^a - t^b."""
    if sum(a) != sum(b):
        raise NotHomogeneousError(
            f"degrees differ: |a| = {sum(a)}, |b| = {sum(b)}"
        )
    return residue_of(g, q, a) == residue_of(g, q, b)


def _reduced_coordinates(g: Multigraph, traversal, stats: GraphStats):
    """The kept vertices of a normalised residue and the lift back to
    every vertex, from the graph's ``_traverse`` and its stats.

    Each relation below holds for every delta_j, so for every rho, and
    has coefficient +-1 at the vertex it drops:
    - a bipartite component's two colour classes sum alike; drop the
      first vertex of the class opposite to the component's first vertex;
    - the total degree: every rho sums to 0, so drop the first vertex of
      the first non-bipartite component.  With none, the colour-0
      classes together sum to 0, so drop the first vertex of the first
      component.
    Returns (kept, lift) with rho = rho[kept] @ lift mod q-1.
    """
    comps, color, odd = traversal
    sign = 1 - 2 * np.array(color)
    relations = []
    for comp, is_odd in zip(comps, odd):
        if not is_odd:
            w = np.zeros(g.n, np.int64)
            w[comp] = sign[comp]
            relations.append((next(v for v in comp if color[v]), w))
    if any(odd):
        total = (next(c[0] for c, o in zip(comps, odd) if o), np.ones(g.n, np.int64))
        relations.append(total)  # reads the bipartite drops, so solved last
    else:
        relations.insert(0, (comps[0][0], (sign > 0).astype(np.int64)))
    dropped = {v for v, _ in relations}
    kept = [v for v in range(g.n) if v not in dropped]
    if len(kept) != stats.n - stats.m + stats.gamma - 1:
        raise ConsistencyError(f"{len(kept)} kept vertices, but n-m+gamma-1 = "
                               f"{stats.n - stats.m + stats.gamma - 1}")
    lift = np.zeros((len(kept), g.n), np.int64)
    lift[np.arange(len(kept)), kept] = 1
    for v, w in relations:
        lift[:, v] = -(lift @ w) * w[v]
    return kept, lift


def _deltas(g: Multigraph, kept) -> np.ndarray:
    """delta_j = chi_j - chi_1 on the kept axes, one row per edge."""
    chi = np.zeros((g.s, g.n), np.int64)
    chi[np.arange(g.s)[:, None], g.edges] = 1
    return (chi - chi[0])[:, kept]


def _roll(t: np.ndarray, shift) -> np.ndarray:
    """A fresh copy of t shifted by `shift`, one entry per axis; np.roll
    moves no axis whose entry is 0."""
    return np.roll(t, shift, axis=tuple(range(t.ndim))) if t.ndim else t.copy()


class ReachTable:
    """Reach(d) at every degree d, stored as one distance tensor over the
    kept axes: Reach'(d) is the cells with dist <= d, and every level
    from the largest finite distance on is the stable one.  The state cap
    and the axis limit are checked before the tensor is allocated, and
    the stable level after it is built; then it is made read-only.
    ``_kept`` lists the kept vertex of each axis in the order the layout
    of the doubling left (module docstring); the lift, which rebuilds the
    dropped coordinates from the kept ones, and the deltas follow it."""

    __slots__ = ("g", "q", "_dist", "_inf", "_size", "_kept", "_lift", "_deltas")

    def __init__(self, g: Multigraph, q: int):
        traversal = _traverse(g)
        comps, _, odd = traversal
        stats = GraphStats(n=g.n, m=len(comps), gamma=sum(odd))
        qm1 = q - 1
        # every residue is 0 mod 1, so q = 2 keeps no vertex
        k = stats.n - stats.m + stats.gamma - 1 if q > 2 else 0
        limit = caps.state_cap()
        states = qm1**k
        if states > limit:
            raise TooLargeError(f"(q-1)**k = {caps.count_text(states)} reduced residues "
                                f"exceed the state cap {limit}")
        if k > 32:
            raise TooLargeError("residue tensors support at most 32 kept vertices")
        if q > 2:
            kept, lift = _reduced_coordinates(g, traversal, stats)
        else:
            kept, lift = [], np.zeros((0, g.n), np.int64)
        deltas = _deltas(g, kept) % qm1
        inf = (g.s - 1) * (q - 2) + 2
        steps = (q - 2).bit_length()
        dist = np.full((qm1,) * k, inf, np.min_scalar_type(inf + (1 << steps >> 1)))
        dist[(0,) * k] = 0
        todo = [d for d in dict.fromkeys(map(tuple, deltas.tolist())) if any(d)]
        order = list(range(k))  # tensor axis i holds kept vertex kept[order[i]]
        while todo:
            # a shift that leaves the two innermost axes alone rolls runs of
            # (q-1)**2 cells; with k <= 2 every shift moves one of them
            now = [d for d in todo if not any(d[-2:])] if k > 2 else todo
            if not now:
                moves = [sum(map(bool, axis)) for axis in zip(*todo)]
                perm = sorted(range(k), key=moves.__getitem__, reverse=True)
                dist = dist.transpose(perm).copy()
                order = [order[i] for i in perm]
                todo = [tuple(d[i] for i in perm) for d in todo]
                # no order may spare two axes of every shift left
                now = [d for d in todo if not any(d[-2:])] or todo
            todo = [d for d in todo if d not in now]
            for delta in now:
                for t in range(steps):
                    shift = [x * (1 << t) % qm1 for x in delta]
                    if not any(shift):
                        break  # 2^t copies of delta are 0, and so are all longer runs
                    moved = _roll(dist, shift)
                    moved += 1 << t
                    np.minimum(dist, moved, out=dist)
                    del moved  # so the next copy is the only one beside dist
        # the cells below inf, the stable level, are the character group of X
        expected = degree_formula(stats, q)
        found = int(np.count_nonzero(dist < inf))
        if found != expected:
            raise ConsistencyError(f"the stable Reach level holds {found} residues "
                                   f"but the degree formula gives {expected}")
        dist.flags.writeable = False
        self.g = g
        self.q = q
        self._dist = dist
        self._inf = inf
        self._size = expected
        self._kept = [kept[i] for i in order]
        self._lift = lift[order]
        self._deltas = deltas[:, order]

    def contains(self, d: int, residue) -> bool:
        """Whether some degree-d monomial has the given residue vector,
        read mod q-1.  Degree -1 is the empty set by convention."""
        if len(residue) != self.g.n:
            raise ValueError(f"residue has length {len(residue)}, expected {self.g.n}")
        if d < 0:
            return False
        qm1 = self.q - 1
        rho = np.array([x % qm1 for x in residue], np.int64)
        rho[list(self.g.edges[0])] -= d % qm1
        rho %= qm1
        reduced = rho[self._kept]
        if not np.array_equal(reduced @ self._lift % qm1, rho):
            return False
        return bool(self._dist[tuple(reduced)] <= min(d, self._inf - 1))

    def level(self, d: int) -> frozenset:
        """Reach(d) as a set of residue tuples (small instances only)."""
        if d < 0:
            return frozenset()
        rows = np.argwhere(self._dist <= min(d, self._inf - 1)) @ self._lift
        rows[:, list(self.g.edges[0])] += d
        rows %= self.q - 1
        return frozenset(map(tuple, rows.tolist()))

    def profile(self) -> HilbertProfile:
        """H(0..reg), H(d) = #{dist <= d} = |Reach(d)|: one count per
        level, each over one bool mask, so the read holds at most one
        tensor's worth beside the table.  Asserts H(0) = 1, H strictly
        increasing and H(reg) = |X|."""
        values = [int(np.count_nonzero(self._dist == 0))]
        if values[0] != 1:
            raise ConsistencyError(f"H(0) = {values[0]}, expected 1")
        while values[-1] < self._size:
            h = int(np.count_nonzero(self._dist <= len(values)))
            if h <= values[-1]:
                raise ConsistencyError(f"Hilbert function not strictly increasing at degree "
                                       f"{len(values)}: {values[-1]} then {h}")
            values.append(h)
        if values[-1] != self._size:
            raise ConsistencyError(f"H({len(values) - 1}) = {values[-1]} passes |X| = {self._size}")
        return HilbertProfile(values=tuple(values), degree=self._size,
                              regularity=len(values) - 1)

    def sieve(self, edge: int) -> int:
        """The regularity read from the vanishing degree of the quotient
        by (I, t_edge), edge 0-based; see ``regularity_sieve``."""
        if not (0 <= edge < self.g.s):
            raise IndexError(f"edge index {edge} out of range")
        back = _roll(self._dist, self._deltas[edge])  # back[x] = dist[x - delta]
        # unmasked passes, one mask alive at a time: keep back where
        # back >= dist, then zero the cells off the group, where back = dist = inf
        back *= back >= self._dist
        back *= back != self._inf
        return int(back.max())


def monomial_in_ideal_plus_edge(reach: ReachTable, a, edge: int) -> bool:
    """Whether t^a lies in the ideal of the table's graph and q extended
    by the variable of `edge` (0-based).  True iff residue(a) - chi_edge
    is reachable in degree |a| - 1; for |a| = 0 the answer is False (the
    quotient is nonzero in degree 0)."""
    g = reach.g
    if not (0 <= edge < g.s):
        raise IndexError(f"edge index {edge} out of range")
    d = sum(a)
    if d == 0:
        return False
    qm1 = reach.q - 1
    r = list(residue_of(g, reach.q, a))
    u, w = g.edges[edge]
    r[u] = (r[u] - 1) % qm1
    r[w] = (r[w] - 1) % qm1
    return reach.contains(d - 1, r)


def regularity_sieve(g: Multigraph, q: int, edge: int = 0) -> int:
    """Regularity via the vanishing degree of the quotient by (I, t_edge).

    Returns D - 1 for the least D >= 1 such that every residue in Reach(D)
    steps back to Reach(D-1) through chi_edge.  x in Reach'(d) fails to
    step back through delta_edge iff dist[x] <= d <= dist[x - delta_edge],
    and the failing degrees are 1..D-1 (the quotient stays zero once it
    vanishes), so D - 1 is the largest dist[x - delta_edge] >= dist[x]
    over the group; x = 0 always qualifies.
    """
    if not (0 <= edge < g.s):
        raise IndexError(f"edge index {edge} out of range")
    return ReachTable(g, q).sieve(edge)


def regularity_count(g: Multigraph, q: int) -> HilbertProfile:
    """Hilbert profile and regularity counted from the residue table:
    H(d) = |Reach(d)|, and the regularity is the largest finite distance."""
    return ReachTable(g, q).profile()


def same_parity_ear_pair(g: Multigraph, i: int, j: int) -> bool:
    """Whether edges i and j sit in same-parity positions of a common
    maximal path with degree-2 interior vertices.

    Open chain between two branch vertices: the chain is the unique
    maximal path through its edges, so only the position parity matters.
    Closed chain hanging off a branch vertex: the maximal paths omit the
    first or the last edge of the loop, so the first/last pair shares no
    path; every other pair keeps the walk positions.  Pure cycle:
    omitting any edge gives a maximal path, so the pair qualifies
    whenever one of the two arcs between the edges is nonempty and the
    other has an odd number of edges.
    """
    if not (0 <= i < g.s and 0 <= j < g.s) or i == j:
        return False
    for seq, start, _, closed in ear_walks(g):
        if i not in seq or j not in seq:
            continue
        pi, pj = seq.index(i) + 1, seq.index(j) + 1
        length = len(seq)
        if not closed:
            return (pi - pj) % 2 == 0
        if g.degree(start) != 2:
            if {min(pi, pj), max(pi, pj)} == {1, length}:
                return False
            return (pi - pj) % 2 == 0
        d1 = abs(pi - pj) - 1
        d2 = length - 2 - d1
        return (d1 >= 1 and d2 % 2 == 1) or (d2 >= 1 and d1 % 2 == 1)
    return False


def ear_swap(g: Multigraph, a, i: int, j: int):
    """Swap exponents i and j (0-based edge indices), which must sit in
    same-parity positions of a common ear.  Membership verdicts are
    invariant under this swap applied to both sides of a binomial."""
    if len(a) != g.s:
        raise ValueError(f"exponent vector has length {len(a)}, expected {g.s}")
    if not same_parity_ear_pair(g, i, j):
        raise NotSameParityEarError(
            f"edges {i} and {j} are not in same-parity positions of a common ear"
        )
    out = list(a)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def parallel_fg_binomial(spec, i: int, j: int):
    """Exponent vectors of f_i*g_j and f_j*g_i for a parallel composition.

    f_i is the product of the odd-position edges of path i, g_i of the
    even-position ones.  Path indices are 0-based.  For same-parity
    lengths the two monomials form a homogeneous binomial in the ideal;
    for mixed parity their degrees differ by one.
    """
    spec = ParallelSpec.coerce(spec)
    if not (0 <= i < spec.r and 0 <= j < spec.r):
        raise IndexError(f"path index out of range for r = {spec.r}")
    if i == j:
        raise IndexError("path indices must differ")
    offs, lens = spec.offsets, spec.lengths

    def every_other(p, start):
        # f_p from the path's first edge (start 0), g_p from its second
        return range(offs[p] + start, offs[p] + lens[p], 2)

    def exponents(f, g):
        vec = [0] * spec.size
        for e in (*every_other(f, 0), *every_other(g, 1)):
            vec[e] += 1
        return tuple(vec)

    return exponents(i, j), exponents(j, i)
