"""Combinatorial membership machinery for the vanishing ideal.

A homogeneous binomial t^a - t^b lies in the ideal exactly when, at
every vertex, the incident exponents of a and b agree mod q-1.  The
per-vertex sums are the *residue vector* of a monomial; they are a
complete invariant, which turns monomial membership in (I, t_j) into
reachability of residues: t^a is in (I, t_j) iff some monomial t^b of
degree |a|-1 has residue residue(a) - chi_j, where chi_j bumps both
endpoints of edge j.

Reach(d), the set of residues of all degree-d monomials, satisfies
Reach(0) = {0} and Reach(d) = union over edges of Reach(d-1) + chi_j.
The dynamic program runs in the coordinates of X rather than of the
vertex torus.  A degree-d residue r is normalised to rho = r - d*chi_1,
so Reach'(d) = Reach(d) - d*chi_1 is the union of Reach'(d-1) shifted
by delta_j = chi_j - chi_1; delta_1 = 0, so the levels only grow.  Every
rho obeys one linear relation per bipartite component and one for the
total degree, and ``_reduced_coordinates`` drops one vertex per
relation: the k = n-m+gamma-1 kept vertices determine the rest, and
their (q-1)**k residues hold the character group of X.  One generator,
``_reach_levels``, runs the program: it checks the state cap on those
(q-1)**k cells once, seeds a bool tensor over the kept axes and yields
Reach'(0), Reach'(1), ... in turn, each level one roll per distinct
shift.  ``reachable_residues`` keeps levels for membership queries
until the first L with |Reach'(L+1)| = |Reach'(L)|; the two are then
equal, and so is every later level.  ``regularity_sieve`` consumes the
levels one at a time until the quotient by (I, t_edge) vanishes.  Both
check that the stable level holds |X| residues, as the degree formula
says it must.  For q = 2 residues live mod 1 and every table collapses
to the zero vector, so both callers answer without the generator.
"""

from __future__ import annotations

import numpy as np

from . import caps
from .errors import (
    CeilingExceededError,
    ConsistencyError,
    NotHomogeneousError,
    NotSameParityEarError,
    TooLargeError,
)
from .graph import Multigraph, ParallelSpec, _traverse, ear_walks, graph_stats
from .points import degree_formula


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


def _reduced_coordinates(g: Multigraph):
    """The kept vertices of a normalised residue, and the lift back to
    every vertex, from one traversal.

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
    comps, color, odd = _traverse(g)
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
    stats = graph_stats(g)
    if len(kept) != stats.n - stats.m + stats.gamma - 1:
        raise ConsistencyError(f"{len(kept)} kept vertices, but n-m+gamma-1 = "
                               f"{stats.n - stats.m + stats.gamma - 1}")
    lift = np.zeros((len(kept), g.n), np.int64)
    lift[np.arange(len(kept)), kept] = 1
    for v, w in relations:
        lift[:, v] = -(lift @ w) * w[v]
    return kept, lift


def _delta(g: Multigraph, kept, edge: int) -> np.ndarray:
    """delta_edge = chi_edge - chi_1 on the kept axes."""
    chi = np.zeros(g.n, np.int64)
    chi[list(g.edges[edge])] += 1
    chi[list(g.edges[0])] -= 1
    return chi[kept]


def _roll(t: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The tensor t shifted by delta, rolling only the axes it moves."""
    axes = np.flatnonzero(delta)
    if not axes.size:
        return t
    return np.roll(t, delta[axes], axis=tuple(axes))


def _check_stable(g: Multigraph, q: int, level: np.ndarray) -> None:
    """A stable level is the group the deltas generate, the character
    group of X: it must hold |X| residues."""
    expected = degree_formula(graph_stats(g), q)
    found = int(np.count_nonzero(level))
    if found != expected:
        raise ConsistencyError(f"the stable Reach level holds {found} residues "
                               f"but the degree formula gives {expected}")


class ReachTable:
    """Reach(0..d_max), stored as the normalised levels Reach'(d) over
    the kept axes up to the first stable one; every later level equals
    it.  The lift rebuilds the dropped coordinates from the kept ones."""

    __slots__ = ("g", "q", "d_max", "_levels", "_kept", "_lift")

    def __init__(self, g: Multigraph, q: int, d_max: int, levels, kept, lift):
        self.g = g
        self.q = q
        self.d_max = d_max
        self._levels = levels  # None at q = 2
        self._kept = kept
        self._lift = lift

    def _level_of(self, d: int) -> np.ndarray:
        return self._levels[min(d, len(self._levels) - 1)]

    def contains(self, d: int, residue) -> bool:
        """Whether some degree-d monomial has the given residue vector,
        read mod q-1.  Degree -1 is the empty set by convention."""
        if len(residue) != self.g.n:
            raise ValueError(f"residue has length {len(residue)}, expected {self.g.n}")
        if d < 0:
            return False
        if d > self.d_max:
            raise ValueError(f"table only reaches degree {self.d_max}")
        if self._levels is None:
            return True  # every residue is 0 mod 1
        qm1 = self.q - 1
        rho = np.array([x % qm1 for x in residue], np.int64)
        rho[list(self.g.edges[0])] -= d % qm1
        rho %= qm1
        reduced = rho[self._kept]
        if not np.array_equal(reduced @ self._lift % qm1, rho):
            return False
        return bool(self._level_of(d)[tuple(reduced)])

    def level(self, d: int) -> frozenset:
        """Reach(d) as a set of residue tuples (small instances only)."""
        if d < 0:
            return frozenset()
        if d > self.d_max:
            raise ValueError(f"table only reaches degree {self.d_max}")
        if self._levels is None:
            return frozenset({(0,) * self.g.n})
        rows = np.argwhere(self._level_of(d)) @ self._lift
        rows[:, list(self.g.edges[0])] += d
        rows %= self.q - 1
        return frozenset(map(tuple, rows.tolist()))


def _reach_levels(g: Multigraph, q: int, kept):
    """Reach'(0), Reach'(1), ... as bool tensors over the kept axes, for
    q > 2.  The state cap and the axis limit are checked before the
    first level is yielded; each later level rolls the previous one once
    per distinct nonzero shift delta_j."""
    qm1 = q - 1
    k = len(kept)
    limit = caps.state_cap()
    states = qm1**k
    if states > limit:
        raise TooLargeError(f"(q-1)**k = {states} reduced residues exceed the state cap {limit}")
    if k > 32:
        raise TooLargeError("residue tensors support at most 32 kept vertices")
    distinct = {tuple(_delta(g, kept, e) % qm1) for e in range(g.s)}
    shifts = [np.array(delta) for delta in distinct if any(delta)]
    cur = np.zeros((qm1,) * k, dtype=bool)
    cur[(0,) * k] = True
    while True:
        yield cur
        nxt = cur.copy()
        for delta in shifts:
            nxt |= _roll(cur, delta)
        cur = nxt


def reachable_residues(g: Multigraph, q: int, d_max: int) -> ReachTable:
    """Dynamic program for Reach(0..d_max), stepped only until the first
    level whose successor has the same size."""
    if q == 2:
        return ReachTable(g, q, d_max, None, None, None)
    kept, lift = _reduced_coordinates(g)
    levels = _reach_levels(g, q, kept)
    stored = [next(levels)]
    for _, nxt in zip(range(d_max), levels):
        if np.count_nonzero(nxt) == np.count_nonzero(stored[-1]):
            _check_stable(g, q, nxt)
            break
        stored.append(nxt)
    return ReachTable(g, q, d_max, stored, kept, lift)


def monomial_in_ideal_plus_edge(
    g: Multigraph, q: int, a, edge: int, reach: ReachTable
) -> bool:
    """Whether t^a lies in the ideal extended by the variable of `edge`
    (0-based).  True iff residue(a) - chi_edge is reachable in degree
    |a| - 1; for |a| = 0 the answer is False (the quotient is nonzero in
    degree 0)."""
    if not (0 <= edge < g.s):
        raise IndexError(f"edge index {edge} out of range")
    d = sum(a)
    if d == 0:
        return False
    qm1 = q - 1
    r = list(residue_of(g, q, a))
    u, w = g.edges[edge]
    r[u] = (r[u] - 1) % qm1
    r[w] = (r[w] - 1) % qm1
    return reach.contains(d - 1, r)


def regularity_sieve(g: Multigraph, q: int, edge: int = 0) -> int:
    """Regularity via the vanishing degree of the quotient by (I, t_edge).

    Returns (min d >= 1 such that every residue in Reach(d) steps back to
    Reach(d-1) through chi_edge) minus 1; in normalised residues, every
    one in Reach'(d) steps back to Reach'(d-1) through delta_edge.  The
    search is capped at (s-1)(q-2) + 2; running past the cap means a bug
    or a counterexample and raises.
    """
    if not (0 <= edge < g.s):
        raise IndexError(f"edge index {edge} out of range")
    if q == 2:
        return 0
    kept, _ = _reduced_coordinates(g)
    levels = _reach_levels(g, q, kept)
    prev = next(levels)
    delta = _delta(g, kept, edge)
    ceiling = (g.s - 1) * (q - 2) + 2
    for d, cur in zip(range(1, ceiling + 1), levels):
        if not np.any(cur & ~_roll(prev, delta)):
            _check_stable(g, q, prev)
            return d - 1
        prev = cur
    raise CeilingExceededError(
        f"no vanishing degree found up to the ceiling {ceiling}"
    )


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
    s = spec.size
    offs = spec.offsets

    def f_exps(p):
        k = spec.lengths[p]
        return [offs[p] + 2 * t for t in range((k + 1) // 2)]

    def g_exps(p):
        k = spec.lengths[p]
        return [offs[p] + 1 + 2 * t for t in range(k // 2)]

    first = [0] * s
    for e in f_exps(i) + g_exps(j):
        first[e] += 1
    second = [0] * s
    for e in f_exps(j) + g_exps(i):
        second[e] += 1
    return tuple(first), tuple(second)
