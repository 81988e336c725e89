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
One generator, ``_reach_levels``, runs this dynamic program: it checks
the state cap once, seeds a numpy bool tensor of shape (q-1, ..., q-1)
and yields Reach(0), Reach(1), ... in turn, each shifted-copy union
being a pair of rolls per edge.  ``reachable_residues`` keeps levels
for membership queries until the first L with |Reach(L+1)| = |Reach(L)|.
From there Reach(d) = Reach(L) + (d-L)*chi_1: Reach(L+1) contains the
same-size Reach(L) + chi_1, so the two are equal, and the union over
edges carries the equality to every later degree.  ``regularity_sieve``
consumes the levels one at a time until the quotient by (I, t_edge)
vanishes.  For q = 2 residues live mod 1 and every table collapses to
the zero vector, so both callers answer without the generator.
"""

from __future__ import annotations

import numpy as np

from . import caps
from .errors import (
    CeilingExceededError,
    NotHomogeneousError,
    NotSameParityEarError,
    TooLargeError,
)
from .graph import Multigraph, ParallelSpec, ear_walks


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


class ReachTable:
    """Reach(0..d_max) as bool tensors indexed by residue vectors.  Only
    the levels up to the first stable one are stored; a later level is
    the last stored one shifted by a multiple of chi_1."""

    __slots__ = ("g", "q", "d_max", "_levels", "_trivial")

    def __init__(self, g: Multigraph, q: int, d_max: int, levels, trivial: bool):
        self.g = g
        self.q = q
        self.d_max = d_max
        self._levels = levels
        self._trivial = trivial

    def _stored(self, d: int):
        """The stored level that Reach(d) shifts, and how many chi_1."""
        last = len(self._levels) - 1
        return self._levels[min(d, last)], max(d - last, 0)

    def contains(self, d: int, residue) -> bool:
        """Whether some degree-d monomial has the given residue vector,
        read mod q-1.  Degree -1 is the empty set by convention."""
        if len(residue) != self.g.n:
            raise ValueError(f"residue has length {len(residue)}, expected {self.g.n}")
        if d < 0:
            return False
        if d > self.d_max:
            raise ValueError(f"table only reaches degree {self.d_max}")
        if self._trivial:
            return True  # every residue is 0 mod 1
        level, shift = self._stored(d)
        r = list(residue)
        for v in self.g.edges[0]:
            r[v] -= shift
        return bool(level[tuple(x % (self.q - 1) for x in r)])

    def level(self, d: int) -> frozenset:
        """Reach(d) as a set of residue tuples (small instances only)."""
        if d < 0:
            return frozenset()
        if d > self.d_max:
            raise ValueError(f"table only reaches degree {self.d_max}")
        if self._trivial:
            return frozenset({(0,) * self.g.n})
        level, shift = self._stored(d)
        idx = np.argwhere(level)
        for v in self.g.edges[0]:
            idx[:, v] = (idx[:, v] + shift) % (self.q - 1)
        return frozenset(tuple(int(x) for x in row) for row in idx)


def _reach_step(prev: np.ndarray, g: Multigraph) -> np.ndarray:
    out = np.zeros_like(prev)
    for u, w in g.edges:
        np.logical_or(out, np.roll(prev, (1, 1), axis=(u, w)), out=out)
    return out


def _reach_levels(g: Multigraph, q: int):
    """Reach(0), Reach(1), ... as bool tensors over residue vectors, for
    q > 2.  The state cap and the vertex limit are checked before the
    first level is yielded; each later level costs one `_reach_step`."""
    qm1 = q - 1
    limit = caps.state_cap()
    states = qm1**g.n
    if states > limit:
        raise TooLargeError(f"(q-1)**n = {states} exceeds the state cap {limit}")
    if g.n > 32:
        raise TooLargeError("residue tensors support at most 32 vertices")
    cur = np.zeros((qm1,) * g.n, dtype=bool)
    cur[(0,) * g.n] = True
    while True:
        yield cur
        cur = _reach_step(cur, g)


def reachable_residues(g: Multigraph, q: int, d_max: int) -> ReachTable:
    """Dynamic program for Reach(0..d_max), stepped only until the first
    level whose successor has the same size."""
    if q == 2:
        return ReachTable(g, q, d_max, None, trivial=True)
    levels = _reach_levels(g, q)
    stored = [next(levels)]
    for _, nxt in zip(range(d_max), levels):
        if np.count_nonzero(nxt) == np.count_nonzero(stored[-1]):
            break
        stored.append(nxt)
    return ReachTable(g, q, d_max, stored, trivial=False)


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
    Reach(d-1) through chi_edge) minus 1.  The search is capped at
    (s-1)(q-2) + 2; running past the cap means a bug or a counterexample
    and raises.
    """
    if not (0 <= edge < g.s):
        raise IndexError(f"edge index {edge} out of range")
    if q == 2:
        return 0
    levels = _reach_levels(g, q)
    prev = next(levels)
    u, w = g.edges[edge]
    ceiling = (g.s - 1) * (q - 2) + 2
    for d, cur in zip(range(1, ceiling + 1), levels):
        shifted = np.roll(prev, (1, 1), axis=(u, w))
        if not np.any(cur & ~shifted):
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
