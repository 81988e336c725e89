"""The projective point set parameterized by a multigraph over GF(q).

Every vertex gets a nonzero field value g**e_v; edge i = {u, w} gets the
coordinate g**(e_u + e_w).  All coordinates are nonzero, so the point
lies in the projective torus and we can fix the canonical representative
whose first coordinate is g**0.  Points are stored as exponent vectors,
in the smallest unsigned dtype that holds q-2: field arithmetic only
enters when a monomial is evaluated.  Enumeration is checked against
the closed-form size |X| of ``graph.degree_formula``.
"""

from __future__ import annotations

import numpy as np

from . import caps
from .errors import ConsistencyError, TooLargeError
from .field import Field, FieldElem
from .graph import Multigraph, degree_formula, graph_stats


class PointSet:
    """Canonical exponent vectors of the point set, deduplicated and in
    lexicographic order."""

    __slots__ = ("q", "s", "points")

    def __init__(self, q: int, s: int, points: np.ndarray):
        self.q = q
        self.s = s
        self.points = points

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def as_tuples(self):
        return [tuple(int(x) for x in row) for row in self.points]

    def __repr__(self):
        return f"PointSet(q={self.q}, s={self.s}, size={self.size})"


def _order_mod(pts: np.ndarray, gen: np.ndarray, qm1: int) -> int:
    """The order of gen modulo the subgroup pts: the least t >= 1 with
    t*gen in pts.  Those t form a subgroup of Z/(q-1), so t divides q-1."""
    return next(t for t in range(1, qm1 + 1)
                if qm1 % t == 0 and (pts == t * gen % qm1).all(axis=1).any())


def enumerate_points(g: Multigraph, q: int) -> PointSet:
    """All points of the set parameterized by g, as canonical exponent
    vectors in lexicographic order.  In that form X is the subgroup of
    (Z/(q-1))**s generated by the vertex incidence rows, each shifted so
    its first entry is 0; it is grown one generator's cosets at a time.
    Every intermediate is a subgroup of X, so the state cap counts the
    |X|*s cells of the result, |X| from the degree formula."""
    qm1 = q - 1
    expected = degree_formula(graph_stats(g), q)
    limit = caps.state_cap()
    if expected * g.s > limit:
        raise TooLargeError(f"|X|*s = {caps.count_text(expected * g.s)} cells exceed "
                            f"the state cap {limit}")
    dtype = np.min_scalar_type(qm1 - 1)
    wide = np.min_scalar_type(2 * (qm1 - 1))  # holds a sum of two logs
    incidence = np.zeros((g.n, g.s), np.int64)
    np.add.at(incidence, (np.array(g.edges).T, np.arange(g.s)), 1)
    pts = np.zeros((1, g.s), dtype)
    for row in incidence:
        gen = (row - row[0]) % qm1
        t = _order_mod(pts, gen, qm1)
        steps = (np.arange(t, dtype=np.int64)[:, None] * gen % qm1).astype(wide)
        pts = ((steps[:, None, :] + pts) % qm1).astype(dtype).reshape(-1, g.s)
    pts = pts[np.lexsort(pts.T[::-1])]
    distinct = 1 + np.count_nonzero((pts[1:] != pts[:-1]).any(axis=1))
    if not distinct == pts.shape[0] == expected:
        raise ConsistencyError(f"{pts.shape[0]} coset rows hold {distinct} distinct "
                               f"points but the degree formula gives {expected}")
    return PointSet(q, g.s, pts)


def evaluate_monomial(point, a, field: Field) -> FieldElem:
    """Value of the monomial with exponent vector a at a torus point given
    by its exponent vector; never the field zero."""
    if len(point) != len(a):
        raise ValueError(
            f"length mismatch: point has {len(point)}, exponent has {len(a)}"
        )
    acc = 0
    for c, e in zip(point, a):
        acc += int(c) * int(e)
    return acc % (field.q - 1)
