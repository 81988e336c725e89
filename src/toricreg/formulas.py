"""Closed-form regularity values and checkers for the structural bounds.

Every closed form carries its applicability guard and returns
NOT_APPLICABLE instead of extrapolating: the harness exists to surface
disagreement, not to paper over it.  The bound checkers recompute the
regularity of derived graphs by counting their residue tables
(``regularity_count``), so each report row checks the instance's value,
whichever route gave it, against the tables of other graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EdgeExistsError,
    InvalidSpecError,
    InvalidWitnessError,
    NotApplicableError,
)
from .graph import (
    Multigraph,
    ParallelSpec,
    bipartition,
    block_edge_partition,
    blocks,
    delete_pendant,
    edge_subgraph,
    graph_stats,
    identify_vertices,
    parallel_composition,
    path_graph,
    simplify,
)
from .ideal import regularity_count


@dataclass(frozen=True)
class FormulaResult:
    """A closed-form value, or NOT_APPLICABLE with the reason."""

    value: int | None
    rule: str
    reason: str | None = None

    @property
    def applicable(self) -> bool:
        return self.value is not None


def _na(rule: str, reason: str) -> FormulaResult:
    return FormulaResult(value=None, rule=rule, reason=reason)


def reg_parallel(lengths, q: int) -> int:
    """Regularity of a parallel composition of paths, by parity class.

    With l odd lengths among r, scaled by (q-2):
      l = 0:          sum(k/2) - 1
      l = r:          sum(floor(k/2))
      l = 1, r = 2:   k_1 + k_2 - 1
      l = 1, r > 2:   k_odd + sum_even(k/2) - 1
      l > 1, r = l+1: sum_odd(floor(k/2)) + k_even
      l > 1, r > l+1: sum_odd(floor(k/2)) + sum_even(k/2)
    """
    spec = ParallelSpec.coerce(lengths)
    if q < 2:
        raise InvalidSpecError("q must be >= 2")
    ks = spec.lengths
    r = spec.r
    odd = [k for k in ks if k % 2]
    even = [k for k in ks if k % 2 == 0]
    l = len(odd)
    if l == 0:
        scale = sum(k // 2 for k in ks) - 1
    elif l == r:
        scale = sum(k // 2 for k in ks)
    elif l == 1 and r == 2:
        scale = ks[0] + ks[1] - 1
    elif l == 1:
        scale = odd[0] + sum(k // 2 for k in even) - 1
    elif r == l + 1:
        scale = sum(k // 2 for k in odd) + even[0]
    else:
        scale = sum(k // 2 for k in odd) + sum(k // 2 for k in even)
    return scale * (q - 2)


def parallel_rule(lengths) -> str:
    spec = ParallelSpec.coerce(lengths)
    l = sum(1 for k in spec.lengths if k % 2)
    return f"parallel[l={l},r={spec.r}]"


def reg_closed_form(kind: str, params, q: int) -> FormulaResult:
    """Dispatch to the known closed forms by family tag.

    torus/tree/path/star/odd cycle: (s-1)(q-2); complete graphs (n >= 4):
    ceil((n-1)(q-2)/2); complete bipartite: (max(a,b)-1)(q-2); even
    cycles of length 2k: (k-1)(q-2); complete multipartite (r >= 3
    parts): max of the part bounds and the complete-graph bound.
    """
    if q < 2:
        raise InvalidSpecError("q must be >= 2")
    params = tuple(params)
    qm2 = q - 2

    if kind in ("torus", "tree", "path"):
        (s,) = params
        if s < 1:
            return _na("torus", "needs at least one edge")
        return FormulaResult((s - 1) * qm2, "torus")
    if kind == "star":
        (leaves,) = params
        return FormulaResult((leaves - 1) * qm2, "torus")
    if kind == "cycle":
        (length,) = params
        if length < 3:
            return _na("cycle", "cycle length must be >= 3")
        if length % 2:
            return FormulaResult((length - 1) * qm2, "torus")
        return FormulaResult((length // 2 - 1) * qm2, "even_cycle")
    if kind == "complete":
        (n,) = params
        if n < 2:
            return _na("complete", "needs n >= 2")
        if n == 2:
            return FormulaResult(0, "torus")
        if n == 3:
            # at n = 3 the complete-graph row reads q-2, but the graph is
            # an odd cycle, forcing the torus value 2(q-2); the row is
            # reported informationally only
            return _na(
                "complete",
                f"n=3 is an odd cycle: torus value {2 * qm2} governs; "
                f"complete-graph row would read {qm2}",
            )
        return FormulaResult(-((n - 1) * qm2 // -2), "complete")
    if kind == "biclique":
        a, b = params
        if a < 1 or b < 1:
            return _na("biclique", "part sizes must be >= 1")
        return FormulaResult((max(a, b) - 1) * qm2, "biclique")
    if kind == "multipartite":
        sizes = params
        if len(sizes) < 2 or any(a < 1 for a in sizes):
            return _na("multipartite", "need >= 2 parts of size >= 1")
        if len(sizes) == 2:
            return FormulaResult((max(sizes) - 1) * qm2, "biclique")
        n = sum(sizes)
        bound = -((n - 1) * qm2 // -2)
        return FormulaResult(
            max([a * qm2 for a in sizes] + [bound]), "multipartite"
        )
    if kind == "parallel":
        try:
            value = reg_parallel(params, q)
        except InvalidSpecError as exc:
            return _na("parallel", str(exc))
        return FormulaResult(value, parallel_rule(params))
    return _na(kind, f"no closed form for {kind!r}")


def block_additive_reg(g: Multigraph, q: int, block_regs) -> int:
    """Sum of per-block regularities plus (#blocks - 1)(q-2).

    Applies to simple bipartite graphs without isolated vertices.
    """
    if len(set(g.edges)) != g.s:
        raise NotApplicableError("graph has parallel edges; simplify first")
    if bipartition(g) is None:
        raise NotApplicableError("graph is not bipartite")
    parts = block_edge_partition(g)
    block_regs = list(block_regs)
    if len(block_regs) != len(parts):
        raise ValueError(
            f"got {len(block_regs)} block values for {len(parts)} blocks"
        )
    return sum(block_regs) + (len(parts) - 1) * (q - 2)


def detect_closed_form(g: Multigraph, q: int) -> FormulaResult:
    """Structural closed form for a bare graph: trees, cycles, and
    bipartite cactus graphs (blocks all edges or even cycles).  Parallel
    edges are dropped first; the invariants do not see them."""
    stats = graph_stats(g)
    if stats.m > 1:
        return _na("detect", "disconnected: no closed form asserted")
    gs = simplify(g)
    if gs.s == gs.n - 1:
        return FormulaResult((gs.s - 1) * (q - 2), "torus")
    if gs.s == gs.n and all(gs.degree(v) == 2 for v in range(gs.n)):
        return reg_closed_form("cycle", (gs.s,), q)
    if bipartition(gs) is not None:
        part_values = []
        for blk in blocks(gs):
            if blk.s == 1:
                part_values.append(0)
            elif blk.s == blk.n and all(blk.degree(v) == 2 for v in range(blk.n)):
                part_values.append((blk.s // 2 - 1) * (q - 2))
            else:
                return _na("detect", "a block is neither an edge nor a cycle")
        return FormulaResult(
            block_additive_reg(gs, q, part_values), "block_additive"
        )
    return _na("detect", "no closed form matched")


# -- structural bounds ----------------------------------------------------


@dataclass(frozen=True)
class PendantWitness:
    """Degree-1 vertex v: reg(G) = reg(G - v) + (q-2)."""

    vertex: int


@dataclass(frozen=True)
class ContractionWitness:
    """Non-adjacent pair: reg(G) >= reg(G with u, v identified)."""

    u: int
    v: int


@dataclass(frozen=True)
class CoverWitness:
    """Overlapping edge cover E = L u R: reg(G) <= reg(L) + reg(R)."""

    left: tuple
    right: tuple


@dataclass(frozen=True)
class IndependentSetWitness:
    """Independent set missing some edge: reg(G) >= |set| (q-2)."""

    vertices: tuple


@dataclass(frozen=True)
class BipartiteBoundWitness:
    """Connected bipartite G with parts (a, b): reg >= (max(a,b)-1)(q-2)."""


@dataclass(frozen=True)
class ParitySplitWitness:
    """Mixed-parity parallel composition: reg(G) equals the sum of the
    odd-class and even-class regularities plus (q-2)."""

    lengths: tuple


@dataclass(frozen=True)
class BoundRow:
    name: str
    lhs: int
    rhs: int
    relation: str
    satisfied: bool
    detail: str = ""


_RELATION_OPS = {
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
}


def _row(name, lhs, rhs, relation, detail=""):
    return BoundRow(
        name=name,
        lhs=lhs,
        rhs=rhs,
        relation=relation,
        satisfied=_RELATION_OPS[relation](lhs, rhs),
        detail=detail,
    )


def _class_reg(lengths, q):
    """Counted regularity of one parity class: a parallel composition
    when the class has >= 2 paths, the path itself when it has exactly one."""
    if len(lengths) == 1:
        h = path_graph(lengths[0])
    else:
        h = parallel_composition(lengths)
    return regularity_count(h, q).regularity


def verify_bounds(g: Multigraph, q: int, reg: int, witnesses):
    """Check each witnessed bound, recomputing the compared regularities
    of derived graphs with ``regularity_count``, which raises
    TooLargeError when the state cap refuses a table.  Returns one
    BoundRow per witness."""
    rows = []
    for w in witnesses:
        if isinstance(w, PendantWitness):
            try:
                reduced = delete_pendant(g, w.vertex)
            except InvalidSpecError as exc:
                raise InvalidWitnessError(f"pendant witness: {exc}") from exc
            sub = regularity_count(reduced, q).regularity
            rows.append(
                _row("pendant", reg, sub + (q - 2), "==", f"v={w.vertex}")
            )
        elif isinstance(w, ContractionWitness):
            try:
                merged = identify_vertices(g, w.u, w.v)
            except (InvalidSpecError, EdgeExistsError) as exc:
                raise InvalidWitnessError(f"contraction witness: {exc}") from exc
            sub = regularity_count(merged, q).regularity
            rows.append(
                _row("contraction", reg, sub, ">=", f"identify={w.u},{w.v}")
            )
        elif isinstance(w, CoverWitness):
            left, right = set(w.left), set(w.right)
            if left | right != set(range(g.s)):
                raise InvalidWitnessError("cover witness: edges not covered")
            if not (left & right):
                raise InvalidWitnessError("cover witness: empty intersection")
            r1 = regularity_count(edge_subgraph(g, sorted(left)), q).regularity
            r2 = regularity_count(edge_subgraph(g, sorted(right)), q).regularity
            rows.append(
                _row("cover", reg, r1 + r2, "<=", f"|L|={len(left)},|R|={len(right)}")
            )
        elif isinstance(w, IndependentSetWitness):
            vs = set(w.vertices)
            if any(u in vs and v in vs for u, v in g.edges):
                raise InvalidWitnessError("independent-set witness: set not independent")
            if not any(u not in vs and v not in vs for u, v in g.edges):
                raise InvalidWitnessError(
                    "independent-set witness: no edge avoids the set"
                )
            rows.append(
                _row(
                    "independent_set",
                    reg,
                    len(vs) * (q - 2),
                    ">=",
                    f"r={len(vs)}",
                )
            )
        elif isinstance(w, BipartiteBoundWitness):
            stats = graph_stats(g)
            if stats.m != 1 or stats.gamma != 0:
                raise InvalidWitnessError(
                    "bipartite bound needs a connected bipartite graph"
                )
            color = bipartition(g)
            a = sum(1 for c in color if c == 0)
            b = g.n - a
            rows.append(
                _row(
                    "bipartite_bound",
                    reg,
                    (max(a, b) - 1) * (q - 2),
                    ">=",
                    f"parts={a},{b}",
                )
            )
        elif isinstance(w, ParitySplitWitness):
            spec = ParallelSpec.coerce(w.lengths)
            odd = tuple(k for k in spec.lengths if k % 2)
            even = tuple(k for k in spec.lengths if k % 2 == 0)
            if not odd or not even:
                raise InvalidWitnessError(
                    "parity-split witness needs mixed parities"
                )
            r1 = _class_reg(odd, q)
            r2 = _class_reg(even, q)
            rows.append(
                _row(
                    "parity_split",
                    reg,
                    r1 + r2 + (q - 2),
                    "==",
                    f"odd={odd},even={even}",
                )
            )
        else:
            raise InvalidWitnessError(f"unknown witness {w!r}")
    return rows
