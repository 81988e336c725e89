"""Verification harness: graph DSL, instance catalog, cross-check suite.

Every catalog instance is checked by each route of ``ROUTES`` (in order:
evaluation-matrix rank, residue sieve, residue count, closed form) plus a
degree cross-check (closed form vs brute-force enumeration), and
optionally a set of structural bound rows with auto-generated witnesses.
The routes are named once, in that table: the report, its CSV rows and
JSON keys, and the CLI's ``--method`` choices loop over it.  The sieve
runs on every edge and must give one value; the report keeps edge 1's.
Rank and count return whole Hilbert profiles, which must agree degree by
degree.  Routes that exceed the work caps are recorded as NOT_RUN,
closed forms outside their guard as NOT_APPLICABLE; agreement is judged
on the values that are present.  The bound rows compare the first value
in route order with the count profiles of derived graphs.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

from . import caps
from .errors import ParseError, TooLargeError
from .formulas import (
    BipartiteBoundWitness,
    ContractionWitness,
    CoverWitness,
    IndependentSetWitness,
    ParitySplitWitness,
    PendantWitness,
    detect_closed_form,
    reg_closed_form,
    verify_bounds,
)
from .graph import FAMILIES, Multigraph, family, graph_stats
from .hilbert import HilbertProfile, regularity_rank
from .ideal import ReachTable, regularity_sieve
from .points import degree_formula, enumerate_points

NOT_RUN = "NOT_RUN"
NOT_APPLICABLE = "NOT_APPLICABLE"

CSV_HEADER = "spec,q,method,value,degree_formula,degree_enum,agree,ms"


# -- graph spec DSL -------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    graph: Multigraph
    kind: str
    params: tuple = ()
    expect_reg: int | None = None
    qs: tuple | None = None


def parse_graph_spec(text: str) -> CatalogEntry:
    """Parse `name(i1,...,ik)` or `file:PATH` into a catalog entry whose
    label is the spec; `name` is a key of `graph.FAMILIES`.

    The JSON file format is {"n": int, "edges": [[u, w], ...]} with
    0-indexed vertices; the edge-list order defines the variables.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty graph spec")
    if text.startswith("file:"):
        path = text[len("file:"):]
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON in {path}: {exc}") from exc
        try:
            n, edges = payload["n"], [tuple(e) for e in payload["edges"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad graph file {path}: {exc}") from exc
        if not (type(n) is int and all(len(e) == 2 and all(type(x) is int for x in e)
                                       for e in edges)):
            raise ParseError(f"bad graph file {path}: n and both endpoints of every edge "
                             "must be integers")
        g = Multigraph(n, edges)
        return CatalogEntry(text, g, "graph")
    m = re.fullmatch(r"([a-z_]+)\(([^)]*)\)", text)
    if not m:
        # the end of the longest prefix that starts some `name(args)`, args without ')'
        pos = re.match(r"(?:[a-z_]+(?:\([^)]*\)?)?)?", text).end()
        raise ParseError(f"cannot parse {text!r} (unexpected input at position {pos})")
    name, arg_text = m.group(1), m.group(2)
    if name not in FAMILIES:
        raise ParseError(f"unknown constructor {name!r} at position 0")
    params = []
    pos = m.start(2)
    for raw in arg_text.split(","):
        tok = raw.strip()
        at = pos + len(raw) - len(raw.lstrip())
        pos += len(raw) + 1
        if not tok:
            raise ParseError(f"empty argument in {text!r} at position {at}")
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise ParseError(f"bad integer {tok!r} at position {at}")
        params.append(int(tok))
    return CatalogEntry(text, family(name, params), name, tuple(params))


# -- reports --------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """One (instance, q) check: each route's value and time in ms, keyed
    by route name in ``ROUTES`` order."""

    spec: str
    q: int
    values: dict
    formula_rule: str
    degree_formula: int | str
    degree_enum: int | str
    agree: bool
    ms: dict
    note: str = ""

    def csv_rows(self):
        return [
            [
                self.spec,
                str(self.q),
                method,
                str(value),
                caps.count_text(self.degree_formula),
                str(self.degree_enum),
                "true" if self.agree else "false",
                f"{self.ms[method]:.3f}",
            ]
            for method, value in self.values.items()
        ]

    def to_json_dict(self):
        """Flat JSON keys: each route's value by its name, each time as
        ``<route>_ms``.  A degree with more digits than Python writes is
        its ``caps.count_text`` string."""
        shown = caps.count_text(self.degree_formula)
        return {
            "spec": self.spec,
            "q": self.q,
            **self.values,
            "formula_rule": self.formula_rule,
            "degree_formula": self.degree_formula if shown.isdecimal() else shown,
            "degree_enum": self.degree_enum,
            "agree": self.agree,
            **{f"{name}_ms": ms for name, ms in self.ms.items()},
            "note": self.note,
        }


def _agreement(values, degree_formula, degree_enum) -> bool:
    present = [v for v in values if isinstance(v, int)]
    if any(a != b for a, b in zip(present, present[1:])):
        return False
    if isinstance(degree_enum, int) and degree_enum != degree_formula:
        return False
    return True


def _profile_split(profiles) -> str:
    """'' when every (route, HilbertProfile) pair gives the first one's
    H at every degree (H stays |X| past the regularity), else a note
    naming the first degree where one differs."""
    (first, a), *rest = profiles
    for name, b in rest:
        n = max(len(a.values), len(b.values))
        ha = a.values + (a.degree,) * (n - len(a.values))
        hb = b.values + (b.degree,) * (n - len(b.values))
        d = next((d for d in range(n) if ha[d] != hb[d]), None)
        if d is not None:
            return f"H({d}) is {ha[d]} by {first}, {hb[d]} by {name}"
    return ""


# -- catalog --------------------------------------------------------------


def default_catalog() -> list:
    """Catalog covering the parallel-composition sweep (r in {2, 3}, path
    lengths up to 5, at most 9 edges), one four-path instance for the last
    mixed-parity case, the closed-form families, small trees, a two-block
    cactus, and a disconnected graph.  Every instance the spec grammar
    can name is built by parsing its label."""
    specs = [
        f"parallel({','.join(map(str, ks))})"
        for r in (2, 3)
        for ks in combinations_with_replacement(range(1, 6), r)
        if sum(ks) <= 9
    ]
    specs.append("parallel(2,2,3,3)")
    specs += [f"cycle({k})" for k in (3, 4, 5, 6)]
    specs += ["biclique(2,2)", "biclique(2,3)", "complete(4)", "multipartite(1,1,2)"]
    specs += [f"path({k})" for k in range(1, 6)]
    specs += [f"star({k})" for k in (2, 3, 4)]
    entries = [parse_graph_spec(spec) for spec in specs]
    entries.append(
        CatalogEntry(
            "tree[0-1;1-2;1-3;3-4;3-5]",
            Multigraph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]),
            "graph",
        )
    )
    entries.append(
        CatalogEntry(
            "cactus[C4;C4]",
            Multigraph(
                7,
                [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)],
            ),
            "graph",
        )
    )
    entries.append(
        CatalogEntry(
            "disjoint-edges[2]", Multigraph(4, [(0, 1), (2, 3)]), "graph"
        )
    )
    return entries


def distinct_field_sizes(sizes, where: str) -> tuple:
    """`sizes` as a tuple; a ParseError names `where` and a size given twice."""
    for i, q in enumerate(sizes):
        if q in sizes[:i]:
            raise ParseError(f"{where}: field size {q} given twice")
    return tuple(sizes)


def load_catalog(path) -> list:
    """User catalog: JSON list of {"spec": str, "q": [ints]?, "expect_reg": int?}."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ParseError("catalog file must hold a JSON list")
    entries = []
    for item in payload:
        if not (isinstance(item, dict) and isinstance(item.get("spec"), str)):
            raise ParseError(f'catalog entry must be an object with a string "spec", got {item!r}')
        entry = parse_graph_spec(item["spec"])
        qs = item.get("q")
        where = f"catalog entry {item['spec']!r}: q"
        if qs is not None and not (isinstance(qs, list) and qs and all(type(q) is int for q in qs)):
            raise ParseError(f"{where} must be a nonempty list of integers, got {qs!r}")
        expect = item.get("expect_reg")
        if expect is not None and type(expect) is not int:
            raise ParseError(f"catalog expect_reg must be an integer, got {expect!r}")
        if qs is not None:
            qs = distinct_field_sizes(qs, where)
        entries.append(replace(entry, expect_reg=expect, qs=qs))
    return entries


# -- witnesses ------------------------------------------------------------


def auto_witnesses(g: Multigraph, kind: str = "graph", params=()):
    """Structural witnesses derivable from the graph itself: a pendant
    vertex, one contraction pair, one overlapping edge cover, one
    independent set missing an edge, the bipartition bound, and (for
    mixed-parity parallel compositions) the parity split."""
    ws = []
    for v in range(g.n):
        if g.degree(v) == 1 and g.s > 1:
            (eid,) = g.edges_at(v)
            a, b = g.edges[eid]
            mate = b if v == a else a
            if g.degree(mate) >= 2:
                ws.append(PendantWitness(v))
                break
    non_edge = next(
        (
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.is_edge(u, v)
        ),
        None,
    )
    if non_edge:
        ws.append(ContractionWitness(*non_edge))
    if g.s >= 2:
        mid = g.s // 2
        ws.append(CoverWitness(tuple(range(mid + 1)), tuple(range(mid, g.s))))
    eu, ew = g.edges[-1]
    chosen = []
    for v in range(g.n):
        if v in (eu, ew):
            continue
        if any(g.is_edge(c, v) for c in chosen):
            continue
        chosen.append(v)
    if chosen:
        ws.append(IndependentSetWitness(tuple(chosen)))
    stats = graph_stats(g)
    if stats.m == 1 and stats.gamma == 0:
        ws.append(BipartiteBoundWitness())
    if kind == "parallel" and params:
        if any(k % 2 for k in params) and any(k % 2 == 0 for k in params):
            ws.append(ParitySplitWitness(tuple(params)))
    return ws


# -- per-instance evaluation ----------------------------------------------


def _formula_for_entry(entry: CatalogEntry, q: int):
    # disconnected graphs of any family: detect_closed_form declines and
    # the rank method is the reference value
    if entry.kind == "graph" or graph_stats(entry.graph).m > 1:
        return detect_closed_form(entry.graph, q)
    return reg_closed_form(entry.kind, entry.params, q)


@dataclass(frozen=True)
class RouteResult:
    """One route's answer: its value (an int, or NOT_APPLICABLE), the
    closed form's rule, a note for the report, every value the route
    read that must equal it (the sieve reads one per edge), and the
    Hilbert profile it computed, if any (rank and count)."""

    value: int | str
    rule: str = ""
    note: str = ""
    reads: tuple = ()
    profile: HilbertProfile | None = None


def _rank_route(entry: CatalogEntry, q: int, points=None, edge=None,
                reach=None) -> RouteResult:
    # without points, regularity_rank checks its cap before it enumerates them
    profile = regularity_rank(entry.graph, q, points=points)
    return RouteResult(profile.regularity, profile=profile)


def _sieve_route(entry: CatalogEntry, q: int, points=None, edge=None,
                 reach=None) -> RouteResult:
    if edge is not None:
        return RouteResult(regularity_sieve(entry.graph, q, edge=edge))
    if reach is None:
        reach = ReachTable(entry.graph, q)
    values = tuple(reach.sieve(e) for e in range(entry.graph.s))
    split = next((e for e, v in enumerate(values) if v != values[0]), None)
    note = "" if split is None else f"sieve on edge {split + 1} gives {values[split]}"
    return RouteResult(values[0], note=note, reads=values)


def _count_route(entry: CatalogEntry, q: int, points=None, edge=None,
                 reach=None) -> RouteResult:
    if reach is None:
        reach = ReachTable(entry.graph, q)
    profile = reach.profile()
    return RouteResult(profile.regularity, profile=profile)


def _formula_route(entry: CatalogEntry, q: int, points=None, edge=None,
                   reach=None) -> RouteResult:
    fr = _formula_for_entry(entry, q)
    if fr.applicable:
        return RouteResult(fr.value, fr.rule)
    return RouteResult(NOT_APPLICABLE, fr.rule, fr.reason or "")


# route name -> route(entry, q, points=None, edge=None, reach=None) ->
# RouteResult.  A route raises TooLargeError when a cap refuses it.  Rank
# takes the enumerated points when it has them; sieve and count read the
# residue table `reach`, and build their own when given None.  The sieve
# reads only `edge` when given one (0-based), every edge otherwise.  Each
# body looks up what it calls in this module when it runs, so a patched
# name takes effect.
ROUTES = {"rank": _rank_route, "sieve": _sieve_route, "count": _count_route,
          "formula": _formula_route}


def evaluate_entry(entry: CatalogEntry, q: int, with_bounds: bool = True) -> tuple:
    """Run every route on one (instance, q) pair.  The points and the
    residue table are built once, each under its cap, and shared by the
    routes that read them; a route's ms leaves out their build.  Returns
    the report and the list of (bound row) results."""
    g = entry.graph
    deg_formula = degree_formula(graph_stats(g), q)

    ps = None
    try:
        ps = enumerate_points(g, q)
        deg_enum = ps.size
    except TooLargeError:
        deg_enum = NOT_RUN
    try:
        reach = ReachTable(g, q)
    except TooLargeError:
        reach = None

    results, ms = {}, {}
    for name, route in ROUTES.items():
        t0 = time.perf_counter()
        try:
            results[name] = route(entry, q, points=ps, reach=reach)
        except TooLargeError:
            results[name] = RouteResult(NOT_RUN)
        ms[name] = (time.perf_counter() - t0) * 1000.0

    values = {name: r.value for name, r in results.items()}
    checked = [v for r in results.values() for v in (r.value, *r.reads)]
    notes = [r.note for r in results.values()]
    if entry.expect_reg is not None:
        checked.append(entry.expect_reg)
        notes.append(f"expected reg {entry.expect_reg}")
    profiles = [(name, r.profile) for name, r in results.items() if r.profile is not None]
    split = _profile_split(profiles) if profiles else ""
    notes.append(split)
    report = RegularityReport(
        spec=entry.label,
        q=q,
        values=values,
        formula_rule="".join(r.rule for r in results.values()),  # only formula has one
        degree_formula=deg_formula,
        degree_enum=deg_enum,
        agree=_agreement(checked, deg_formula, deg_enum) and not split,
        ms=ms,
        note=" ".join(note for note in notes if note),
    )

    reg = next((v for v in values.values() if isinstance(v, int)), None)
    bound_rows = []
    if with_bounds and reg is not None:
        for w in auto_witnesses(g, entry.kind, entry.params):
            try:
                rows = verify_bounds(g, q, reg, [w])
            except TooLargeError:
                continue
            bound_rows.extend(rows)
    return report, bound_rows


def _evaluate_job(args):
    entry, q, with_bounds = args
    try:
        return evaluate_entry(entry, q, with_bounds=with_bounds)
    except Exception as exc:  # record, never abort the sweep
        report = RegularityReport(
            spec=entry.label,
            q=q,
            values=dict.fromkeys(ROUTES, NOT_RUN),
            formula_rule="error",
            degree_formula=NOT_RUN,
            degree_enum=NOT_RUN,
            agree=False,
            ms=dict.fromkeys(ROUTES, 0.0),
            note=f"error: {exc}",
        )
        return report, []


@dataclass
class SuiteResult:
    reports: list
    bound_rows: list  # (spec label, q, BoundRow)

    @property
    def ok(self) -> bool:
        return all(r.agree for r in self.reports) and all(
            row.satisfied for _, _, row in self.bound_rows
        )


def verify_suite(
    entries=None,
    q_list=(3, 4, 5),
    jobs: int = 1,
    with_bounds: bool = True,
) -> SuiteResult:
    """Cross-check every catalog instance at every q.  Jobs fan out to a
    process pool of at most min(jobs, work items, CPUs) workers; results
    are merged in sorted (spec, q) order either way."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if entries is None:
        entries = default_catalog()
    work = []
    for entry in entries:
        for q in entry.qs or q_list:
            work.append((entry, q, with_bounds))
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        # imported here: multiprocessing is a large share of a cold start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_evaluate_job, work))
    else:
        outcomes = [_evaluate_job(args) for args in work]
    keyed = sorted(
        zip(work, outcomes), key=lambda pair: (pair[0][0].label, pair[0][1])
    )
    reports = []
    bound_rows = []
    for (entry, q, *_), (report, rows) in keyed:
        reports.append(report)
        bound_rows.extend((entry.label, q, row) for row in rows)
    return SuiteResult(reports=reports, bound_rows=bound_rows)


# -- serialisation ---------------------------------------------------------


def write_csv(reports, fh):
    import csv as _csv

    writer = _csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for report in reports:
        writer.writerows(report.csv_rows())


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
