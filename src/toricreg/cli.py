"""Command-line interface.

Subcommands: reg, degree, hilbert, member, show, verify.  `reg` and
`verify` run the routes of ``harness.ROUTES``, and `reg --method` takes
one route name or `all`; `hilbert --method` takes `rank` or `count`,
the two routes that compute the whole Hilbert function.  Monomials on
the command line are comma-separated exponent lists in edge order; the
`show` command prints the edge numbering so exponents and --edge flags
(1-based, matching the variable names t_1..t_s) can be addressed
unambiguously.

Exit codes: 0 on success and agreement, 1 on a verification mismatch,
2 on invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from itertools import chain, islice, repeat

from . import caps
from .errors import ConsistencyError, ParseError, TooLargeError
from .field import Field, prime_power
from .graph import graph_stats
from .harness import (
    NOT_APPLICABLE,
    ROUTES,
    default_catalog,
    distinct_field_sizes,
    evaluate_entry,
    load_catalog,
    parse_graph_spec,
    reports_to_json,
    verify_suite,
    write_csv,
)
from .hilbert import _hilbert_levels, regularity_rank
from .ideal import (
    ReachTable,
    binomial_in_ideal,
    monomial_in_ideal_plus_edge,
    regularity_count,
)
from .points import degree_formula, enumerate_points


def _parse_exponents(text: str, s: int):
    parts = [tok.strip() for tok in text.split(",")]
    try:
        vec = tuple(int(tok) for tok in parts)
    except ValueError:
        raise ParseError(f"bad exponent list {text!r}") from None
    if len(vec) != s:
        raise ParseError(f"expected {s} exponents, got {len(vec)}")
    if any(e < 0 for e in vec):
        raise ParseError("exponents must be nonnegative")
    return vec


def _cmd_show(args) -> int:
    parsed = parse_graph_spec(args.spec)
    g = parsed.graph
    stats = graph_stats(g)
    print(f"{parsed.label}: {g.n} vertices, {g.s} edges")
    print(f"components: {stats.m}, non-bipartite: {stats.gamma}")
    for i, (u, w) in enumerate(g.edges):
        print(f"  t_{i + 1} = {{{u}, {w}}}")
    return 0


def _cmd_reg(args) -> int:
    entry = parse_graph_spec(args.spec)
    g = entry.graph
    if args.edge is not None and args.method != "sieve":
        raise ParseError("--edge applies only to --method sieve")
    if args.edge is not None and not (1 <= args.edge <= g.s):
        raise ParseError(f"edge index must be in 1..{g.s}")
    if args.method == "all":
        report, _ = evaluate_entry(entry, args.q, with_bounds=False)
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2))
        else:
            print(f"spec: {report.spec}  q={report.q}")
            print(
                f"degree: {caps.count_text(report.degree_formula)} (formula), "
                f"{report.degree_enum} (enumerated)"
            )
            for name, value in report.values.items():
                shown = (f"[{report.formula_rule}]" if name == "formula"
                         else f"({report.ms[name]:.1f} ms)")
                print(f"{name + ':':9s}{value}  {shown}")
            print(f"agreement: {'true' if report.agree else 'false'}")
        return 0 if report.agree else 1
    edge = args.edge - 1 if args.edge is not None else 0
    t0 = time.perf_counter()
    result = ROUTES[args.method](entry, args.q, edge=edge)
    ms = (time.perf_counter() - t0) * 1000.0
    reason = {"reason": result.note} if result.value == NOT_APPLICABLE else {}
    if args.json:
        print(json.dumps({"spec": entry.label, "q": args.q, "method": args.method,
                          "value": result.value, **reason, "ms": ms}))
    elif reason:
        print(f"{args.method}: {NOT_APPLICABLE} ({result.note})")
    else:
        print(result.value)
    return 0


def _cmd_degree(args) -> int:
    parsed = parse_graph_spec(args.spec)
    value = degree_formula(graph_stats(parsed.graph), args.q)
    if not args.enumerate:
        print(caps.count_text(value))
        return 0
    enum = enumerate_points(parsed.graph, args.q).size
    print(f"formula {value}, enumerated {enum}")
    return 0 if enum == value else 1


def _cmd_hilbert(args) -> int:
    parsed = parse_graph_spec(args.spec)
    g = parsed.graph
    max_d = args.max_degree
    if max_d is not None and max_d < 0:
        raise ParseError("--max-degree must be nonnegative")
    if args.method == "count" or max_d is None:
        route = regularity_count if args.method == "count" else regularity_rank
        profile = route(g, args.q)
        values, target = profile.values, profile.degree
        if max_d is not None:
            # H stays |X| past the regularity
            values = islice(chain(values, repeat(target)), max_d + 1)
    else:
        ps = enumerate_points(g, args.q)
        values, target = islice(_hilbert_levels(ps, Field(args.q)), max_d + 1), ps.size
    reg = None
    for d, h in enumerate(values):
        print(f"H({d}) = {h}")
        if h == target and reg is None:
            reg = d
    if reg is not None:
        print(f"regularity: {reg}  (degree {target})")
    else:
        print(f"regularity not reached by degree {max_d} (degree {target})")
    return 0


def _cmd_member(args) -> int:
    parsed = parse_graph_spec(args.spec)
    g = parsed.graph
    a = _parse_exponents(args.monomial, g.s)
    if (args.binomial is None) == (args.mod_edge is None):
        raise ParseError("choose exactly one of --binomial and --mod-edge")
    if args.binomial is not None:
        b = _parse_exponents(args.binomial, g.s)
        verdict = binomial_in_ideal(g, args.q, a, b)
        print(("IN I(X)" if verdict else "NOT IN I(X)"))
        return 0
    j = args.mod_edge
    if not (1 <= j <= g.s):
        raise ParseError(f"edge index must be in 1..{g.s}")
    verdict = monomial_in_ideal_plus_edge(ReachTable(g, args.q), a, j - 1)
    print(f"IN (I(X), t_{j})" if verdict else f"NOT IN (I(X), t_{j})")
    return 0


def _cmd_verify(args) -> int:
    entries = load_catalog(args.catalog) if args.catalog else default_catalog()
    tokens = args.q.split(",")
    bad = next((tok for tok in tokens if not re.fullmatch(r"[0-9]+", tok)), None)
    if bad is not None:
        raise ParseError(f"--q: bad field size {bad!r}")
    q_list = distinct_field_sizes([int(tok) for tok in tokens], "--q")
    for q in set(q_list).union(*(entry.qs or () for entry in entries)):
        prime_power(q)
    caps.state_cap()  # a bad TORICREG_MAX_STATES fails here, not in every entry
    result = verify_suite(
        entries,
        q_list=q_list,
        jobs=args.jobs,
        with_bounds=not args.skip_bounds,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            write_csv(result.reports, fh)
    if args.json:
        print(reports_to_json(result.reports))
    else:
        for r in result.reports:
            status = "ok" if r.agree else "MISMATCH"
            routes = " ".join(f"{name}={value}" for name, value in r.values.items())
            print(
                f"{status:8s} {r.spec} q={r.q}: {routes} "
                f"degree={caps.count_text(r.degree_formula)}/{r.degree_enum}"
            )
        bad_bounds = [t for t in result.bound_rows if not t[2].satisfied]
        print(
            f"{len(result.reports)} instance checks, "
            f"{len(result.bound_rows)} bound rows, "
            f"{sum(1 for r in result.reports if not r.agree)} mismatches, "
            f"{len(bad_bounds)} bound failures"
        )
        for label, q, row in bad_bounds:
            print(
                f"BOUND FAIL {label} q={q}: {row.name} "
                f"{row.lhs} {row.relation} {row.rhs} ({row.detail})"
            )
    return 0 if result.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricreg",
        description=(
            "Degree, Hilbert function and regularity of the graded ring of a "
            "graph-parameterized projective toric set over GF(q), computed by "
            "mutually cross-checking methods."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reg", help="regularity of an instance")
    p.add_argument("spec")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--method", choices=(*ROUTES, "all"), default="all")
    p.add_argument("--edge", type=int, default=None, help="1-based edge for the sieve")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reg)

    p = sub.add_parser("degree", help="degree (point count) of an instance")
    p.add_argument("spec")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("hilbert", help="Hilbert function values")
    p.add_argument("spec")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--method", choices=("rank", "count"), default="rank")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("member", help="ideal membership tests")
    p.add_argument("spec")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--monomial", required=True, help="a1,...,as")
    p.add_argument("--binomial", default=None, help="b1,...,bs")
    p.add_argument("--mod-edge", type=int, default=None, help="1-based edge index")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("show", help="print the edge numbering of a spec")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("verify", help="run the cross-check suite")
    p.add_argument("--catalog", default=None)
    p.add_argument("--q", default="3,4,5")
    p.add_argument("--report", default=None, help="write a CSV report here")
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--skip-bounds", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command not in ("show", "verify"):
            # the one field-size check; verify applies it to its --q list
            # and to the catalog's q lists
            prime_power(args.q)
        return args.func(args)
    except (ValueError, OverflowError, OSError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
