import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from toricreg import caps
from toricreg.cli import main
from toricreg.errors import (
    CeilingExceededError,
    ConsistencyError,
    InvalidSpecError,
    ParseError,
)
from toricreg.harness import (
    CSV_HEADER,
    CatalogEntry,
    NOT_APPLICABLE,
    NOT_RUN,
    ROUTES,
    RegularityReport,
    default_catalog,
    evaluate_entry,
    load_catalog,
    parse_graph_spec,
    reports_to_json,
    verify_suite,
    write_csv,
)


# -- DSL -------------------------------------------------------------------


def test_parse_examples():
    parsed = parse_graph_spec("parallel(3,3,5)")
    assert parsed.graph.n == 10 and parsed.graph.s == 11
    assert parse_graph_spec("cycle(4)").graph.s == 4
    assert parse_graph_spec("biclique(2,3)").graph.s == 6
    assert parse_graph_spec("multipartite(1,1,2)").graph.s == 5
    assert parse_graph_spec("  path(2) ").kind == "path"


def test_parse_errors():
    for spec in ("parallel(3)", "cycle(1,2)", "biclique(2)", "path(2,3)"):
        with pytest.raises(InvalidSpecError):
            parse_graph_spec(spec)
    with pytest.raises(ParseError):
        parse_graph_spec("")
    with pytest.raises(ParseError):
        parse_graph_spec("triangle(3)")
    with pytest.raises(ParseError):
        parse_graph_spec("cycle(three)")
    with pytest.raises(ParseError):
        parse_graph_spec("cycle(4")


@pytest.mark.parametrize(
    "spec, pos",
    [
        ("PATH(2)", 0),
        ("path2(3)", 4),
        ("path(2)x", 7),
        ("cycle(4", 7),
        ("path(p)", 5),
        ("parallel(2,a)", 11),
        ("parallel(2, a)", 12),
        ("cycle(3,,4)", 8),
        ("path(2)x)", 7),
        ("path(1_0)", 5),
        ("path(+3)", 5),
        ("path(\u0663)", 5),  # ARABIC-INDIC DIGIT THREE
    ],
)
def test_parse_errors_name_the_first_rejected_position(spec, pos):
    with pytest.raises(ParseError, match=rf"at position {pos}(\D|$)"):
        parse_graph_spec(spec)


def test_parse_leaves_negative_integers_to_the_family():
    """An argument is -?[0-9]+ between optional blanks (a '+', '_' or
    non-ASCII digit is a bad integer, above); the family judges its value."""
    with pytest.raises(InvalidSpecError, match="length >= 1"):
        parse_graph_spec("path(-1)")
    assert parse_graph_spec("parallel( 1, 2 )").params == (1, 2)


def test_parse_file_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    parsed = parse_graph_spec(f"file:{path}")
    assert parsed.graph.s == 2 and parsed.kind == "graph"
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ParseError):
        parse_graph_spec(f"file:{bad}")
    with pytest.raises(OSError):
        parse_graph_spec("file:/nonexistent/file.json")


# -- reports ---------------------------------------------------------------


def _sample_report():
    return RegularityReport(
        spec="parallel(1,2)",
        q=3,
        values={"rank": 2, "sieve": 2, "count": 2, "formula": 2},
        formula_rule="parallel[l=1,r=2]",
        degree_formula=4,
        degree_enum=4,
        agree=True,
        ms={"rank": 1.25, "sieve": 0.5, "count": 0.25, "formula": 0.125},
    )


def test_csv_schema_golden():
    fh = io.StringIO()
    write_csv([_sample_report()], fh)
    expected = (
        "spec,q,method,value,degree_formula,degree_enum,agree,ms\n"
        '"parallel(1,2)",3,rank,2,4,4,true,1.250\n'
        '"parallel(1,2)",3,sieve,2,4,4,true,0.500\n'
        '"parallel(1,2)",3,count,2,4,4,true,0.250\n'
        '"parallel(1,2)",3,formula,2,4,4,true,0.125\n'
    )
    assert fh.getvalue() == expected
    assert fh.getvalue().splitlines()[0] == CSV_HEADER


# the keys of a report in JSON, in order
REPORT_KEYS = [
    "spec", "q", "rank", "sieve", "count", "formula", "formula_rule", "degree_formula",
    "degree_enum", "agree", "rank_ms", "sieve_ms", "count_ms", "formula_ms", "note",
]


def test_report_json_roundtrip():
    """A report written as JSON reads back as flat keys, in this order."""
    (payload,) = json.loads(reports_to_json([_sample_report()]))
    assert list(payload) == REPORT_KEYS
    assert payload == {
        "spec": "parallel(1,2)",
        "q": 3,
        "rank": 2,
        "sieve": 2,
        "count": 2,
        "formula": 2,
        "formula_rule": "parallel[l=1,r=2]",
        "degree_formula": 4,
        "degree_enum": 4,
        "agree": True,
        "rank_ms": 1.25,
        "sieve_ms": 0.5,
        "count_ms": 0.25,
        "formula_ms": 0.125,
        "note": "",
    }


# -- suite -----------------------------------------------------------------


def test_evaluate_entry_agreement():
    entry = CatalogEntry(
        "parallel(1,2)", parse_graph_spec("parallel(1,2)").graph, "parallel", (1, 2)
    )
    report, rows = evaluate_entry(entry, 3)
    assert report.agree
    assert report.values == {"rank": 2, "sieve": 2, "count": 2, "formula": 2}
    assert report.degree_enum == report.degree_formula == 4
    assert all(r.satisfied for r in rows)


def test_evaluate_entry_formula_not_applicable():
    from toricreg.graph import Multigraph

    entry = CatalogEntry(
        "disjoint-edges[2]", Multigraph(4, [(0, 1), (2, 3)]), "graph"
    )
    report, _ = evaluate_entry(entry, 3)
    assert report.values["formula"] == NOT_APPLICABLE
    assert isinstance(report.values["rank"], int)
    assert report.values["rank"] == report.values["sieve"]
    assert report.agree  # absent formula does not break agreement


def test_fault_injection_detected():
    entry = CatalogEntry(
        "cycle(4)",
        parse_graph_spec("cycle(4)").graph,
        "cycle",
        (4,),
        expect_reg=7,
    )
    report, _ = evaluate_entry(entry, 3, with_bounds=False)
    assert not report.agree


def test_default_catalog_parses_and_covers_rows():
    entries = default_catalog()
    labels = {e.label for e in entries}
    assert "parallel(2,2,3,3)" in labels  # several-odd several-even row
    assert "cactus[C4;C4]" in labels
    assert "disjoint-edges[2]" in labels
    assert len(labels) == len(entries)


def test_default_catalog_labels_are_specs():
    # the verify CSV and the benchmark's pinned values key on these labels
    hand_built = []
    for entry in default_catalog():
        if "[" in entry.label:
            hand_built.append(entry.label)
            continue
        assert parse_graph_spec(entry.label) == entry
        assert entry.label == f"{entry.kind}({','.join(map(str, entry.params))})"
    assert hand_built == [
        "tree[0-1;1-2;1-3;3-4;3-5]",
        "cactus[C4;C4]",
        "disjoint-edges[2]",
    ]
    assert default_catalog() is not default_catalog()


def test_verify_suite_small_catalog():
    entries = [
        CatalogEntry(
            "parallel(1,2)",
            parse_graph_spec("parallel(1,2)").graph,
            "parallel",
            (1, 2),
        ),
        CatalogEntry("cycle(4)", parse_graph_spec("cycle(4)").graph, "cycle", (4,)),
    ]
    result = verify_suite(entries, q_list=(2, 3))
    assert result.ok
    assert len(result.reports) == 4
    keys = [(r.spec, r.q) for r in result.reports]
    assert keys == sorted(keys)
    # q = 2: everything is zero and the point set is a single point
    q2 = [r for r in result.reports if r.q == 2]
    assert all(r.values["rank"] == r.values["sieve"] == 0 and r.degree_enum == 1 for r in q2)


def test_verify_suite_process_pool():
    entries = [
        CatalogEntry("cycle(4)", parse_graph_spec("cycle(4)").graph, "cycle", (4,)),
        CatalogEntry("path(3)", parse_graph_spec("path(3)").graph, "path", (3,)),
    ]
    serial = verify_suite(entries, q_list=(3,), jobs=1)
    pooled = verify_suite(entries, q_list=(3,), jobs=2)
    assert pooled.ok
    assert [(r.spec, r.q, r.values) for r in pooled.reports] == [
        (r.spec, r.q, r.values) for r in serial.reports
    ]


def test_verify_q3_prints_the_golden_report(capsys, monkeypatch):
    """The whole `verify --q 3` text, 54 instance checks and 208 bound
    rows, byte for byte as saved in verify_q3.golden.txt."""
    monkeypatch.delenv("TORICREG_MAX_STATES", raising=False)
    assert main(["verify", "--q", "3"]) == 0
    golden = Path(__file__).with_name("verify_q3.golden.txt").read_text()
    assert capsys.readouterr().out == golden


def test_verify_jobs_checked_and_bounded(capsys, monkeypatch):
    import toricreg.harness as harness

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    entries = [
        CatalogEntry("cycle(4)", parse_graph_spec("cycle(4)").graph, "cycle", (4,)),
        CatalogEntry("path(3)", parse_graph_spec("path(3)").graph, "path", (3,)),
    ]
    # min(jobs, work items, CPUs) workers; one worker runs in this process
    for jobs, q_list, workers in (
        (5000, (3,), [2]),
        (5000, (3, 4, 5), [4]),
        (3, (3, 4, 5), [3]),
        (1, (3, 4, 5), []),
    ):
        started.clear()
        assert verify_suite(entries, q_list=q_list, jobs=jobs, with_bounds=False).ok
        assert started == workers, jobs
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    started.clear()
    assert verify_suite(entries, q_list=(3,), jobs=8, with_bounds=False).ok
    assert started == []
    for jobs in ("0", "-3"):
        assert main(["verify", "--jobs", jobs, "--skip-bounds"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: jobs must be at least 1, got {jobs}\n"
        assert captured.out == ""
    assert started == []


def test_verify_json_round_trips(capsys, tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"spec": "cycle(4)"}, {"spec": "path(2)", "q": [4]}]))
    assert main(["verify", "--catalog", str(catalog), "--q", "3", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [list(r) for r in reports] == [REPORT_KEYS] * 2
    assert [(r["spec"], r["q"], r["rank"], r["sieve"], r["agree"]) for r in reports] == [
        ("cycle(4)", 3, 1, 1, True),
        ("path(2)", 4, 2, 2, True),
    ]


def test_verify_prints_bound_failures(capsys, monkeypatch, tmp_path):
    from toricreg.formulas import BoundRow

    failed = BoundRow("pendant", 3, 2, "<=", False, "forced")
    # one witness whose one row fails
    monkeypatch.setattr("toricreg.harness.auto_witnesses", lambda *args: [None])
    monkeypatch.setattr("toricreg.harness.verify_bounds", lambda *args: [failed])
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"spec": "path(2)"}]))
    assert main(["verify", "--catalog", str(catalog), "--q", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "1 instance checks, 1 bound rows, 0 mismatches, 1 bound failures"
    assert lines[-1] == "BOUND FAIL path(2) q=3: pendant 3 <= 2 (forced)"


def test_verify_records_an_error_as_a_report(monkeypatch, capsys, tmp_path):
    def broken(entry, q, with_bounds=True):
        raise RuntimeError("lost a point")

    monkeypatch.setattr("toricreg.harness.evaluate_entry", broken)
    entry = parse_graph_spec("cycle(4)")
    result = verify_suite([entry], q_list=(3,), jobs=1)
    assert not result.ok and result.bound_rows == []
    (report,) = result.reports
    assert (report.spec, report.q, report.agree) == ("cycle(4)", 3, False)
    assert report.values == dict.fromkeys(ROUTES, NOT_RUN)
    assert report.formula_rule == "error" and report.note == "error: lost a point"
    # nothing computed a degree, so none is printed
    assert report.degree_formula == report.degree_enum == NOT_RUN
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"spec": "cycle(4)"}]))
    csv_path = tmp_path / "out.csv"
    assert main(["verify", "--catalog", str(catalog), "--q", "3", "--report", str(csv_path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "MISMATCH cycle(4) q=3: rank=NOT_RUN sieve=NOT_RUN count=NOT_RUN formula=NOT_RUN "
        "degree=NOT_RUN/NOT_RUN"
    )
    assert csv_path.read_text().splitlines()[1:] == [
        f"cycle(4),3,{route},NOT_RUN,NOT_RUN,NOT_RUN,false,0.000" for route in ROUTES
    ]


def test_evaluate_entry_ranks_without_the_sieve(monkeypatch):
    from toricreg.errors import TooLargeError

    def refused(*args, **kwargs):
        raise TooLargeError("sieve refused")

    monkeypatch.setattr("toricreg.harness.ReachTable", refused)
    entry = parse_graph_spec("parallel(1,2)")
    report, rows = evaluate_entry(entry, 3)
    assert report.values["sieve"] == NOT_RUN
    assert report.values["rank"] == report.values["formula"] == 2 and report.agree
    assert rows and all(r.satisfied for r in rows)


def test_sieve_must_agree_on_every_edge(monkeypatch, tmp_path, capsys):
    from toricreg.ideal import ReachTable

    class LastEdgeOff(ReachTable):
        __slots__ = ()

        def sieve(self, edge):
            return super().sieve(edge) + (edge == self.g.s - 1)

    monkeypatch.setattr("toricreg.harness.ReachTable", LastEdgeOff)
    report, _ = evaluate_entry(parse_graph_spec("cycle(4)"), 3, with_bounds=False)
    assert report.values == {"rank": 1, "sieve": 1, "count": 1, "formula": 1}
    assert not report.agree
    assert report.note == "sieve on edge 4 gives 2"
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"spec": "cycle(4)", "q": [3]}]))
    assert main(["verify", "--catalog", str(catalog), "--skip-bounds"]) == 1
    assert "MISMATCH cycle(4) q=3: rank=1 sieve=1 count=1 formula=1" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["cycle(4)", "disjoint-edges[2]"])
def test_any_one_route_off_alone_breaks_agreement(monkeypatch, spec):
    """Rank, sieve, count, closed form and expected value each read one
    more than the others, alone, with and without an expected value;
    cycle(4) has a closed form and disjoint-edges[2] has none."""
    from toricreg import harness
    from toricreg.ideal import ReachTable

    entry = next(e for e in default_catalog() if e.label == spec)
    report, _ = evaluate_entry(entry, 3, with_bounds=False)
    value = report.values["rank"]
    assert report.agree and report.values["sieve"] == value
    assert (report.values["formula"] == value) == (spec == "cycle(4)")
    bump = {}  # the route that reads one more

    def rank(g, q, points=None):
        profile = rank_of(g, q, points=points)
        return replace(profile, regularity=profile.regularity + bump.get("rank", 0))

    class Sieve(ReachTable):
        __slots__ = ()

        def sieve(self, edge):
            return super().sieve(edge) + bump.get("sieve", 0)

        def profile(self):
            profile = super().profile()
            return replace(profile, regularity=profile.regularity + bump.get("count", 0))

    def formula(entry, q):
        fr = formula_of(entry, q)
        return replace(fr, value=fr.value + bump["formula"]) if "formula" in bump else fr

    formula_of = harness._formula_for_entry
    rank_of = harness.regularity_rank
    monkeypatch.setattr("toricreg.harness.regularity_rank", rank)
    monkeypatch.setattr("toricreg.harness.ReachTable", Sieve)
    monkeypatch.setattr("toricreg.harness._formula_for_entry", formula)
    # every route of the table that gives a value here
    routes = [name for name, v in report.values.items() if isinstance(v, int)]
    assert routes == (list(ROUTES) if spec == "cycle(4)" else ["rank", "sieve", "count"])
    for expect in (None, value):
        for route in routes + ["expect_reg"] * (expect is not None) + [None]:
            bump.clear()
            if route:
                bump[route] = 1
            reg = None if expect is None else expect + bump.get("expect_reg", 0)
            report, _ = evaluate_entry(replace(entry, expect_reg=reg), 3, with_bounds=False)
            assert report.agree is (route is None), (spec, expect, route)


def test_rank_and_count_profiles_must_agree_at_every_degree(monkeypatch):
    """Count's H(1) read one more, its regularity left alone: the values
    still agree, the profiles do not."""
    from toricreg.ideal import ReachTable

    class OffAtOne(ReachTable):
        __slots__ = ()

        def profile(self):
            profile = super().profile()
            values = (profile.values[0], profile.values[1] + 1, *profile.values[2:])
            return replace(profile, values=values)

    monkeypatch.setattr("toricreg.harness.ReachTable", OffAtOne)
    report, _ = evaluate_entry(parse_graph_spec("cycle(5)"), 3, with_bounds=False)
    assert report.values == {"rank": 4, "sieve": 4, "count": 4, "formula": 4}
    assert not report.agree
    assert report.note == "H(1) is 5 by rank, 6 by count"


def test_bound_rows_where_rank_is_refused():
    """parallel(4,5) at q = 4 is over the rank route's matrix cap; its
    bound rows compare the count value."""
    report, rows = evaluate_entry(parse_graph_spec("parallel(4,5)"), 4)
    assert report.values == {"rank": NOT_RUN, "sieve": 16, "count": 16, "formula": 16}
    assert report.agree
    assert rows and all(r.lhs == 16 and r.satisfied for r in rows)


def test_python_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "toricreg", "show", "cycle(3)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("cycle(3): 3 vertices, 3 edges\n")


def test_reg_leaves_numpy_random_unimported():
    """numpy imports numpy.random lazily, and importing it adds about
    6 MB of resident memory; the rank route needs no randomness.  Nor
    does a single call need a process pool: `verify_suite` imports
    concurrent.futures, which loads multiprocessing, only to run workers."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from toricreg.cli import main\n"
        "assert main(['reg', 'cycle(4)', '-q', '5']) == 0\n"
        "for name in ('numpy.random', 'concurrent.futures', 'multiprocessing'):\n"
        "    assert name not in sys.modules, f'{name} was imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_counts_past_the_digit_limit_are_shown_in_short(capsys, monkeypatch):
    """path(16000) at q = 3 has |X| = 2**15999, 4,816 digits, past
    Python's int-to-str limit: the caps refuse rank, sieve and
    enumeration, and the degree is shown by its leading digits."""
    monkeypatch.delenv("TORICREG_MAX_STATES", raising=False)
    assert main(["reg", "path(16000)", "-q", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "degree: 1.5097e+4816 (formula), NOT_RUN (enumerated)"
    assert out[2].startswith("rank:    NOT_RUN ") and out[3].startswith("sieve:   NOT_RUN ")
    assert out[4].startswith("count:   NOT_RUN ")
    assert out[5:] == ["formula: 15999  [torus]", "agreement: true"]
    assert main(["reg", "path(16000)", "-q", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degree_formula"] == "1.5097e+4816" and report["formula"] == 15999
    assert main(["degree", "path(16000)", "-q", "3"]) == 0
    assert capsys.readouterr().out == "1.5097e+4816\n"
    # |X|**2 echelon cells and (q-1)**k = |X| residues
    for method, count in (("rank", "2.2792e+9632"), ("sieve", "1.5097e+4816")):
        assert main(["reg", "path(16000)", "-q", "3", "--method", method]) == 2
        err = capsys.readouterr().err
        assert count in err and err.count("\n") == 1


def test_specs_with_more_edges_than_the_state_cap_are_refused(monkeypatch, capsys):
    """|X|*s >= s, so a spec with more edges than the state cap can never
    be enumerated: it is refused before its edge list is built."""
    monkeypatch.delenv("TORICREG_MAX_STATES", raising=False)
    assert main(["reg", "path(99999999999999999999)", "-q", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: path has 99999999999999999999 edges, over the state cap 10000000\n"
    )
    monkeypatch.setenv("TORICREG_MAX_STATES", "100")
    assert main(["reg", "path(100)", "-q", "3", "--method", "formula"]) == 0
    assert main(["reg", "path(101)", "-q", "3", "--method", "formula"]) == 2
    assert "path has 101 edges" in capsys.readouterr().err


def test_count_text_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert caps.count_text(0) == "0" and caps.count_text(10**limit - 1) == str(10**limit - 1)
    for n in (10**limit, 2**15999, 10**5000 - 1, 12345 * 10**6000 + 67890, 10**5000 + 99999):
        sys.set_int_max_str_digits(0)
        try:
            digits = str(n)
        finally:
            sys.set_int_max_str_digits(limit)
        assert caps.count_text(n) == f"{digits[0]}.{digits[1:5]}e+{len(digits) - 1}"


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_verify_rejects_a_bad_state_cap_before_the_sweep(raw, monkeypatch, capsys):
    monkeypatch.setenv("TORICREG_MAX_STATES", raw)
    assert main(["verify", "--q", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: TORICREG_MAX_STATES ") and err.count("\n") == 1


def test_main_calls_do_not_share_arguments(capsys):
    assert main(["reg", "cycle(4)", "-q", "3", "--method", "sieve", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1
    assert main(["reg", "cycle(4)", "-q", "3", "--method", "sieve"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_env_var_overrides_caps(monkeypatch):
    from toricreg import caps
    from toricreg.errors import TooLargeError
    from toricreg.graph import cycle_graph
    from toricreg.points import enumerate_points

    monkeypatch.setenv("TORICREG_MAX_STATES", "10")
    assert caps.state_cap() == 10 and caps.matrix_cap() == 10
    with pytest.raises(TooLargeError):
        enumerate_points(cycle_graph(5), 3)
    monkeypatch.setenv("TORICREG_MAX_STATES", "junk")
    with pytest.raises(ValueError):
        caps.state_cap()


def test_load_catalog_and_exit_codes(tmp_path, capsys):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(
        json.dumps(
            [
                {"spec": "parallel(1,2)", "q": [3]},
                {"spec": "cycle(4)", "q": [3]},
            ]
        )
    )
    entries = load_catalog(catalog)
    assert len(entries) == 2 and entries[0].qs == (3,)
    report_path = tmp_path / "out.csv"
    code = main(
        ["verify", "--catalog", str(catalog), "--report", str(report_path)]
    )
    assert code == 0
    lines = report_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 * 2
    capsys.readouterr()

    bad = tmp_path / "bad_catalog.json"
    bad.write_text(json.dumps([{"spec": "cycle(4)", "q": [3], "expect_reg": 9}]))
    code = main(["verify", "--catalog", str(bad)])
    assert code == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out


# -- CLI -------------------------------------------------------------------


def test_cli_reg_all(capsys):
    assert main(["reg", "parallel(1,2)", "-q", "3", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert "rank:    2" in out
    assert "sieve:   2" in out
    assert "agreement: true" in out


def test_cli_reg_prints_every_route(capsys, tmp_path):
    """The whole `reg` text, times masked, for an instance with a closed
    form and for a file graph without one."""
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    for spec, degree, value, formula in (
        ("cycle(4)", 4, 1, "1  [even_cycle]"),
        (f"file:{disjoint}", 2, 1, "NOT_APPLICABLE  [detect]"),
    ):
        assert main(["reg", spec, "-q", "3"]) == 0
        out = re.sub(r"\(\d+\.\d ms\)", "(- ms)", capsys.readouterr().out)
        assert out.splitlines() == [
            f"spec: {spec}  q=3",
            f"degree: {degree} (formula), {degree} (enumerated)",
            f"rank:    {value}  (- ms)",
            f"sieve:   {value}  (- ms)",
            f"count:   {value}  (- ms)",
            f"formula: {formula}",
            "agreement: true",
        ]
    assert main(["reg", "cycle(4)", "-q", "3", "--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == REPORT_KEYS


def test_cli_reg_json_roundtrip(capsys, tmp_path):
    assert main(["reg", "cycle(4)", "-q", "3", "--method", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 1 and payload["agree"] is True
    # every method names the instance by its parsed label, not the raw argument
    for method in ("all", *ROUTES):
        assert main(["reg", " cycle(4) ", "-q", "3", "--method", method, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["spec"] == "cycle(4)", method
    # a closed form that does not apply is still one JSON object
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    spec = f"file:{disjoint}"
    assert main(["reg", spec, "-q", "3", "--method", "formula", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["spec", "q", "method", "value", "reason", "ms"]
    assert payload["spec"] == spec and payload["q"] == 3 and payload["method"] == "formula"
    assert payload["value"] == NOT_APPLICABLE
    assert payload["reason"] == "disconnected: no closed form asserted"


def test_cli_reg_single_methods(capsys, monkeypatch, tmp_path):
    assert main(["reg", "cycle(6)", "-q", "4", "--method", "rank"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["reg", "cycle(6)", "-q", "4", "--method", "sieve", "--edge", "3"]) == 0
    assert capsys.readouterr().out.strip() == "4"

    # the formula route is a closed-form lookup: it never enumerates
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the formula route enumerated points")

    for module in ("cli", "harness", "hilbert", "points"):
        monkeypatch.setattr(f"toricreg.{module}.enumerate_points", no_enumeration)
    assert main(["reg", "cycle(6)", "-q", "4", "--method", "formula"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    assert main(["reg", f"file:{disjoint}", "-q", "3", "--method", "formula"]) == 0
    assert capsys.readouterr().out.strip() == (
        "formula: NOT_APPLICABLE (disconnected: no closed form asserted)"
    )


def test_cli_degree(capsys):
    assert main(["degree", "cycle(3)", "-q", "5", "--enumerate"]) == 0
    assert "formula 16, enumerated 16" in capsys.readouterr().out
    # without --enumerate only the formula is printed
    assert main(["degree", "cycle(3)", "-q", "5"]) == 0
    assert capsys.readouterr().out == "16\n"


def test_cli_member(capsys):
    assert main(
        ["member", "path(2)", "-q", "3", "--monomial", "1,1", "--mod-edge", "1"]
    ) == 0
    assert "IN (I(X), t_1)" in capsys.readouterr().out
    assert main(
        ["member", "path(2)", "-q", "3", "--monomial", "0,1", "--mod-edge", "1"]
    ) == 0
    assert "NOT IN" in capsys.readouterr().out
    assert main(
        ["member", "path(2)", "-q", "3", "--monomial", "2,0", "--binomial", "0,2"]
    ) == 0
    assert capsys.readouterr().out.strip() == "IN I(X)"


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--monomial", "1,x", "--mod-edge", "1"], "bad exponent list '1,x'"),
        (["--monomial", "1,1", "--binomial", "2,-1"], "exponents must be nonnegative"),
        (["--monomial", "1,1", "--mod-edge", "0"], "edge index must be in 1..2"),
        (["--monomial", "1,1", "--mod-edge", "3"], "edge index must be in 1..2"),
    ],
)
def test_cli_member_rejects_bad_input(capsys, flags, error):
    assert main(["member", "path(2)", "-q", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


def test_cli_hilbert(capsys, monkeypatch):
    assert main(["hilbert", "cycle(4)", "-q", "3"]) == 0
    out = capsys.readouterr().out
    assert "H(0) = 1" in out and "H(1) = 4" in out and "regularity: 1" in out
    # past saturation H stays |X| and nothing more is built or checked
    monkeypatch.setenv("TORICREG_MAX_STATES", "2000")
    assert main(["hilbert", "cycle(4)", "-q", "3", "--max-degree", "15"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-2:] == ["H(15) = 4", "regularity: 1  (degree 4)"]
    # stopping below the regularity says so
    assert main(["hilbert", "cycle(3)", "-q", "3", "--max-degree", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "H(0) = 1",
        "H(1) = 3",
        "regularity not reached by degree 1 (degree 4)",
    ]
    # a degree before saturation is refused by the echelon it could fill:
    # |X| times |seen| + (s-1)|frontier| distinct rows, 64 * (8 + 7 * 7)
    assert main(["hilbert", "cycle(8)", "-q", "3", "--max-degree", "15"]) == 2
    assert capsys.readouterr().err == "error: rank echelon has 3648 cells, cap is 2000\n"
    # the whole profile fills (|X| * k)**2 = 64**2 cells: refused before any point is built
    def no_enumeration(*args, **kwargs):
        raise AssertionError("points enumerated before the cap was checked")

    for module in ("cli", "hilbert"):
        monkeypatch.setattr(f"toricreg.{module}.enumerate_points", no_enumeration)
    for argv in (["hilbert"], ["reg", "--method", "rank"]):
        assert main([*argv, "cycle(8)", "-q", "3"]) == 2
        assert capsys.readouterr().err == "error: rank echelon has 4096 cells, cap is 2000\n"


@pytest.mark.parametrize("max_degree", [[], ["--max-degree", "8"], ["--max-degree", "1"]])
@pytest.mark.parametrize("spec, q", [("cycle(4)", 3), ("parallel(1,2)", 5)])
def test_cli_hilbert_count_prints_what_rank_prints(capsys, spec, q, max_degree):
    texts = []
    for method in ([], ["--method", "rank"], ["--method", "count"]):
        assert main(["hilbert", spec, "-q", str(q), *method, *max_degree]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2]
    if max_degree:  # H(0..max) and the regularity line
        assert len(texts[0].splitlines()) == int(max_degree[1]) + 2


@pytest.mark.parametrize("max_degree", [[], ["--max-degree", "4"]])
def test_cli_hilbert_checks_the_profile(capsys, monkeypatch, max_degree):
    # with no rows kept H stays 0; both the full profile and a prefix of it
    # stop on the broken invariant
    monkeypatch.setattr("toricreg.hilbert._unique_rows", lambda E, seen=None: E[:0])
    assert main(["hilbert", "cycle(6)", "-q", "5", *max_degree]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Hilbert function not strictly increasing")
    assert "H(" not in captured.out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["reg", "cycle(4)", "-q", "3", "--method", "rank"], ConsistencyError),
        (["hilbert", "cycle(4)", "-q", "3"], CeilingExceededError),
    ],
)
def test_cli_internal_inconsistency_exits_1(capsys, monkeypatch, argv, error):
    def broken(*args, **kwargs):
        raise error("routes disagree")

    monkeypatch.setattr("toricreg.cli.regularity_rank", broken)
    monkeypatch.setattr("toricreg.harness.regularity_rank", broken)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: routes disagree\n"
    assert "Traceback" not in captured.out + captured.err


def test_cli_show(capsys):
    assert main(["show", "parallel(1,2)"]) == 0
    out = capsys.readouterr().out
    assert "t_1 = {0, 1}" in out


def test_cli_invalid_inputs(capsys, tmp_path):
    six = tmp_path / "six.json"
    six.write_text(json.dumps([{"spec": "cycle(4)", "q": [3, 6]}]))
    text_q = tmp_path / "text_q.json"
    text_q.write_text(json.dumps([{"spec": "cycle(4)", "q": ["3"]}]))
    no_spec = tmp_path / "no_spec.json"
    no_spec.write_text(json.dumps([{"q": [3]}]))
    not_object = tmp_path / "not_object.json"
    not_object.write_text(json.dumps(["cycle(4)"]))
    int_spec = tmp_path / "int_spec.json"
    int_spec.write_text(json.dumps([{"spec": 5}]))
    text_expect = tmp_path / "text_expect.json"
    text_expect.write_text(json.dumps([{"spec": "cycle(4)", "expect_reg": "7"}]))
    bool_expect = tmp_path / "bool_expect.json"
    bool_expect.write_text(json.dumps([{"spec": "cycle(4)", "expect_reg": True}]))
    empty_q = tmp_path / "empty_q.json"
    empty_q.write_text(json.dumps([{"spec": "cycle(4)", "q": []}]))
    twice_q = tmp_path / "twice_q.json"
    twice_q.write_text(json.dumps([{"spec": "cycle(4)", "q": [3, 3]}]))
    float_n = tmp_path / "float_n.json"
    float_n.write_text(json.dumps({"n": 2.7, "edges": [[0, 1]]}))
    bool_vertex = tmp_path / "bool_vertex.json"
    bool_vertex.write_text(json.dumps({"n": 2, "edges": [[0, True]]}))
    cases = [
        ["reg", "parallel(3)", "-q", "3"],
        # wrong number of family parameters
        ["reg", "cycle(1,2)", "-q", "3"],
        ["reg", "biclique(2)", "-q", "3"],
        ["reg", "path(2,3)", "-q", "3"],
        ["hilbert", "cycle(4)", "-q", "3", "--max-degree", "-1"],
        ["member", "path(2)", "-q", "3", "--monomial", "1"],
        # neither --binomial nor --mod-edge
        ["member", "path(2)", "-q", "3", "--monomial", "1,1"],
        # --edge outside 1..s (cycle(4) has s = 4)
        ["reg", "cycle(4)", "-q", "3", "--method", "sieve", "--edge", "0"],
        ["reg", "cycle(4)", "-q", "3", "--method", "sieve", "--edge", "5"],
        # --edge only steers the sieve: rank ignored it, all sieved edge 1
        ["reg", "cycle(6)", "-q", "4", "--edge", "3", "--method", "rank"],
        ["reg", "cycle(6)", "-q", "4", "--edge", "3", "--method", "all"],
        # graph files were read through int(): n 2.7 as 2, vertex true as 1
        ["reg", f"file:{float_n}", "-q", "3"],
        ["reg", f"file:{bool_vertex}", "-q", "3"],
        # q = 6 is not a prime power, wherever it is given
        ["degree", "cycle(3)", "-q", "6"],
        ["member", "path(2)", "-q", "6", "--monomial", "1,1", "--mod-edge", "1"],
        ["verify", "--q", "3,6", "--skip-bounds"],
        ["verify", "--catalog", str(six), "--skip-bounds"],
        ["verify", "--catalog", str(text_q), "--skip-bounds"],
        ["verify", "--catalog", str(no_spec), "--skip-bounds"],
        ["verify", "--catalog", str(not_object), "--skip-bounds"],
        ["verify", "--catalog", str(int_spec), "--skip-bounds"],
        # expect_reg must be an integer: "7" was ignored, true compared as 1
        ["verify", "--catalog", str(text_expect), "--skip-bounds"],
        ["verify", "--catalog", str(bool_expect), "--skip-bounds"],
        # an empty q list ran the --q list instead
        ["verify", "--catalog", str(empty_q), "--skip-bounds"],
    ]
    # field-size lists: an empty or non-integer size printed int()'s
    # message, and a repeated one ran every instance twice
    named = [
        (["verify", "--q", "", "--skip-bounds"], "--q", "''"),
        (["verify", "--q", "3,,4", "--skip-bounds"], "--q", "''"),
        (["verify", "--q", "3,x", "--skip-bounds"], "--q", "'x'"),
        (["verify", "--q", "3, 4", "--skip-bounds"], "--q", "' 4'"),
        (["verify", "--q", "3,3", "--skip-bounds"], "--q", "field size 3 given twice"),
        (["verify", "--catalog", str(twice_q), "--skip-bounds"], "'cycle(4)'",
         "field size 3 given twice"),
        (["verify", "--catalog", str(text_q), "--skip-bounds"], "'cycle(4)'", "['3']"),
    ]
    for argv, where, token in named:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err and token in err, (argv, err)
    cases += [
        ["reg", "cycle(4)", "-q", "6", "--method", method]
        for method in ("all", *ROUTES)
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert "Traceback" not in captured.out + captured.err, argv
        assert "MISMATCH" not in captured.out, argv
