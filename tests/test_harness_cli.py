import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    RegularityReport,
    default_catalog,
    evaluate_entry,
    load_catalog,
    parse_graph_spec,
    parse_reports_json,
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
        rank=2,
        sieve=2,
        formula=2,
        formula_rule="parallel[l=1,r=2]",
        degree_formula=4,
        degree_enum=4,
        agree=True,
        rank_ms=1.25,
        sieve_ms=0.5,
        formula_ms=0.125,
    )


def test_csv_schema_golden():
    fh = io.StringIO()
    write_csv([_sample_report()], fh)
    expected = (
        "spec,q,method,value,degree_formula,degree_enum,agree,ms\n"
        '"parallel(1,2)",3,rank,2,4,4,true,1.250\n'
        '"parallel(1,2)",3,sieve,2,4,4,true,0.500\n'
        '"parallel(1,2)",3,formula,2,4,4,true,0.125\n'
    )
    assert fh.getvalue() == expected
    assert fh.getvalue().splitlines()[0] == CSV_HEADER


def test_report_json_roundtrip():
    report = _sample_report()
    text = reports_to_json([report])
    assert parse_reports_json(text) == [report]


# -- suite -----------------------------------------------------------------


def test_evaluate_entry_agreement():
    entry = CatalogEntry(
        "parallel(1,2)", parse_graph_spec("parallel(1,2)").graph, "parallel", (1, 2)
    )
    report, rows = evaluate_entry(entry, 3)
    assert report.agree
    assert report.rank == report.sieve == report.formula == 2
    assert report.degree_enum == report.degree_formula == 4
    assert all(r.satisfied for r in rows)


def test_evaluate_entry_formula_not_applicable():
    from toricreg.graph import Multigraph

    entry = CatalogEntry(
        "disjoint-edges[2]", Multigraph(4, [(0, 1), (2, 3)]), "graph"
    )
    report, _ = evaluate_entry(entry, 3)
    assert report.formula == NOT_APPLICABLE
    assert isinstance(report.rank, int) and report.rank == report.sieve
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
    assert all(r.rank == r.sieve == 0 and r.degree_enum == 1 for r in q2)


def test_verify_suite_process_pool():
    entries = [
        CatalogEntry("cycle(4)", parse_graph_spec("cycle(4)").graph, "cycle", (4,)),
        CatalogEntry("path(3)", parse_graph_spec("path(3)").graph, "path", (3,)),
    ]
    serial = verify_suite(entries, q_list=(3,), jobs=1)
    pooled = verify_suite(entries, q_list=(3,), jobs=2)
    assert pooled.ok
    assert [(r.spec, r.q, r.rank, r.sieve, r.formula) for r in pooled.reports] == [
        (r.spec, r.q, r.rank, r.sieve, r.formula) for r in serial.reports
    ]


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

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
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


def test_evaluate_entry_ranks_without_the_sieve(monkeypatch):
    from toricreg.errors import TooLargeError

    def refused(*args, **kwargs):
        raise TooLargeError("sieve refused")

    monkeypatch.setattr("toricreg.harness.sieve_on_edges", refused)
    entry = parse_graph_spec("parallel(1,2)")
    report, rows = evaluate_entry(entry, 3)
    assert report.sieve == NOT_RUN
    assert report.rank == report.formula == 2 and report.agree
    assert rows and all(r.satisfied for r in rows)


def test_sieve_must_agree_on_every_edge(monkeypatch, tmp_path, capsys):
    from toricreg.ideal import sieve_on_edges

    def last_edge_off(g, q, edges):
        values = sieve_on_edges(g, q, edges)
        return values[:-1] + (values[-1] + 1,)

    monkeypatch.setattr("toricreg.harness.sieve_on_edges", last_edge_off)
    report, _ = evaluate_entry(parse_graph_spec("cycle(4)"), 3, with_bounds=False)
    assert report.rank == report.sieve == report.formula == 1
    assert not report.agree
    assert report.note == "sieve on edge 4 gives 2"
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"spec": "cycle(4)", "q": [3]}]))
    assert main(["verify", "--catalog", str(catalog), "--skip-bounds"]) == 1
    assert "MISMATCH cycle(4) q=3: rank=1 sieve=1 formula=1" in capsys.readouterr().out


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
    assert len(lines) == 1 + 3 * 2
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


def test_cli_reg_json_roundtrip(capsys, tmp_path):
    assert main(["reg", "cycle(4)", "-q", "3", "--method", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 1 and payload["agree"] is True
    # every method names the instance by its parsed label, not the raw argument
    for method in ("all", "rank", "sieve", "formula"):
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


def test_cli_hilbert(capsys, monkeypatch):
    assert main(["hilbert", "cycle(4)", "-q", "3"]) == 0
    out = capsys.readouterr().out
    assert "H(0) = 1" in out and "H(1) = 4" in out and "regularity: 1" in out
    # past saturation H stays |X| and nothing more is built or checked
    monkeypatch.setenv("TORICREG_MAX_STATES", "2000")
    assert main(["hilbert", "cycle(4)", "-q", "3", "--max-degree", "15"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-2:] == ["H(15) = 4", "regularity: 1  (degree 4)"]
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
    cases += [
        ["reg", "cycle(4)", "-q", "6", "--method", method]
        for method in ("all", "rank", "sieve", "formula")
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert "Traceback" not in captured.out + captured.err, argv
        assert "MISMATCH" not in captured.out, argv
