import pytest

from toricreg.errors import InvalidWitnessError, NotApplicableError, TooLargeError
from toricreg.formulas import (
    BipartiteBoundWitness,
    ContractionWitness,
    CoverWitness,
    IndependentSetWitness,
    ParitySplitWitness,
    PendantWitness,
    block_additive_reg,
    detect_closed_form,
    reg_closed_form,
    reg_parallel,
    verify_bounds,
)
from toricreg.graph import (
    Multigraph,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    parallel_composition,
    path_graph,
)
from toricreg.harness import _formula_for_entry, default_catalog
from toricreg.hilbert import regularity_rank
from toricreg.ideal import ReachTable, regularity_sieve


def test_reg_parallel_all_six_cases():
    # all even
    assert reg_parallel((2, 4), 3) == 2
    assert reg_parallel((2, 2, 2), 5) == 6
    # all odd
    assert reg_parallel((3, 3, 5), 5) == 12
    assert reg_parallel((1, 1), 7) == 0
    # one odd, two paths
    assert reg_parallel((1, 2), 3) == 2
    assert reg_parallel((3, 4), 4) == 12
    # one odd, more than two paths
    assert reg_parallel((1, 2, 2), 3) == 2
    assert reg_parallel((3, 2, 2), 3) == 4
    # several odd, exactly one even
    assert reg_parallel((3, 5, 2), 3) == 5
    # several odd, several even
    assert reg_parallel((3, 3, 2, 2), 3) == 4


def test_reg_parallel_order_insensitive():
    assert reg_parallel((2, 3, 5), 3) == reg_parallel((5, 3, 2), 3)
    assert reg_parallel((2, 1), 4) == reg_parallel((1, 2), 4)


def test_closed_form_rows():
    assert reg_closed_form("tree", (3,), 4).value == 4
    assert reg_closed_form("biclique", (2, 3), 3).value == 2
    assert reg_closed_form("multipartite", (1, 1, 2), 3).value == 2
    assert reg_closed_form("complete", (4,), 3).value == 2
    assert reg_closed_form("cycle", (6,), 4).value == 4
    assert reg_closed_form("cycle", (5,), 3).value == 4  # odd: torus row
    assert reg_closed_form("star", (4,), 5).value == 9
    assert reg_closed_form("parallel", (1, 2), 3).value == 2


def test_complete_graph_n3_is_flagged():
    res = reg_closed_form("complete", (3,), 3)
    assert not res.applicable
    assert "torus" in res.reason


def test_block_additive_examples():
    cactus = Multigraph(
        7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)]
    )
    assert block_additive_reg(cactus, 3, [1, 1]) == 3
    assert block_additive_reg(path_graph(3), 3, [0, 0, 0]) == 2
    assert block_additive_reg(cycle_graph(6), 4, [4]) == 4  # single block
    with pytest.raises(NotApplicableError):
        block_additive_reg(cycle_graph(3), 3, [2])
    with pytest.raises(NotApplicableError):
        block_additive_reg(parallel_composition((1, 1)), 3, [0])
    with pytest.raises(ValueError):
        block_additive_reg(path_graph(3), 3, [0, 0])


def test_detect_closed_form():
    assert detect_closed_form(path_graph(4), 3).value == 3
    assert detect_closed_form(cycle_graph(5), 3).value == 4
    assert detect_closed_form(cycle_graph(6), 3).value == 2
    cactus = Multigraph(
        7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)]
    )
    assert detect_closed_form(cactus, 3).value == 3
    # simplification happens first: a doubled edge is still a tree
    assert detect_closed_form(parallel_composition((1, 1)), 3).value == 0
    assert not detect_closed_form(Multigraph(4, [(0, 1), (2, 3)]), 3).applicable
    assert not detect_closed_form(complete_graph(4), 3).applicable


def test_verify_bounds_rows():
    g = path_graph(3)
    reg = regularity_rank(g, 3).regularity
    rows = verify_bounds(
        g,
        3,
        reg,
        [
            PendantWitness(0),
            ContractionWitness(0, 2),
            CoverWitness((0, 1), (1, 2)),
            IndependentSetWitness((0,)),
            BipartiteBoundWitness(),
        ],
    )
    assert all(r.satisfied for r in rows)
    pendant = rows[0]
    assert pendant.relation == "==" and pendant.lhs == pendant.rhs == 2


def test_parity_split_bound():
    g = parallel_composition((1, 2, 2))
    reg = regularity_rank(g, 3).regularity
    (row,) = verify_bounds(g, 3, reg, [ParitySplitWitness((1, 2, 2))])
    assert row.satisfied and row.lhs == 2 and row.rhs == 2


def test_bound_rows_need_no_sieve(monkeypatch):
    # the bound rows count their derived graphs' tables on their own, so a
    # refused sieve, wherever it is bound, never costs a row
    import sys

    from toricreg import ideal
    from toricreg.errors import TooLargeError

    def refused(*args, **kwargs):
        raise TooLargeError("sieve refused")

    sieve = ideal.regularity_sieve
    for name, module in list(sys.modules.items()):
        if name == "toricreg" or name.startswith("toricreg."):
            for key, value in list(vars(module).items()):
                if value is sieve:
                    monkeypatch.setattr(module, key, refused)
    g = parallel_composition((1, 2, 2))
    witnesses = [
        ContractionWitness(2, 3),
        CoverWitness((0, 1, 2), (2, 3, 4)),
        ParitySplitWitness((1, 2, 2)),
    ]
    rows = verify_bounds(g, 3, regularity_rank(g, 3).regularity, witnesses)
    assert [r.name for r in rows] == ["contraction", "cover", "parity_split"]
    assert all(r.satisfied for r in rows)


def test_independent_set_bound_path5():
    g = path_graph(5)
    reg = regularity_rank(g, 3).regularity
    (row,) = verify_bounds(g, 3, reg, [IndependentSetWitness((1, 4))])
    assert row.satisfied and row.lhs == 4 and row.rhs == 2


def test_invalid_witnesses():
    g = path_graph(3)
    with pytest.raises(InvalidWitnessError):
        verify_bounds(g, 3, 2, [PendantWitness(1)])
    with pytest.raises(InvalidWitnessError):
        verify_bounds(g, 3, 2, [ContractionWitness(0, 1)])
    with pytest.raises(InvalidWitnessError):
        verify_bounds(g, 3, 2, [CoverWitness((0,), (1, 2))])  # no overlap
    with pytest.raises(InvalidWitnessError):
        verify_bounds(g, 3, 2, [CoverWitness((0, 1), (1,))])  # edge 2 uncovered
    with pytest.raises(InvalidWitnessError):
        verify_bounds(g, 3, 2, [IndependentSetWitness((0, 1))])  # adjacent
    with pytest.raises(InvalidWitnessError):
        verify_bounds(g, 3, 2, [IndependentSetWitness((0, 2))])  # no edge left
    with pytest.raises(InvalidWitnessError):
        verify_bounds(cycle_graph(3), 3, 2, [BipartiteBoundWitness()])
    with pytest.raises(InvalidWitnessError):
        verify_bounds(g, 3, 2, [ParitySplitWitness((2, 2))])


def test_bipartite_bound_on_biclique():
    g = complete_bipartite(2, 3)
    reg = regularity_rank(g, 3).regularity
    (row,) = verify_bounds(g, 3, reg, [BipartiteBoundWitness()])
    assert row.satisfied and row.rhs == 2


def test_formula_matches_rank_spot_checks():
    for ks, q in (((1, 3), 3), ((2, 2), 4), ((1, 2, 3), 3), ((3, 3), 4)):
        g = parallel_composition(ks)
        assert reg_parallel(ks, q) == regularity_rank(g, q).regularity


def test_closed_forms_match_the_sieve_on_every_edge(monkeypatch):
    """Every catalog instance with a closed form, at q = 3, 4, 5, 7, 8, 9:
    the value the harness takes equals the sieve on every edge and the
    count.  At q = 3
    the factor q-2 is 1, so only the larger fields tell a product by q-2
    from a quotient.  parallel(4,5) at q = 9, with 8**8 reduced residues,
    is the one table over the default state cap."""
    monkeypatch.delenv("TORICREG_MAX_STATES", raising=False)
    refused = []
    for q in (3, 4, 5, 7, 8, 9):
        for entry in default_catalog():
            fr = _formula_for_entry(entry, q)
            if not fr.applicable:
                continue
            try:
                reach = ReachTable(entry.graph, q)
            except TooLargeError as exc:
                assert "exceed the state cap" in str(exc)
                refused.append((entry.label, q))
                continue
            values = [reach.sieve(e) for e in range(entry.graph.s)]
            assert values == [fr.value] * entry.graph.s, (entry.label, q, fr.rule)
            assert reach.profile().regularity == fr.value, (entry.label, q, fr.rule)
    assert refused == [("parallel(4,5)", 9)]


@pytest.mark.parametrize("q", [4, 5, 7])
def test_two_part_multipartite_is_the_biclique(q):
    for a in range(1, 4):
        for b in range(a, 4):
            value = reg_closed_form("biclique", (a, b), q).value
            assert reg_closed_form("multipartite", (a, b), q).value == value
            assert regularity_sieve(complete_multipartite(a, b), q) == value


@pytest.mark.parametrize("q, k4", [(3, 2), (4, 3), (5, 5), (7, 8)])
def test_complete_graph_rows_at_the_small_ends(q, k4):
    # K2 is one edge, of regularity 0; K4 as four parts of one vertex
    # takes the complete-graph bound ceil(3(q-2)/2)
    assert reg_closed_form("complete", (2,), q).value == 0
    assert regularity_sieve(complete_graph(2), q) == 0
    assert reg_closed_form("multipartite", (1, 1, 1, 1), q).value == k4
    assert regularity_sieve(complete_multipartite(1, 1, 1, 1), q) == k4
