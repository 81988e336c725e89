"""Degree, Hilbert function and regularity of the graded ring of a
projective toric point set parameterized by a multigraph over GF(q).

Four mutually cross-checking computations: evaluation-matrix ranks,
a residue-reachability sieve on an Artinian quotient, a count of the
residues reached by each degree, and closed-form family formulas, plus a
verification harness for the structural bounds.  The harness names the
four routes once, in its table ``ROUTES``.
"""

from .errors import (
    CeilingExceededError,
    ConsistencyError,
    EdgeExistsError,
    InvalidSpecError,
    InvalidWitnessError,
    NotApplicableError,
    NotHomogeneousError,
    NotPrimePowerError,
    NotSameParityEarError,
    ParseError,
    TooLargeError,
)
from .field import Field, FieldElem, ZERO
from .graph import (
    GraphStats,
    Multigraph,
    ParallelSpec,
    bipartition,
    block_edge_partition,
    blocks,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    connected_components,
    cycle_graph,
    delete_pendant,
    edge_subgraph,
    family,
    graph_stats,
    identify_vertices,
    parallel_composition,
    path_graph,
    simplify,
    star_graph,
)
from .points import PointSet, degree_formula, enumerate_points, evaluate_monomial
from .ideal import (
    ReachTable,
    binomial_in_ideal,
    ear_swap,
    monomial_in_ideal_plus_edge,
    parallel_fg_binomial,
    regularity_count,
    regularity_sieve,
    residue_of,
)
from .hilbert import (
    HilbertProfile,
    hilbert_value,
    monomials_of_degree,
    regularity_rank,
)
from .formulas import (
    BipartiteBoundWitness,
    BoundRow,
    ContractionWitness,
    CoverWitness,
    FormulaResult,
    IndependentSetWitness,
    ParitySplitWitness,
    PendantWitness,
    block_additive_reg,
    detect_closed_form,
    reg_closed_form,
    reg_parallel,
    verify_bounds,
)
from .harness import (
    CatalogEntry,
    RegularityReport,
    SuiteResult,
    default_catalog,
    evaluate_entry,
    load_catalog,
    parse_graph_spec,
    verify_suite,
)

__version__ = "0.1.0"
