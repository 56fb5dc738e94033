"""collapsekit: exact collapsibility, domination and Leray-number
computations for simplicial complexes and hypergraph non-cover complexes."""

from .complexes import (
    Face,
    FreePair,
    SimplicialComplex,
    as_face,
    boundary,
    join,
    simplex_on,
)
from .errors import (
    Budget,
    BudgetExceededError,
    HypothesisNotMetError,
    IsolatedVertexError,
    NotAFaceError,
    NotFreeError,
    NotPureError,
    UndominatableError,
    VertexRangeError,
)
from .homology import (
    BettiVector,
    SheddingWitness,
    is_cohen_macaulay,
    is_cohen_macaulay_induced,
    is_homologically_connected,
    is_k_vertex_decomposable,
    is_shellable,
    leray_number,
    reduced_betti,
    verify_shedding_sequence,
)
from .hypergraphs import (
    DominationResult,
    Hypergraph,
    gamma_A,
    gamma_E,
    gamma_i,
    gamma_si,
    gamma_strong,
    gamma_tilde,
    nc_bound_order,
    nc_facet_order,
    non_cover_complex,
    strongly_dominates,
)
from .invariants import (
    CollapseCertificate,
    FacetOrdering,
    canonical_ordering,
    collapsibility_number,
    collapsibility_number_with_certificate,
    d_of_ordering,
    is_d_collapsible,
    m0,
    mes,
    mk,
    mk_chain,
    mk_prime,
)
from .reports import (
    claim_inequality_check,
    mes_equal_check,
    neighbor_inequality_check,
    shedding_leray_inequality_check,
    tancer_inequality_check,
)

__version__ = "0.1.0"
