"""Locally balanced edge-colourings of complete graphs.

Constructions of the extremal colourings, exact censuses of the small
coloured patterns that control them, a constructive homogeneous blow-up
extraction pipeline, and desk-scale verification suites with brute-force
oracles.
"""

__version__ = "0.1.0"

from .census import (
    BipartiteColouring,
    C4_KEY,
    C4BAR_KEY,
    CLASS_KEYS,
    P3O_KEY,
    PatternCensus,
    census_k4,
    count_alternating_c4,
    count_m1,
)
from .blowup_finder import (
    BipartiteIncidence,
    BlowupFinderResult,
    CanonicalHypergraph,
    CoverResult,
    canonical_hypergraph,
    find_homogeneous_blowup,
    hypergraph_cover,
    kst_star,
    min_degree_cleanup,
    ramsey_bound,
    ramsey_clique,
)
from .constructions import (
    ResamplingBudgetExceeded,
    SplitCloseness,
    closeness_to_split,
    draw_below,
    make_bipartite_mindeg,
    make_multicolour_cycle,
    make_Pk,
    make_random,
    make_split,
)
from .core import (
    BalanceProfile,
    ColouredCompleteGraph,
    GraphFormatError,
    balance_profile,
    colour_swap,
    graph_from_json,
    graph_to_json,
    is_locally_balanced,
    least_balanced_degree,
)
from .multicolour import (
    SamplerConfig,
    induced_unibalanced,
    min_unibalanced_subgraph,
    min_unibalanced_subgraph_size,
    sample_unibalanced_subset,
)
from .patterns import (
    BlowupWitness,
    InvalidWitnessError,
    SearchBudgetExceeded,
    TotallyColouredPattern,
    blow_up,
    find_pattern_blowup_exhaustive,
    get_pattern,
    induced_edge_pattern,
    pattern_library,
    verify_witness,
)
from .verify import (
    VerificationReport,
    sample_locally_balanced,
    verify_lemma_m1_bound,
    verify_prop_3colourfail,
    verify_prop_cute,
    verify_prop_many_p3c4,
    verify_prop_optimize,
    verify_theorem_anybalanced_small,
)
