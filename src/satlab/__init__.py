"""satlab: exact desk-scale tools for K_s-saturated graphs.

Construct the named families, count small subgraphs exactly, check
F-freeness and F-saturation with witnesses, compute sat(n, H, F) by
exhaustive isomorph-free search, run the random maximal-F-free process,
and verify the closed-form bounds instance by instance.
"""

from .bounds import (
    BoundReport,
    check_k2t_floor,
    check_k4minus_chain,
    check_kkko,
    check_star_bound,
    degree_square_rhs,
    ehm_edges,
    ehm_k22,
    formula,
    k12_k3_lower,
    k12_min,
    kr_min,
    star_floor,
)
from .canon import are_isomorphic, canonical_form, canonical_graph
from .counting import (
    BipartitePattern,
    automorphism_count,
    codegree_sum,
    contains_subgraph,
    count_cliques,
    count_cycles,
    count_embeddings,
    count_k4_minus,
    count_kab,
    count_stars,
    find_subgraph,
)
from .errors import (
    CapacityError,
    EmptyDomainError,
    Graph6ParseError,
    InputError,
    PreconditionError,
    SatlabError,
)
from .families import (
    FamilySpec,
    complete_bipartite,
    complete_graph,
    cycle,
    ehm_graph,
    empty_graph,
    hoffman_singleton,
    make,
    path,
    petersen,
    star,
)
from .graph6 import from_graph6, read_graph6_lines, to_graph6
from .graphs import (
    MAX_VERTICES,
    Graph,
    codegree,
    common_neighborhood,
    complement,
    degree,
    disjoint_union,
    duplicate_vertex,
    induced_subgraph,
    join,
)
from .patterns import format_pattern, parse_pattern, pattern_graph
from .process import (
    ProcessTrace,
    SplitMix64,
    TrialStats,
    estimate_expected_count,
    pair_order,
    run_ffree_process,
    shuffled_pair_indices,
)
from .saturation import (
    CliqueWitness,
    SaturationReport,
    WitnessHypergraph,
    build_witness_hypergraph,
    clique_witness,
    creates_ks,
    is_h_saturated,
    is_ks_free,
    is_ks_saturated,
)
from .search import (
    SatRecord,
    brute_force_labeled,
    count_classes,
    count_classes_labeled,
    count_pattern,
    enumerate_graphs,
    merge_records,
    min_count_over_saturated,
    saturated_stream,
)

__version__ = "0.1.0"
