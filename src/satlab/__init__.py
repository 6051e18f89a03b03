"""satlab: exact desk-scale tools for K_s-saturated graphs.

Construct the named families, count small subgraphs exactly, check
F-freeness and F-saturation with witnesses, compute sat(n, H, F) by
exhaustive isomorph-free search, run the random maximal-F-free process,
and verify the closed-form bounds instance by instance.

The namespace is lazy (PEP 562): ``import satlab`` loads no submodule,
and a public name imports its submodule on first access, so a command
pays at start-up only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it exports through ``satlab``
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "check_k2t_floor",
        "check_k4minus_chain",
        "check_kkko",
        "check_star_bound",
        "degree_square_rhs",
        "ehm_edges",
        "ehm_k22",
        "formula",
        "k12_k3_lower",
        "k12_min",
        "kr_min",
        "star_floor",
    ),
    "canon": ("are_isomorphic", "canonical_form", "canonical_graph"),
    "counting": (
        "BipartitePattern",
        "automorphism_count",
        "codegree_sum",
        "contains_subgraph",
        "count_cliques",
        "count_cycles",
        "count_embeddings",
        "count_k4_minus",
        "count_kab",
        "count_stars",
        "find_subgraph",
    ),
    "errors": (
        "CapacityError",
        "EmptyDomainError",
        "Graph6ParseError",
        "InputError",
        "PreconditionError",
        "SatlabError",
    ),
    "families": (
        "FamilySpec",
        "complete_bipartite",
        "complete_graph",
        "cycle",
        "ehm_graph",
        "empty_graph",
        "hoffman_singleton",
        "make",
        "path",
        "petersen",
        "star",
    ),
    "graph6": ("from_graph6", "read_graph6_lines", "to_graph6"),
    "graphs": (
        "MAX_VERTICES",
        "Graph",
        "codegree",
        "common_neighborhood",
        "complement",
        "degree",
        "disjoint_union",
        "duplicate_vertex",
        "induced_subgraph",
        "join",
    ),
    "patterns": ("format_pattern", "parse_pattern", "pattern_graph"),
    "process": (
        "ProcessTrace",
        "SplitMix64",
        "TrialStats",
        "estimate_expected_count",
        "pair_order",
        "run_ffree_process",
        "shuffled_pair_indices",
    ),
    "saturation": (
        "CliqueWitness",
        "SaturationReport",
        "WitnessHypergraph",
        "build_witness_hypergraph",
        "clique_witness",
        "creates_ks",
        "is_h_saturated",
        "is_ks_free",
        "is_ks_saturated",
    ),
    "search": (
        "SatRecord",
        "brute_force_labeled",
        "count_classes",
        "count_classes_labeled",
        "count_pattern",
        "enumerate_graphs",
        "merge_records",
        "min_count_over_saturated",
        "saturated_stream",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule behind ``name`` and cache the name here."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
