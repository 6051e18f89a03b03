"""The package namespace and what start-up loads.

``satlab`` resolves its public names lazily, so these tests pin the
exported names and check, in fresh interpreters, which modules a plain
``import satlab.cli`` and each command actually load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satlab

SRC = Path(__file__).resolve().parent.parent / "src"

API = (
    "BipartitePattern", "BoundReport", "CapacityError", "CliqueWitness",
    "EmptyDomainError", "FamilySpec", "Graph", "Graph6ParseError", "InputError",
    "MAX_VERTICES", "PreconditionError", "ProcessTrace", "SatRecord", "SatlabError",
    "SaturationReport", "SplitMix64", "TrialStats", "WitnessHypergraph",
    "are_isomorphic", "automorphism_count", "brute_force_labeled",
    "build_witness_hypergraph", "canonical_form", "canonical_graph", "check_k2t_floor",
    "check_k4minus_chain", "check_kkko", "check_star_bound", "clique_witness",
    "codegree", "codegree_sum", "common_neighborhood", "complement",
    "complete_bipartite", "complete_graph", "contains_subgraph", "count_classes",
    "count_classes_labeled", "count_cliques", "count_cycles", "count_embeddings",
    "count_k4_minus", "count_kab", "count_pattern", "count_stars", "creates_ks",
    "cycle", "degree", "degree_square_rhs", "disjoint_union", "duplicate_vertex",
    "ehm_edges", "ehm_graph", "ehm_k22", "empty_graph", "enumerate_graphs",
    "estimate_expected_count", "find_subgraph", "format_pattern", "formula",
    "from_graph6", "hoffman_singleton", "induced_subgraph", "is_h_saturated",
    "is_ks_free", "is_ks_saturated", "join", "k12_k3_lower", "k12_min", "kr_min",
    "make", "merge_records", "min_count_over_saturated", "pair_order", "parse_pattern",
    "path", "pattern_graph", "petersen", "read_graph6_lines", "run_ffree_process",
    "saturated_stream", "shuffled_pair_indices", "star", "star_floor", "to_graph6",
)
SUBMODULES = (
    "bounds", "canon", "counting", "errors", "families", "graph6", "graphs",
    "patterns", "process", "saturation", "search",
)


def fresh(code: str) -> list:
    """Run ``code`` in a new interpreter with ``src`` on the path; return
    the JSON of its last stdout line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestNamespaceParity:
    def test_api_is_exported(self):
        assert len(API) == 85
        assert sorted(satlab.__all__) == sorted(API)
        for name in API:
            getattr(satlab, name)

    def test_version(self):
        assert satlab.__version__ == "0.1.0"

    def test_names_and_submodules_resolve_in_a_fresh_interpreter(self):
        probe = (
            "import json, types, satlab\n"
            f"names = {API + SUBMODULES!r}\n"
            "out = {n: type(getattr(satlab, n)).__name__ for n in names}\n"
            "out['__version__'] = satlab.__version__\n"
            "print(json.dumps(out))"
        )
        out = fresh(probe)
        assert out.pop("__version__") == "0.1.0"
        assert set(out) == set(API) | set(SUBMODULES)
        assert {n for n, kind in out.items() if kind == "module"} == set(SUBMODULES)

    def test_from_import(self):
        from satlab import canonical_form, petersen

        assert canonical_form(petersen()) == satlab.canonical_form(satlab.petersen())

    def test_star_import_binds_all(self):
        ns: dict = {}
        exec("from satlab import *", ns)
        ns.pop("__builtins__")
        assert set(ns) == set(satlab.__all__)

    def test_dir_lists_all(self):
        assert set(satlab.__all__) | set(SUBMODULES) <= set(dir(satlab))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            satlab.no_such_name
        with pytest.raises(ImportError):
            exec("from satlab import no_such_name", {})


#: modules that only construct and verify need
HEAVY = ("dataclasses", "inspect", "csv", "satlab.bounds", "satlab.families")


class TestStartupBudget:
    """Which modules load, not how long they take: timings vary with the
    machine, the module set does not."""

    def test_cli_import_and_commands(self):
        probe = (
            "import contextlib, io, json, sys\n"
            f"heavy = {HEAVY!r}\n"
            "def loaded():\n"
            "    return [m for m in heavy if m in sys.modules]\n"
            "import satlab.cli\n"
            "out = {'import': loaded()}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = satlab.cli.main(['search', '--n', '6', '--h', 'k_1_2', '--f', 'k_3'])\n"
            "out['search'] = [code, loaded()]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = satlab.cli.main(\n"
            "        ['verify', '--suite', 'formulas', '--n-max', '5', '--s', '3'])\n"
            "out['verify'] = [code, loaded()]\n"
            "print(json.dumps(out))"
        )
        out = fresh(probe)
        assert out["import"] == []
        code, after_search = out["search"]
        assert code == 0
        assert "satlab.bounds" not in after_search and "dataclasses" not in after_search
        code, after_verify = out["verify"]
        assert code == 0
        assert "satlab.bounds" in after_verify
