"""Freeness/saturation verdicts, clique witnesses, witness hypergraphs."""

import random
from itertools import combinations
from math import comb

import pytest

import satlab.saturation
from satlab import (
    Graph,
    InputError,
    PreconditionError,
    build_witness_hypergraph,
    clique_witness,
    complete_bipartite,
    complete_graph,
    creates_ks,
    cycle,
    ehm_graph,
    empty_graph,
    hoffman_singleton,
    is_h_saturated,
    is_ks_free,
    is_ks_saturated,
    path,
    parse_pattern,
    pattern_graph,
    petersen,
    run_ffree_process,
    star,
)
from satlab.graphs import bits_of
from satlab.saturation import _find_clique
from satlab.search import saturated_classes
from conftest import random_graph, random_tripartite
from oracles import (
    clique_witness_oracle,
    ks_saturated_oracle,
    recursive_find_clique,
    unanchored_is_h_saturated,
)


class TestFreeness:
    def test_petersen_triangle_free(self):
        free, witness = is_ks_free(petersen(), 3)
        assert free and witness is None

    def test_k4_witness(self):
        free, witness = is_ks_free(complete_graph(4), 4)
        assert not free and witness == {0, 1, 2, 3}

    def test_ehm_is_free(self):
        assert is_ks_free(ehm_graph(10, 4), 4) == (True, None)


def _complete_multipartite(rng, n, parts):
    """A complete ``parts``-partite graph on n >= parts vertices whose
    parts are nonempty and shuffled over the labels."""
    perm = list(range(n))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    part = [0] * n
    for pos, v in enumerate(perm):
        part[v] = sum(pos >= c for c in cuts)
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]])


def _planted_clique(rng, n, s, p):
    """G(n, p) with a K_s on s random vertices added."""
    g = random_graph(rng, n, p)
    clique = rng.sample(range(n), s)
    return Graph(n, list(g.edges()) + list(combinations(sorted(clique), 2)))


class TestColourCertificate:
    """``is_ks_free`` returns at once when greedy colouring in ascending
    vertex order fits s-1 classes, and else gives the search's verdict
    and witness."""

    @pytest.fixture
    def clique_calls(self, monkeypatch):
        calls = []
        original = satlab.saturation._find_clique

        def counted(rows, candidates, size):
            calls.append(size)
            return original(rows, candidates, size)

        monkeypatch.setattr(satlab.saturation, "_find_clique", counted)
        return calls

    def test_complete_multipartite_needs_no_search(self, clique_calls):
        rng = random.Random(3201)
        for s in range(3, 7):
            for _ in range(5):
                g = _complete_multipartite(rng, rng.randint(30, 60), s - 1)
                assert is_ks_free(g, s) == (True, None)
        assert clique_calls == []

    def test_ehm_needs_no_search(self, clique_calls):
        for s in range(3, 7):
            for n in (s, 10, 30, 60):
                assert is_ks_free(ehm_graph(n, s), s) == (True, None)
        assert clique_calls == []

    @staticmethod
    def _assert_matches_search(graphs, sizes):
        for g in graphs:
            for s in sizes:
                found = recursive_find_clique(g.rows, g.vertex_mask, s)
                expected = (True, None) if found < 0 else (False, frozenset(bits_of(found)))
                assert is_ks_free(g, s) == expected, (g, s)

    def test_matches_search_on_random_graphs(self, small_random_graphs):
        self._assert_matches_search(small_random_graphs, range(1, 7))

    def test_matches_search_on_tripartite_graphs(self):
        rng = random.Random(3202)
        graphs = [random_tripartite(rng, rng.randint(10, 40), rng.choice([0.5, 0.8, 0.95]))
                  for _ in range(20)]
        self._assert_matches_search(graphs, range(2, 6))

    def test_matches_search_on_planted_cliques(self):
        rng = random.Random(3203)
        graphs = [_planted_clique(rng, rng.randint(10, 40), s, p)
                  for s in range(3, 7) for p in (0.1, 0.3) for _ in range(3)]
        self._assert_matches_search(graphs, range(2, 8))


class TestCreatesKs:
    def test_c5_every_nonedge(self):
        g = cycle(5)
        for u, v in g.non_edges():
            assert creates_ks(g, u, v, 3)

    def test_empty_graph_never(self):
        g = empty_graph(4)
        assert not creates_ks(g, 0, 1, 3)

    def test_ehm_independent_pair(self):
        assert creates_ks(ehm_graph(8, 4), 2, 3, 4)

    def test_existing_edge_rejected(self):
        with pytest.raises(InputError):
            creates_ks(cycle(5), 0, 1, 3)


class TestSaturationReports:
    def test_ehm_sweep(self):
        for s in (3, 4, 5):
            for n in range(5, 13):
                if n < s:
                    continue
                assert is_ks_saturated(ehm_graph(n, s), s).is_saturated

    def test_hoffman_singleton(self):
        assert is_ks_saturated(hoffman_singleton(), 3).is_saturated

    def test_p4_not_saturated(self):
        rep = is_ks_saturated(path(4), 3)
        assert rep.is_free and not rep.is_saturated
        assert rep.saturation_violation == (0, 3)  # lowest failing non-edge

    def test_matches_subset_oracle(self, small_random_graphs):
        for g in small_random_graphs[:35]:
            if g.n > 8:
                continue
            for s in (3, 4):
                assert is_ks_saturated(g, s).is_saturated == ks_saturated_oracle(g, s)


class TestPatternSaturation:
    def test_star_contains_its_own_pattern(self):
        rep = is_h_saturated(star(6), star(3))
        assert not rep.is_free

    def test_c5_k3_pattern_agrees_with_clique_path(self):
        rep = is_h_saturated(cycle(5), complete_graph(3))
        assert rep.is_saturated

    def test_k23_is_k3_saturated(self):
        assert is_h_saturated(complete_bipartite(2, 3), complete_graph(3)).is_saturated

    def test_consistency_with_clique_checker(self):
        for s in (3, 4):
            for n in range(3, 7):
                pattern = complete_graph(s)
                for g, _ in saturated_classes(n, ("clique", s)):
                    assert is_h_saturated(g, pattern).is_saturated
        # and on some non-saturated graphs
        for g in (path(4), cycle(6), empty_graph(5)):
            for s in (3, 4):
                assert (
                    is_h_saturated(g, complete_graph(s)).is_saturated
                    == is_ks_saturated(g, s).is_saturated
                )

    def test_edgeless_pattern_rejected(self):
        with pytest.raises(InputError):
            is_h_saturated(cycle(5), empty_graph(3))

    @pytest.mark.parametrize("token", ["c_3", "c_4", "c_5", "c_6", "k_2_3", "k_1_3",
                                       "g6:C`", "g6:B_", "g6:C^"])
    def test_reports_match_unanchored(self, small_random_graphs, token):
        """Anchored per-non-edge tests give the same report, witnesses
        included, as a full containment test of every g + uv."""
        f = pattern_graph(parse_pattern(token))
        graphs = list(small_random_graphs)
        # F-saturated process outputs, and each with one edge removed
        # (F-free, not saturated), so every report kind is compared
        for seed in range(6):
            g = run_ffree_process(9, token, seed).result
            graphs.append(g)
            if not g.edge_count():  # K_2 + K_1 allows no edge at n = 9
                continue
            u, v = g.edges()[seed % g.edge_count()]
            rows = list(g.rows)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            graphs.append(Graph.from_rows(rows))
        kinds = set()
        for g in graphs:
            rep = is_h_saturated(g, f)
            assert rep == unanchored_is_h_saturated(g, f), (g, token)
            kinds.add((rep.is_free, rep.is_saturated))
        assert kinds == {(False, False), (True, False), (True, True)}


class TestCliqueWitness:
    def test_ehm_hubs(self):
        w = clique_witness(ehm_graph(8, 4), 2, 3, 4)
        assert w.s_set == {0, 1}

    def test_c5_unique_common_neighbor(self):
        assert clique_witness(cycle(5), 0, 2, 3).s_set == {1}

    def test_petersen_unique_path_midpoint(self):
        g = petersen()
        for u, v in g.non_edges()[:10]:
            w = clique_witness(g, u, v, 3)
            (x,) = w.s_set
            assert g.has_edge(u, x) and g.has_edge(v, x)

    def test_lexicographic_determinism(self):
        g = complete_bipartite(3, 3)  # K_3-saturated, many common neighbors
        assert clique_witness(g, 0, 1, 3).s_set == {3}

    def test_unsaturated_raises(self):
        with pytest.raises(PreconditionError):
            clique_witness(path(4), 0, 2, 4)

    def test_clique_order_below_two_rejected(self):
        with pytest.raises(InputError):
            clique_witness(path(4), 0, 2, 1)

    def test_matches_first_subset_oracle_on_saturated_classes(self):
        checked = 0
        for s in (3, 4, 5):
            for n in range(1, 8):
                for g, form in saturated_classes(n, ("clique", s)):
                    for u, v in g.non_edges():
                        expected = clique_witness_oracle(g, u, v, s)
                        assert expected is not None, (form, u, v, s)
                        assert clique_witness(g, u, v, s).s_set == expected, (
                            form, u, v, s
                        )
                        checked += 1
        assert checked == 219

    def test_matches_first_subset_oracle_on_random_graphs(self, small_random_graphs):
        for g in small_random_graphs:
            for u, v in g.non_edges():
                for s in (2, 3, 4, 5):
                    expected = clique_witness_oracle(g, u, v, s)
                    if expected is None:
                        with pytest.raises(PreconditionError):
                            clique_witness(g, u, v, s)
                    else:
                        assert clique_witness(g, u, v, s).s_set == expected


class TestFindCliqueKernel:
    """``_find_clique`` with flat base cases for sizes up to 2 returns
    the mask of the recursion down to size 0, for every size and
    candidate set."""

    @staticmethod
    def _assert_matches_recursion(g, rng):
        masks = [g.vertex_mask, 0] + [rng.getrandbits(g.n) for _ in range(4)]
        for candidates in masks:
            for size in range(-1, 7):
                assert _find_clique(g.rows, candidates, size) == recursive_find_clique(
                    g.rows, candidates, size
                ), (g, candidates, size)

    def test_matches_recursion_on_random_graphs(self, small_random_graphs):
        rng = random.Random(3101)
        for g in small_random_graphs:
            self._assert_matches_recursion(g, rng)

    def test_matches_recursion_on_tripartite_graphs(self):
        rng = random.Random(3102)
        for _ in range(10):
            self._assert_matches_recursion(random_tripartite(rng, rng.randint(30, 60)), rng)

    def test_negative_size_returns_at_once(self):
        # the recursion would walk all 2^30 cliques of K_30 first
        g = complete_graph(30)
        for size in (-1, -2, -30):
            assert _find_clique(g.rows, g.vertex_mask, size) == -1


class TestWitnessHypergraph:
    def test_ehm_independent_center(self):
        hg = build_witness_hypergraph(ehm_graph(10, 4), 2, 4)
        assert hg.edge_count() == 10 - 2 - 1

    def test_ehm_hub_center(self):
        hg = build_witness_hypergraph(ehm_graph(10, 4), 0, 4)
        assert hg.edge_count() == 0

    def test_c5_center(self):
        hg = build_witness_hypergraph(cycle(5), 0, 3)
        assert sorted(sorted(e) for e in hg.edges) == [[1, 2], [3, 4]]

    def test_degree_queries(self):
        hg = build_witness_hypergraph(ehm_graph(10, 4), 2, 4)
        # every edge contains both hubs {0,1}
        assert hg.degree({0, 1}) == hg.edge_count()
        assert hg.degree_with(3, {0, 1}) == 1

    def test_structural_invariants_sweep(self):
        for s in (3, 4, 5):
            for n in range(s, 7):
                for g, _ in saturated_classes(n, ("clique", s)):
                    for v in range(n):
                        hg = build_witness_hypergraph(g, v, s)
                        nv = g.neighbors(v)
                        assert hg.edge_count() == n - g.degree(v) - 1
                        outside_seen = set()
                        for e in hg.edges:
                            assert len(e) == s - 1
                            outside = {u for u in e if u not in nv}
                            assert len(outside) == 1
                            (u,) = outside
                            assert u not in outside_seen and u != v
                            outside_seen.add(u)

    def test_averaging_degree_floor(self):
        # some (a-1)-subset X of N(v) has hypergraph degree at least the mean
        for s, a_values in ((4, (2,)), (5, (2, 3))):
            for n in range(s, 8):
                for g, _ in saturated_classes(n, ("clique", s)):
                    for v in range(n):
                        hg = build_witness_hypergraph(g, v, s)
                        d = g.degree(v)
                        for a in a_values:
                            if d < a - 1:
                                continue
                            best = max(
                                (hg.degree(x) for x in combinations(sorted(g.neighbors(v)), a - 1)),
                                default=0,
                            )
                            lhs = best * comb(d, a - 1)
                            rhs = comb(s - 2, a - 1) * (n - d - 1)
                            assert lhs >= rhs, (n, s, v, a)
