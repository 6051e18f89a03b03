"""Named constructions and their structural identities."""

import networkx as nx
import pytest

from satlab import (
    BipartitePattern,
    FamilySpec,
    InputError,
    canonical_form,
    complete_bipartite,
    count_cycles,
    count_kab,
    count_stars,
    cycle,
    duplicate_vertex,
    ehm_edges,
    ehm_graph,
    ehm_k22,
    hoffman_singleton,
    is_ks_saturated,
    k12_min,
    make,
    petersen,
    star,
)
from satlab.families import FAMILIES


class TestEhmGraph:
    def test_small_star_case(self):
        g = ehm_graph(5, 3)
        assert canonical_form(g) == canonical_form(star(5))
        assert g.edge_count() == 4

    def test_n_equals_s_is_near_complete(self):
        g = ehm_graph(4, 4)
        assert g.edge_count() == 5  # K_4 minus one edge

    def test_saturated_with_formula_edges(self):
        g = ehm_graph(10, 4)
        assert g.edge_count() == 17
        assert is_ks_saturated(g, 4).is_saturated

    def test_saturated_across_range(self):
        for s in range(2, 6):
            for n in range(s, 13):
                assert is_ks_saturated(ehm_graph(n, s), s).is_saturated, (n, s)

    def test_star_count_formula(self):
        for s in range(4, 7):
            for n in range(s, 13):
                assert count_stars(ehm_graph(n, s), 2) == k12_min(n, s)

    def test_k22_count_formula(self):
        for s in range(2, 7):
            for n in range(s, 13):
                got = count_kab(ehm_graph(n, s), BipartitePattern(2, 2))
                assert got == ehm_k22(n, s), (n, s)

    def test_edge_formula(self):
        for s in range(2, 7):
            for n in range(s, 13):
                assert ehm_graph(n, s).edge_count() == ehm_edges(n, s)

    def test_rejects_n_below_s(self):
        with pytest.raises(InputError):
            ehm_graph(3, 4)


class TestMooreGraphs:
    def test_petersen_shape(self):
        g = petersen()
        assert (g.n, g.edge_count()) == (10, 15)
        assert set(g.degrees()) == {3}
        assert count_cycles(g, 3) == 0 and count_cycles(g, 4) == 0
        assert count_cycles(g, 5) == 12  # [DERIVED] permutation oracle
        assert is_ks_saturated(g, 3).is_saturated

    def test_petersen_degree_square_sum(self):
        g = petersen()
        assert sum(d * d for d in g.degrees()) == 90

    def test_petersen_star_count(self):
        assert count_stars(petersen(), 2) == 30

    def test_petersen_matches_networkx(self):
        mine = nx.Graph()
        mine.add_edges_from(petersen().edges())
        assert nx.is_isomorphic(mine, nx.petersen_graph())

    def test_hoffman_singleton_shape(self):
        g = hoffman_singleton()
        assert (g.n, g.edge_count()) == (50, 175)
        assert set(g.degrees()) == {7}
        assert count_cycles(g, 3) == 0 and count_cycles(g, 4) == 0
        assert count_cycles(g, 5) > 0  # girth exactly 5

    def test_hoffman_singleton_star_count(self):
        assert count_stars(hoffman_singleton(), 2) == 1050
        assert 1050 < 1176  # star graph on 50 vertices has C(49,2) copies

    def test_hoffman_singleton_saturated(self):
        assert is_ks_saturated(hoffman_singleton(), 3).is_saturated

    def test_hoffman_singleton_matches_networkx(self):
        mine = nx.Graph()
        mine.add_edges_from(hoffman_singleton().edges())
        assert nx.is_isomorphic(mine, nx.hoffman_singleton_graph())

    def test_hoffman_singleton_byte_reproducible(self):
        # fixed pentagon/pentagram numbering, not just isomorphism type
        from satlab import to_graph6

        assert to_graph6(hoffman_singleton()) == to_graph6(hoffman_singleton())
        assert hoffman_singleton().has_edge(0, 1)
        assert hoffman_singleton().has_edge(25, 27)
        assert hoffman_singleton().has_edge(5 * 2 + 1, 25 + 5 * 3 + (2 * 3 + 1) % 5)

    def test_duplication_keeps_saturation(self):
        for base in (cycle(5), petersen()):
            for k in (1, 2):
                g = duplicate_vertex(base, 1, k)
                assert is_ks_saturated(g, 3).is_saturated


class TestMake:
    def test_star_count_of_star(self):
        g = make(FamilySpec("star", {"n": 11}))
        assert count_stars(g, 2) == 45

    def test_cycle5(self):
        g = make(FamilySpec("cycle", {"n": 5}))
        assert count_stars(g, 2) == 5
        assert is_ks_saturated(g, 3).is_saturated

    def test_complete_bipartite(self):
        g = make(FamilySpec("complete_bipartite", {"a": 2, "b": 3}))
        assert g.edge_count() == 6

    def test_invalid_parameters_name_bound(self):
        with pytest.raises(InputError, match="n >= 3"):
            make(FamilySpec("cycle", {"n": 2}))
        with pytest.raises(InputError, match="missing"):
            make(FamilySpec("ehm", {"n": 5}))
        with pytest.raises(InputError, match="unknown family"):
            make(FamilySpec("moebius", {}))

    def test_every_family_builds_from_the_table(self):
        assert FAMILIES == ("ehm", "star", "cycle", "complete", "complete_bipartite",
                            "empty", "petersen", "hoffman_singleton")
        params = {"n": 6, "s": 4, "a": 2, "b": 3}
        sizes = [make(FamilySpec(fam, params)).n for fam in FAMILIES]
        assert sizes == [6, 6, 6, 6, 5, 6, 10, 50]
