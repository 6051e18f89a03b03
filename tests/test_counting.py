"""Counting operations against independent subset/permutation oracles."""

import random

import pytest

from satlab import (
    BipartitePattern,
    Graph,
    InputError,
    automorphism_count,
    codegree_sum,
    complete_bipartite,
    complete_graph,
    count_cliques,
    count_cycles,
    count_embeddings,
    count_k4_minus,
    count_kab,
    count_stars,
    contains_subgraph,
    cycle,
    empty_graph,
    enumerate_graphs,
    find_subgraph,
    ehm_graph,
    induced_subgraph,
    parse_pattern,
    path,
    pattern_graph,
    petersen,
    star,
    to_graph6,
)
from satlab import counting
from conftest import random_graph, random_tripartite
from oracles import (
    automorphisms_oracle,
    cliques_oracle,
    codegree_sum_oracle,
    combinations_count_kab,
    cycles_oracle,
    embeddings_oracle,
    find_subgraph_oracle,
    k4minus_oracle,
    kab_oracle,
    stars_oracle,
)


class TestStars:
    def test_petersen(self):
        assert count_stars(petersen(), 2) == 30

    def test_above_max_degree_is_zero(self):
        assert count_stars(cycle(6), 3) == 0

    def test_t1_counts_edges(self):
        g = complete_graph(4)
        assert count_stars(g, 1) == 6
        assert count_stars(g, 1) == count_kab(g, BipartitePattern(1, 1))

    def test_matches_oracle(self, small_random_graphs):
        for g in small_random_graphs[:40]:
            for t in (1, 2, 3):
                assert count_stars(g, t) == stars_oracle(g, t)


class TestKab:
    def test_k33_has_nine_c4(self):
        assert count_kab(complete_bipartite(3, 3), BipartitePattern(2, 2)) == 9

    def test_ehm_84(self):
        assert count_kab(ehm_graph(8, 4), BipartitePattern(2, 2)) == 15

    def test_star_has_no_k2t(self):
        for n in (5, 8, 11):
            for t in (2, 3, 4):
                assert count_kab(star(n), BipartitePattern(2, t)) == 0

    def test_matches_oracle(self, small_random_graphs):
        for g in small_random_graphs[:30]:
            for a, b in ((1, 2), (2, 2), (2, 3), (3, 3)):
                assert count_kab(g, BipartitePattern(a, b)) == kab_oracle(g, a, b), (g, a, b)

    def test_consistency_with_stars(self, small_random_graphs):
        for g in small_random_graphs[:30]:
            for t in (1, 2, 3):
                assert count_kab(g, BipartitePattern(1, t)) == count_stars(g, t)

    def test_matches_combinations_counter(self, small_random_graphs):
        for g in small_random_graphs:
            for a in range(1, 5):
                for b in range(a, 5):
                    assert count_kab(g, BipartitePattern(a, b)) == combinations_count_kab(
                        g, a, b
                    ), (g, a, b)

    def test_matches_combinations_counter_on_tripartite_graphs(self):
        # kab_oracle's subset pairs are out of reach at 30-60 vertices
        rng = random.Random(3103)
        for i in range(20):
            g = random_tripartite(rng, rng.randint(30, 60), (1.0, 0.9, 0.6, 0.3)[i % 4])
            for a in range(1, 4):
                for b in range(a, 5):
                    assert count_kab(g, BipartitePattern(a, b)) == combinations_count_kab(
                        g, a, b
                    ), (g, a, b)


class TestK4Minus:
    def test_itself(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert count_k4_minus(g) == 1

    def test_k4_has_none(self):
        assert count_k4_minus(complete_graph(4)) == 0

    def test_ehm_64(self):
        assert count_k4_minus(ehm_graph(6, 4)) == 6

    def test_matches_oracle(self, small_random_graphs):
        for g in small_random_graphs[:40]:
            assert count_k4_minus(g) == k4minus_oracle(g)


class TestCodegreeSum:
    def test_k4(self):
        assert codegree_sum(complete_graph(4), 2) == 6

    def test_girth5_is_zero(self):
        assert codegree_sum(cycle(5), 2) == 0
        assert codegree_sum(petersen(), 2) == 0

    def test_bipartite_edges_have_codegree_zero(self):
        assert codegree_sum(complete_bipartite(2, 3), 2) == 0

    def test_matches_oracle(self, small_random_graphs):
        for g in small_random_graphs[:40]:
            for t in (2, 3):
                assert codegree_sum(g, t) == codegree_sum_oracle(g, t)

    def test_rejects_t_below_2(self):
        with pytest.raises(InputError):
            codegree_sum(complete_graph(3), 1)


class TestCliques:
    def test_ehm_edges_as_2cliques(self):
        assert count_cliques(ehm_graph(10, 4), 2) == 17

    def test_ehm_triangles(self):
        assert count_cliques(ehm_graph(10, 5), 3) == 22

    def test_triangle_free(self):
        assert count_cliques(petersen(), 3) == 0

    def test_matches_oracle(self, small_random_graphs):
        for g in small_random_graphs[:40]:
            for r in (2, 3, 4):
                assert count_cliques(g, r) == cliques_oracle(g, r)


class TestCycles:
    def test_c5(self):
        assert count_cycles(cycle(5), 5) == 1

    def test_petersen_pentagons(self):
        assert count_cycles(petersen(), 5) == 12

    def test_k4_triangles(self):
        assert count_cycles(complete_graph(4), 3) == 4

    def test_r_out_of_range(self):
        with pytest.raises(InputError):
            count_cycles(cycle(5), 9)

    def test_matches_oracle(self, small_random_graphs):
        for g in small_random_graphs[:25]:
            for r in (3, 4, 5):
                assert count_cycles(g, r) == cycles_oracle(g, r), (g, r)

    def test_matches_oracle_long_cycles(self, small_random_graphs):
        rng = random.Random(3)
        for _ in range(6):
            g = random_graph(rng, 7, 0.5)
            for r in (6, 7):
                assert count_cycles(g, r) == cycles_oracle(g, r)


class TestEmbeddings:
    def test_star_pattern_equals_count_stars(self, small_random_graphs):
        for g in small_random_graphs[:20]:
            assert count_embeddings(g, star(3)) == count_stars(g, 2)

    def test_k23_in_itself(self):
        assert count_embeddings(complete_bipartite(2, 3), complete_bipartite(2, 3)) == 1

    def test_p4_in_c5(self):
        assert count_embeddings(cycle(5), path(4)) == 5

    def test_cross_identities(self, small_random_graphs):
        for g in small_random_graphs[:20]:
            assert count_embeddings(g, cycle(5)) == count_cycles(g, 5)
            assert count_embeddings(g, complete_graph(3)) == count_cliques(g, 3)
            assert count_embeddings(g, complete_bipartite(2, 2)) == count_kab(
                g, BipartitePattern(2, 2)
            )

    def test_matches_oracle(self, small_random_graphs):
        patterns = [path(3), path(4), cycle(4), complete_graph(3), star(4)]
        gs = [g for g in small_random_graphs if g.n <= 7][:12]
        for g in gs:
            for f in patterns:
                assert count_embeddings(g, f) == embeddings_oracle(g, f), (g, f)

    def test_disconnected_pattern(self):
        from satlab import disjoint_union

        f = disjoint_union(complete_graph(2), complete_graph(2))
        # pairs of disjoint edges in C_5: 5 in total
        assert count_embeddings(cycle(5), f) == 5

    def test_pattern_cap(self):
        with pytest.raises(InputError):
            count_embeddings(complete_graph(9), complete_graph(9))

    def test_find_subgraph_pattern_cap(self):
        g, f = complete_graph(10), path(9)
        with pytest.raises(InputError) as found:
            find_subgraph(g, f)
        with pytest.raises(InputError) as contained:
            contains_subgraph(g, f)
        assert str(found.value) == str(contained.value)
        # the cap itself is allowed
        assert find_subgraph(g, path(8)) is not None

    def test_find_subgraph_witness_matches_oracle(self, small_random_graphs):
        patterns = [cycle(4), cycle(5), complete_graph(3), complete_graph(4),
                    complete_bipartite(2, 3), path(4)]
        hits = 0
        for g in small_random_graphs:
            for f in patterns:
                found = find_subgraph(g, f)
                assert found == find_subgraph_oracle(g, f), (g, f)
                hits += found is not None
        assert hits > 100  # most cases find a copy, so witnesses are compared

    def test_find_subgraph_pattern_larger_than_host(self):
        # no early exit: the unanchored kernels decide these by searching
        cases = [(complete_graph(4), path(5)), (complete_graph(2), path(3)),
                 (complete_graph(3), cycle(4)), (complete_graph(5), complete_bipartite(2, 4))]
        for g, f in cases:
            assert find_subgraph(g, f) is None
            assert find_subgraph_oracle(g, f) is None
            assert count_embeddings(g, f) == 0
            assert not contains_subgraph(g, f)
            assert not contains_subgraph(g, f, through=(0, 1))


class TestMonotonicityLemmas:
    def test_kab_at_most_connected_bipartite_pattern(self, small_random_graphs):
        k23_minus_e = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
        cases = [
            (BipartitePattern(2, 2), path(4)),
            (BipartitePattern(3, 3), cycle(6)),
            (BipartitePattern(2, 3), k23_minus_e),
        ]
        for g in small_random_graphs[:30]:
            for pat, f in cases:
                assert count_kab(g, pat) <= count_embeddings(g, f)

    def test_embedding_count_degree_bound(self, small_random_graphs):
        k23_minus_e = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
        cases = [(path(4), 4), (cycle(6), 6), (k23_minus_e, 5)]
        for g in small_random_graphs[:30]:
            for f, ab in cases:
                assert count_embeddings(g, f) <= g.n * g.max_degree() ** (ab - 1)

    def test_k2t_codegree_floor_t_ge_3(self, small_random_graphs):
        for g in small_random_graphs[:30]:
            for t in (3, 4):
                assert count_kab(g, BipartitePattern(2, t)) >= codegree_sum(g, t)


#: patterns for the anchored search: every cycle length, two patterns
#: with two vertex orbits, a path, a disconnected pattern and one with an
#: isolated vertex
ANCHOR_PATTERNS = {
    **{t: pattern_graph(parse_pattern(t))
       for t in ("c_3", "c_4", "c_5", "c_6", "c_7", "c_8", "k_2_3", "k_1_3",
                 "g6:C`", "g6:B_")},
    "path_4": path(4),
}


def _toggled(g, u, v):
    """g - uv for an edge uv, g + uv for a non-edge."""
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph.from_rows(rows)


#: every pattern with at least one edge on at most 5 vertices
SMALL_PATTERNS = [f for n in range(2, 6) for f in enumerate_graphs(n) if f.edge_count()]


def _anchor_outcomes(f, graphs, count):
    """Check ``contains_subgraph`` on every edge and non-edge anchor, both
    ways round, and every vertex anchor of ``graphs`` against ``count``
    differences; return the sets of edge, non-edge and vertex verdicts
    seen."""
    edge_outcomes, non_edge_outcomes, vertex_outcomes = set(), set(), set()
    for g in graphs:
        base = count(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                other = count(_toggled(g, u, v))
                if g.rows[u] >> v & 1:
                    want = other < base
                    edge_outcomes.add(want)
                else:
                    want = other > base
                    non_edge_outcomes.add(want)
                assert contains_subgraph(g, f, through=(u, v)) is want, (g, u, v)
                assert contains_subgraph(g, f, through=(v, u)) is want, (g, v, u)
        for w in range(g.n):
            rest = induced_subgraph(g, [x for x in range(g.n) if x != w])
            want = count(rest) < base
            assert contains_subgraph(g, f, through=(w,)) is want, (g, w)
            vertex_outcomes.add(want)
    return edge_outcomes, non_edge_outcomes, vertex_outcomes


class TestAnchoredContainment:
    """``contains_subgraph(g, f, through=...)`` against copy counts: for
    an edge uv some copy uses uv iff g has more copies than g - uv, for a
    non-edge uv some copy in g + uv uses uv iff g + uv has more copies
    than g, and some copy uses the vertex w iff g has more than g - w."""

    def test_named_patterns(self):
        assert ANCHOR_PATTERNS["g6:C`"].edges() == [(0, 1), (2, 3)]
        assert ANCHOR_PATTERNS["g6:B_"].edges() == [(0, 1)]
        assert ANCHOR_PATTERNS["g6:B_"].n == 3

    @pytest.mark.parametrize("name", sorted(ANCHOR_PATTERNS))
    def test_matches_count_difference(self, small_random_graphs, name):
        f = ANCHOR_PATTERNS[name]
        if name in ("c_6", "c_7", "c_8"):
            # count_embeddings takes about a minute here; count_cycles
            # gives the same count ~2r times faster
            def count(g):
                return count_cycles(g, f.n)
        else:
            def count(g):
                return count_embeddings(g, f)
        edge_outcomes, non_edge_outcomes, _ = _anchor_outcomes(f, small_random_graphs, count)
        assert edge_outcomes == non_edge_outcomes == {False, True}

    @pytest.mark.parametrize("f", SMALL_PATTERNS, ids=to_graph6)
    def test_every_small_pattern(self, small_random_graphs, f):
        # every pattern with an edge on at most 5 vertices, on the hosts
        # of 5 to 7 vertices and on K_6, which holds a copy through each
        # of its vertices and edges
        hosts = [g for g in small_random_graphs if 5 <= g.n <= 7][:12] + [complete_graph(6)]
        edge_outcomes, non_edge_outcomes, vertex_outcomes = _anchor_outcomes(
            f, hosts, lambda g: count_embeddings(g, f))
        assert True in edge_outcomes and True in non_edge_outcomes and True in vertex_outcomes

    def test_edgeless_pattern(self):
        g, f = complete_graph(4), empty_graph(3)
        assert contains_subgraph(g, f)
        assert not contains_subgraph(g, f, through=(0, 1))
        assert contains_subgraph(g, f, through=(0,))
        assert not contains_subgraph(g, empty_graph(0), through=(0,))

    def test_pattern_larger_than_host(self):
        g, f = complete_graph(4), cycle(5)
        assert not contains_subgraph(g, f)
        assert not contains_subgraph(g, f, through=(0, 1))
        assert not contains_subgraph(g, f, through=(2,))

    def test_non_edge_anchor(self):
        # a non-edge anchor answers for g + uv: C_4 + 02 has the path 1-0-2
        # through 02, and K_3 has none through a non-edge of a matching
        g = cycle(4)
        assert contains_subgraph(g, path(3))
        assert contains_subgraph(g, path(3), through=(0, 2))
        assert contains_subgraph(g, path(3), through=(2, 0))
        assert contains_subgraph(g, path(3), through=(0, 1))
        matching = Graph(4, [(0, 1), (2, 3)])
        assert not contains_subgraph(matching, complete_graph(3), through=(0, 2))
        assert contains_subgraph(matching, path(3), through=(0, 2))

    def test_bad_anchor_rejected(self):
        g = cycle(5)
        for through in ((0, 1, 2), (5,), (-1,), (1, 1), (0, 5)):
            with pytest.raises(InputError):
                contains_subgraph(g, cycle(3), through=through)

    def test_orbit_representatives(self):
        # (pattern, vertex orbits, arc orbits) of Aut(F)
        cases = [
            (cycle(5), 1, 1),
            (complete_graph(4), 1, 1),
            (complete_bipartite(2, 3), 2, 2),
            (star(4), 2, 2),
            (path(4), 2, 3),
            (ANCHOR_PATTERNS["g6:C`"], 1, 1),
            (ANCHOR_PATTERNS["g6:B_"], 2, 1),
            (empty_graph(3), 1, 0),
        ]
        for f, vertex_orbits, arc_orbits in cases:
            plan = counting._plan(f.rows)
            assert len(plan.anchored(1)) == vertex_orbits, f
            assert len(plan.anchored(2)) == arc_orbits, f
            # each rooted order starts at its anchors and lists every
            # pattern vertex once
            for k in (1, 2):
                for rooted in plan.anchored(k):
                    assert sorted(rooted.order) == list(range(f.n))

    def test_k2_anchored_on_its_own_edge(self):
        # both slots of K_2 are anchors: uv is a copy in g + uv at once,
        # whether or not it is an edge of g
        g = path(3)
        k2 = complete_graph(2)
        for through in ((0, 1), (1, 0), (2, 1), (0, 2), (2, 0)):
            assert contains_subgraph(g, k2, through=through) is True, through
        assert contains_subgraph(empty_graph(2), k2, through=(0, 1)) is True

    def test_last_position_without_earlier_neighbour(self, small_random_graphs):
        # K_2 plus an isolated vertex: the last position takes any unused
        # vertex, so there are e(g) * (n - 2) copies
        f = ANCHOR_PATTERNS["g6:B_"]
        assert counting._plan(f.rows).full.back[-1] == ()
        for g in small_random_graphs:
            want = g.edge_count() * max(g.n - 2, 0)
            assert count_embeddings(g, f) == want, g
            assert (find_subgraph(g, f) is not None) == (want > 0), g
            assert find_subgraph(g, f) == find_subgraph_oracle(g, f), g

    def test_counts_match_oracles(self, small_random_graphs):
        patterns = [complete_graph(2), path(3), ANCHOR_PATTERNS["g6:B_"],
                    ANCHOR_PATTERNS["g6:C`"], cycle(4), star(4), complete_bipartite(2, 3)]
        for f in patterns:
            assert automorphism_count(f) == automorphisms_oracle(f), f
        counted = 0
        for g in small_random_graphs:
            if g.n > 7:
                continue
            for f in patterns:
                got = count_embeddings(g, f)
                assert got == embeddings_oracle(g, f), (g, f)
                counted += got > 0
        assert counted > 50

    def test_plan_built_once_per_pattern(self, small_random_graphs, monkeypatch):
        orders, searches = [], []
        real_order, real_count = counting._embedding_order, counting._count

        def order(f, roots=()):
            orders.append(roots)
            return real_order(f, roots)

        def count(rows, free, back, image, i):
            if i == 0:  # a search, not one of its recursive steps
                searches.append(rows)
            return real_count(rows, free, back, image, i)

        monkeypatch.setattr(counting, "_embedding_order", order)
        monkeypatch.setattr(counting, "_count", count)
        counting._plan.cache_clear()
        graphs = small_random_graphs[:10]
        for g in graphs:
            # an equal pattern built anew each time shares the plan
            assert count_embeddings(g, cycle(6)) == count_cycles(g, 6)
        counting._plan.cache_clear()
        assert orders == [()]
        # one search per host graph, and one for |Aut(C_6)|
        assert len(searches) == len(graphs) + 1
        assert searches.count(cycle(6).rows) == 1
