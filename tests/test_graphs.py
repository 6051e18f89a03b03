"""Graph core: degrees, neighborhoods, transforms, graph6, canonical forms."""

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from satlab import (
    CapacityError,
    Graph,
    Graph6ParseError,
    InputError,
    canonical_form,
    common_neighborhood,
    complement,
    complete_graph,
    cycle,
    duplicate_vertex,
    ehm_graph,
    empty_graph,
    from_graph6,
    join,
    path,
    petersen,
    read_graph6_lines,
    star,
    to_graph6,
)
from satlab.graph6 import _graph6_lines, column
from conftest import random_graph
from oracles import brute_canonical_form, graph6_decode_oracle


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


class TestDegrees:
    def test_petersen_is_3_regular(self):
        g = petersen()
        assert all(g.degree(v) == 3 for v in range(10))

    def test_empty_graph_degree(self):
        assert empty_graph(5).degree(0) == 0

    def test_star_center(self):
        g = star(10)
        assert g.degree(0) == 9
        assert g.max_degree() == 9
        assert g.min_degree() == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError):
            empty_graph(3).degree(3)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(g.degrees()) == 2 * g.edge_count()


class TestCommonNeighborhood:
    def test_c5_pair(self):
        assert common_neighborhood(cycle(5), {0, 2}) == {1}

    def test_k4_pair(self):
        assert common_neighborhood(complete_graph(4), {0, 1}) == {2, 3}

    def test_ehm_independent_pair_sees_hubs(self):
        g = ehm_graph(8, 4)  # hubs are vertices 0,1
        assert common_neighborhood(g, {3, 4}) == {0, 1}

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            common_neighborhood(cycle(5), set())

    @given(graphs(max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_from_query_and_inside_neighborhoods(self, g):
        if g.n < 2:
            return
        xs = {0, g.n - 1}
        got = common_neighborhood(g, xs)
        assert not (got & xs)
        for x in xs:
            assert got <= g.neighbors(x)


class TestComplement:
    def test_empty_to_complete(self):
        assert complement(empty_graph(4)) == complete_graph(4)

    def test_c5_self_complementary(self):
        # [DERIVED] brute-force permutation check at n=5
        assert canonical_form(complement(cycle(5))) == canonical_form(cycle(5))

    def test_star_complement(self):
        g = complement(star(4))
        assert g.degree(0) == 0
        assert g.edge_count() == 3  # K_3 plus the isolated old center

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_involution_and_edge_split(self, g):
        assert complement(complement(g)) == g
        assert g.edge_count() + complement(g).edge_count() == g.n * (g.n - 1) // 2


class TestJoin:
    def test_k2_join_empty3(self):
        g = join(complete_graph(2), empty_graph(3))
        assert g.n == 5 and g.edge_count() == 7

    def test_star_as_join(self):
        g = join(empty_graph(1), empty_graph(9))
        assert canonical_form(g) == canonical_form(star(10))

    def test_ehm_edge_formula(self):
        g = join(complete_graph(2), empty_graph(8))
        assert g.edge_count() == 17

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            join(empty_graph(40), empty_graph(40))


class TestDuplicateVertex:
    def test_duplicated_petersen_star_count(self):
        from satlab import count_stars

        assert count_stars(duplicate_vertex(petersen(), 0, 1), 2) == 42

    def test_k2_becomes_path(self):
        g = duplicate_vertex(complete_graph(2), 0, 1)
        assert canonical_form(g) == canonical_form(path(3))

    def test_hoffman_singleton_degrees_after_4(self):
        from satlab import hoffman_singleton

        g = duplicate_vertex(hoffman_singleton(), 0, 4)
        degs = sorted(g.degrees())
        assert g.n == 54
        assert degs.count(11) == 7 and degs.count(7) == 47

    def test_edge_and_vertex_bookkeeping(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9))
            v = rng.randrange(g.n)
            k = rng.randint(1, 3)
            d = duplicate_vertex(g, v, k)
            assert d.n == g.n + k
            assert d.edge_count() == g.edge_count() + k * g.degree(v)

    def test_bad_vertex(self):
        with pytest.raises(InputError):
            duplicate_vertex(complete_graph(2), 2, 1)


class TestGraph6:
    def test_empty_graph_is_question_mark(self):
        assert to_graph6(Graph(0)) == "?"

    def test_k2_roundtrip(self):
        g = complete_graph(2)
        assert from_graph6(to_graph6(g)) == g

    def test_petersen_roundtrip_invariants(self):
        g = from_graph6(to_graph6(petersen()))
        assert g.edge_count() == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_matches_networkx_encoding(self, small_random_graphs):
        for g in small_random_graphs[:60]:
            mine = to_graph6(g)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert mine == theirs

    def test_parses_networkx_output(self):
        h = nx.petersen_graph()
        text = nx.to_graph6_bytes(h, header=True).decode().strip()
        g = from_graph6(text)  # header form accepted
        assert g.edge_count() == 15

    def test_long_form_size(self):
        g = empty_graph(63)
        assert from_graph6(to_graph6(g)) == g

    def test_malformed_reports_offset(self):
        with pytest.raises(Graph6ParseError) as err:
            from_graph6("B")  # n=3 needs one data byte
        assert err.value.offset == 1
        with pytest.raises(Graph6ParseError) as err:
            from_graph6("A" + chr(30))
        assert err.value.offset == 1

    def test_size_beyond_capacity_rejected(self):
        # a well-formed line for the empty graph on 100 vertices
        text = nx.to_graph6_bytes(nx.empty_graph(100), header=False).decode().strip()
        with pytest.raises(CapacityError):
            from_graph6(text)
        with pytest.raises(CapacityError):
            from_graph6(text[:4])  # rejected at the size header, before the data

    @given(graphs(max_n=12))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_identity(self, g):
        assert from_graph6(to_graph6(g)) == g

    def test_non_canonical_8_byte_header_rejected(self):
        # n=0 and n=5 in the 8-byte form; only n > 258047 may use it
        for text in ("~~??????", "~~?????D??"):
            with pytest.raises(Graph6ParseError) as err:
                from_graph6(text)
            assert err.value.offset == 2

    @given(
        st.sampled_from(["", "~", "~~"]),
        st.text(alphabet=st.characters(min_codepoint=58, max_codepoint=129), max_size=24),
    )
    @example("~~", "??????")
    @example("~~", "?????D??")
    @settings(max_examples=400, deadline=None)
    def test_fuzz_parse_or_reject(self, prefix, body):
        text = prefix + body
        try:
            g = from_graph6(text)
        except Graph6ParseError as exc:
            assert 0 <= exc.offset <= len(text)
        except CapacityError:
            pass
        else:
            # a parsed line is the one canonical encoding of its graph
            assert to_graph6(g) == text.removeprefix(">>graph6<<")

    @given(
        st.one_of(graphs(max_n=12), st.integers(63, 64).map(empty_graph)),  # 1- and 4-byte headers
        st.data(),
        # code points above 0xFF too, such as "€"
        st.one_of(st.integers(0x20, 0x3E), st.integers(0x7F, 0xFF),
                  st.integers(0x100, 0x10FFFF)).map(chr),
    )
    @settings(max_examples=200, deadline=None)
    def test_bad_byte_offset(self, g, data, bad):
        text = to_graph6(g)
        k = data.draw(st.integers(0, len(text) - 1))
        with pytest.raises(Graph6ParseError) as err:
            from_graph6(text[:k] + bad + text[k + 1:])
        assert err.value.offset == k

    @given(st.integers(0, 64), st.floats(0, 1), st.randoms(use_true_random=False))
    @example(63, 0.5, random.Random(0))  # the 4-byte size header
    @example(64, 0.5, random.Random(0))
    @settings(max_examples=150, deadline=None)
    def test_printed_text_is_the_reencoding(self, n, p, rng):
        # the text check and count print for a line, in every line form
        bare = to_graph6(random_graph(rng, n, p))
        lines = ["", bare, ">>graph6<<" + bare, bare + "\r\n", "  " + bare + " \t",
                 ">>graph6<<" + bare + "\r\n", "   "]
        pairs = list(_graph6_lines(lines))
        assert [line for line, _ in pairs] == [line.strip() for line in lines if line.strip()]
        for line, text in pairs:
            assert text == to_graph6(from_graph6(line))

    def test_read_lines_skips_blanks_and_strips(self):
        lines = ["", "  " + to_graph6(cycle(5)) + "  ", "\r\n", to_graph6(path(3)) + "\r\n", "   "]
        assert read_graph6_lines(lines) == [cycle(5), path(3)]

    def test_read_lines_passes_parse_errors(self):
        with pytest.raises(Graph6ParseError) as err:
            read_graph6_lines([to_graph6(cycle(5)), "B"])
        assert err.value.offset == 1


def _decode_outcome(decode, text):
    """A decoded graph, or the error's class and offset."""
    try:
        return decode(text)
    except Graph6ParseError as exc:
        return Graph6ParseError, exc.offset
    except CapacityError:
        return CapacityError


class TestGraph6Column:
    """The column walk of ``from_graph6`` against the bit-by-bit decoder
    it replaced (``oracles.graph6_decode_oracle``)."""

    def test_column_is_its_own_inverse(self):
        rng = random.Random(7)
        for j in range(65):
            mask = (1 << j) - 1
            for _ in range(20):
                row = rng.getrandbits(70)
                assert column(column(row, j), j) == row & mask
            if j:
                assert column(1, j) == 1 << (j - 1)  # vertex 0 is the top bit

    def test_matches_oracle_for_every_size(self):
        rng = random.Random(11)
        residues, headers = set(), set()
        for n in range(65):
            for p in (0.0, 0.2, 0.5, 0.8, 1.0):
                g = random_graph(rng, n, p)
                text = to_graph6(g)
                residues.add(n * (n - 1) // 2 % 6)
                headers.add(len(text) - (n * (n - 1) // 2 + 5) // 6)
                for line in (text, ">>graph6<<" + text):
                    assert from_graph6(line) == graph6_decode_oracle(line) == g, (n, p)
        assert residues == {0, 1, 3, 4}  # every residue a C(n,2) takes
        assert headers == {1, 4}

    def test_dense_networkx_graphs(self):
        for n in range(30, 65):
            h = nx.gnp_random_graph(n, 0.9, seed=n)
            text = nx.to_graph6_bytes(h, header=False).decode().strip()
            g = from_graph6(text)
            assert g.n == n
            assert set(g.edges()) == {(min(e), max(e)) for e in h.edges()}

    def test_nonzero_padding_offset(self):
        # n=5: ten data bits in two bytes, the last two bits are padding
        text = to_graph6(cycle(5))
        bad = text[:-1] + chr((ord(text[-1]) - 63 | 1) + 63)
        for line, offset in ((bad, 2), (">>graph6<<" + bad, 12)):
            with pytest.raises(Graph6ParseError, match="padding") as err:
                from_graph6(line)
            assert err.value.offset == offset
            assert _decode_outcome(graph6_decode_oracle, line) == (Graph6ParseError, offset)

    @given(
        st.one_of(graphs(max_n=14), st.integers(60, 64).map(empty_graph)),
        st.lists(
            st.tuples(
                st.sampled_from(["replace", "delete", "insert"]),
                st.integers(0, 400),
                st.characters(min_codepoint=58, max_codepoint=129),
            ),
            max_size=3,
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_lines_match_oracle(self, g, edits, header):
        text = list(to_graph6(g))
        for op, k, ch in edits:
            k %= len(text) + 1
            if op == "insert":
                text.insert(k, ch)
            elif k < len(text):
                if op == "delete":
                    del text[k]
                else:
                    text[k] = ch
        line = (">>graph6<<" if header else "") + "".join(text)
        assert _decode_outcome(from_graph6, line) == _decode_outcome(graph6_decode_oracle, line)


class TestCanonicalForm:
    def test_relabelings_agree(self):
        g1 = path(3)
        g2 = Graph(3, [(1, 0), (0, 2)])
        assert canonical_form(g1) == canonical_form(g2)

    def test_k3_differs_from_p3(self):
        assert canonical_form(complete_graph(3)) != canonical_form(path(3))

    def test_matches_brute_force_all_n_le_5(self):
        for n in range(6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for mask in range(1 << len(pairs)):
                g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                assert canonical_form(g) == brute_canonical_form(g)

    def test_matches_brute_force_sampled_n6_n7(self):
        rng = random.Random(99)
        for n, reps in ((6, 60), (7, 40)):
            for _ in range(reps):
                g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
                assert canonical_form(g) == brute_canonical_form(g)

    def test_invariant_under_random_relabeling(self, small_random_graphs):
        rng = random.Random(7)
        for g in small_random_graphs[:50]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
            assert canonical_form(g) == canonical_form(h)

    def test_agrees_with_networkx_isomorphism(self, small_random_graphs):
        rng = random.Random(11)
        gs = [g for g in small_random_graphs if 4 <= g.n <= 8][:40]
        for i in range(0, len(gs) - 1, 2):
            g, h = gs[i], gs[i + 1]
            if g.n != h.n:
                continue
            gx = nx.Graph()
            gx.add_nodes_from(range(g.n))
            gx.add_edges_from(g.edges())
            hx = nx.Graph()
            hx.add_nodes_from(range(h.n))
            hx.add_edges_from(h.edges())
            assert (canonical_form(g) == canonical_form(h)) == nx.is_isomorphic(gx, hx)
