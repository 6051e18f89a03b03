"""Enumeration integrity and exact sat(n, H, F) values."""

import hashlib

import networkx as nx
import pytest

import satlab.process
import satlab.search
from satlab import (
    EmptyDomainError,
    InputError,
    SatRecord,
    brute_force_labeled,
    canonical_form,
    count_classes,
    count_classes_labeled,
    count_pattern,
    cycle,
    ehm_graph,
    enumerate_graphs,
    estimate_expected_count,
    from_graph6,
    merge_records,
    min_count_over_saturated,
    parse_pattern,
    pattern_graph,
    petersen,
    run_ffree_process,
    to_graph6,
)
from satlab.graphs import Graph
from satlab.saturation import is_ks_saturated
from satlab.search import (
    MAX_ENUM_VERTICES,
    MAX_KS_SEARCH_VERTICES,
    MAX_PATTERN_SEARCH_VERTICES,
    _enumerate,
    _forbidden,
    _keep_ks_free,
    _keep_pattern_free,
    ks_search_cap,
    saturated_classes,
    saturated_stream,
)
from oracles import (
    class_count_burnside,
    dedup_enumerate,
    filter_then_test_stream,
    ks_saturated_oracle,
    unanchored_is_h_saturated,
    unanchored_keep_pattern_free,
    unanchored_saturated_stream,
)

# classes of simple graphs on 1..8 vertices; 1..7 re-derived from the
# labeled oracle in the acceptance suite, n=8 cross-checked by the
# orbit-count audit below
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


class TestEnumeration:
    def test_class_counts_small(self):
        for n in range(1, 8):
            assert count_classes(n) == CLASS_COUNTS[n]

    def test_n4_has_eleven(self):
        assert count_classes(4) == 11

    def test_one_graph_per_class_n6(self):
        forms = [canonical_form(g) for g in enumerate_graphs(6)]
        assert len(forms) == len(set(forms)) == 156
        assert forms == sorted(forms)  # canonical stream order

    def test_matches_burnside(self):
        for n in range(1, 7):
            assert count_classes(n) == class_count_burnside(n)

    def test_matches_networkx_atlas(self):
        counts = {}
        for g in nx.graph_atlas_g()[1:]:
            counts[g.number_of_nodes()] = counts.get(g.number_of_nodes(), 0) + 1
        for n in range(1, 8):
            assert count_classes(n) == counts[n]

    def test_labeled_scan_agrees(self):
        for n in range(1, 7):
            assert count_classes_labeled(n) == CLASS_COUNTS[n]

    def test_rejects_large_n(self):
        with pytest.raises(InputError):
            list(enumerate_graphs(11))

    def test_cap_is_nine(self):
        # n=10 has 12,005,168 classes: the enumeration would not finish
        assert MAX_ENUM_VERTICES == 9
        with pytest.raises(InputError):
            next(enumerate_graphs(10))

    def test_filtered_enumeration_equals_filtered_full(self):
        # hereditary pruning must not lose any K_3-free class
        for n in range(2, 7):
            pruned = {canonical_form(g) for g in _enumerate(n, _keep_ks_free(3))}
            full = {
                canonical_form(g)
                for g in enumerate_graphs(n)
                if is_ks_free_quick(g)
            }
            assert pruned == full


class TestOrderlyAgainstDedup:
    """Orderly generation reproduces the per-level dedup stream exactly."""

    @pytest.mark.parametrize(
        "keep",
        [None, _keep_ks_free(3), _keep_ks_free(4), _keep_pattern_free(cycle(4))],
        ids=["unfiltered", "k3_free", "k4_free", "c4_free"],
    )
    def test_same_stream_in_order(self, keep):
        for n in range(8):
            orderly = [g.rows for g in _enumerate(n, keep)]
            assert orderly == [g.rows for g in dedup_enumerate(n, keep)], n


class TestSaturationAwareLastLevels:
    """Deciding K_s-saturation on the last two levels, ahead of the
    canonicity test, reproduces filter-then-test pair by pair, in order."""

    @pytest.mark.parametrize("s,n_max", [(2, 9), (3, 9), (4, 9), (5, 8)])
    def test_same_stream_in_order(self, s, n_max):
        for n in range(1, n_max + 1):
            got = [(g.rows, form) for g, form in saturated_stream(n, ("clique", s))]
            want = [(g.rows, form) for g, form in filter_then_test_stream(n, s)]
            assert got == want, (s, n)

    def test_maximal_triangle_free_class_counts(self):
        # Brandt, Brinkmann and Harmuth, Graphs Combin. 16 (2000); OEIS A216783
        for n, count in {8: 10, 9: 16, 10: 31, 11: 61}.items():
            assert len(saturated_classes(n, ("clique", 3))) == count, n

    def test_petersen_is_the_unique_cherry_minimum_at_ten(self):
        # the Moore graph of diameter 2 and girth 5 beats the star (36)
        r = min_count_over_saturated(10, "k_1_2", "k_3")
        assert r.min_count == 30 == count_pattern(petersen(), parse_pattern("k_1_2"))
        assert r.extremal == (canonical_form(petersen()),) == ("I?LRCecq?",)
        assert r.searched == 31

    def test_per_s_caps(self):
        assert MAX_KS_SEARCH_VERTICES == {2: 16, 3: 12, 4: 10}
        assert ks_search_cap(5) == ks_search_cap(12) == 10
        for s in (2, 3, 4, 5, 6, 12):
            with pytest.raises(InputError):
                next(saturated_stream(ks_search_cap(s) + 1, ("clique", s)))

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_last_level_verdicts(self, s):
        _assert_last_level_verdicts(f"k_{s}")

    @pytest.mark.parametrize("s,digest", [
        (3, "552ac77442df34e3eb47e629b885ee704c48c3e4d722a2e97e2d73974fbdc9ec"),
        (4, "64bd3d227b4e82f7b4f6386dacabcd984b0ba2053f72cf15180ac65200ea61f3"),
        (5, "721b49b8af5b6bc46c1a95e4d0507ecff9af576a71126929fe74e732e04c353b"),
    ], ids=["k_3", "k_4", "k_5"])
    def test_n10_stream_is_pinned(self, s, digest):
        # sha256 of the (rows, form) list at n = 10, above the
        # filter-then-test comparison (n <= 9 for K_3 and K_4, n <= 8 for
        # K_5); 31, 111 and 50 classes
        pairs = [(g.rows, form) for g, form in saturated_stream(10, ("clique", s))]
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    def test_source_graphs_are_still_tested(self):
        # the last-level checks only run on enumerated graphs
        pairs = list(saturated_stream(5, ("clique", 3), source=[cycle(5), ehm_graph(5, 4)]))
        assert [form for _, form in pairs] == [canonical_form(cycle(5))]


def _oracle_verdict(spec):
    """F-saturation decided without the search's look-ahead: subset scans
    for K_s, full containment tests for any other F."""
    if spec[0] == "clique":
        return lambda g: ks_saturated_oracle(g, spec[1])
    f = pattern_graph(spec)
    return lambda g: unanchored_is_h_saturated(g, f).is_saturated


def _assert_last_level_verdicts(token):
    # the last-level check on every child the filter keeps, n <= 7
    spec = parse_pattern(token)
    _, _, keep, check, _ = _forbidden(spec)
    saturated = _oracle_verdict(spec)
    verdicts = []

    def complete(rows, n, state):
        verdict = check.complete(rows, n, state)
        assert verdict == saturated(Graph._from_rows_unchecked(n, rows)), rows
        verdicts.append(verdict)
        return verdict

    for n in range(2, 8):
        for _ in _enumerate(n, keep, check._replace(complete=complete)):
            pass
    assert True in verdicts and False in verdicts


def is_ks_free_quick(g):
    from satlab import is_ks_free

    return is_ks_free(g, 3)[0]


class TestAnchoredPatternSearch:
    """Child filters anchored on the new vertex and saturation tests
    anchored on each non-edge, run on the last level ahead of the
    canonicity test, reproduce the stream of full containment tests on
    every class, pair by pair and in order."""

    # g6:C^ is K_4 minus an edge, g6:C` is 2K_2, g6:Ch is the path on 4
    # vertices, g6:B_ is K_2 plus an isolated vertex, g6:Cg is P_3 plus one
    @pytest.mark.parametrize(
        "token", ["c_4", "c_5", "k_2_3", "k_1_3", "g6:C^", "g6:C`", "g6:Ch", "c_6",
                  "k_3_3", "c_7", "g6:B_", "g6:Cg"]
    )
    def test_same_stream_in_order(self, token):
        for n in range(9 if token in ("c_4", "k_1_3") else 8):
            got = [(g.rows, form) for g, form in saturated_stream(n, parse_pattern(token))]
            want = [(g.rows, form) for g, form in unanchored_saturated_stream(n, token)]
            assert got == want, (token, n)

    @pytest.mark.parametrize("token,digest", [
        ("c_4", "153763e07289f09ae3ce21ca378217534006f5e2fb2cd7cb6bae21309347dffa"),
        ("c_5", "809fd11e9ba48dffb717342175d4831c44bd4a83eec5fa384269d5fcd53b103e"),
        ("k_2_3", "b24becafe52f332d7d57ee9256bdda9d711578d040f2e83045ecf963cfa95cfb"),
    ], ids=["c_4", "c_5", "k_2_3"])
    def test_n9_pattern_stream_is_pinned(self, token, digest):
        # sha256 of the (rows, form) list at n = 9, above the n <= 8
        # comparison with full containment tests; 34, 64 and 103 classes
        pairs = [(g.rows, form) for g, form in saturated_stream(9, parse_pattern(token))]
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    @pytest.mark.parametrize("token", ["c_4", "k_2_3", "g6:C`"])
    def test_last_level_verdicts(self, token):
        _assert_last_level_verdicts(token)

    @pytest.mark.parametrize("token,n_max", [
        ("c_4", 8), ("c_5", 7), ("k_2_3", 7), ("k_1_3", 7), ("c_6", 7), ("g6:C^", 7),
        ("g6:C`", 7), ("g6:Ch", 7), ("g6:B_", 7), ("g6:Cg", 7),
        ("k_3", 8), ("k_4", 8), ("k_5", 8),
    ])
    def test_lookahead_rules_are_exact(self, token, n_max):
        # every level n-1 graph that need drops has no saturated child in
        # the unhooked stream, and complete on the carried pairs gives the
        # full verdict; both F kinds share the rules
        spec = parse_pattern(token)
        _, _, keep, check, _ = _forbidden(spec)
        saturated = _oracle_verdict(spec)
        fired = {"carry": 0, "drop": 0}
        for n in range(2, n_max + 1):
            dropped = set()

            def need(rows, k):
                pairs = check.need(rows, k)
                if pairs is None:
                    dropped.add(rows)
                    return None
                non_edges = k * (k - 1) // 2 - sum(r.bit_count() for r in rows) // 2
                fired["carry"] += len(pairs) < non_edges
                return pairs

            def complete(rows, n, pairs):
                verdict = check.complete(rows, n, pairs)
                assert verdict == saturated(Graph._from_rows_unchecked(n, rows)), rows
                return verdict

            for _ in _enumerate(n, keep, check._replace(need=need, complete=complete)):
                pass
            low = (1 << (n - 1)) - 1
            for g in _enumerate(n, keep):
                if tuple(r & low for r in g.rows[:-1]) in dropped:
                    assert not saturated(g), (token, g.rows)
            fired["drop"] += len(dropped)
        if token in ("k_3", "k_4", "c_4", "k_2_3"):
            assert fired["carry"] > 0 and fired["drop"] > 0, fired

    def test_search_cap(self):
        assert MAX_PATTERN_SEARCH_VERTICES == 9
        with pytest.raises(InputError, match="n <= 9 for pattern F"):
            next(saturated_stream(10, parse_pattern("c_4")))
        # F past its own size cap, though n <= 1 builds no child to test
        for n in (0, 1):
            with pytest.raises(InputError, match="beyond the 8 cap"):
                next(saturated_stream(n, parse_pattern("k_4_5")))

    @pytest.mark.parametrize("token", ["c_4", "c_5", "k_2_3", "k_1_3"])
    def test_child_filter_verdicts(self, token):
        f = pattern_graph(parse_pattern(token))
        fast, slow = _keep_pattern_free(f), unanchored_keep_pattern_free(f)
        verdicts = []

        def keep(prows, k, subset):
            child = fast(prows, k, subset)
            assert child == slow(prows, k, subset), (prows, subset)
            verdicts.append(child is not None)
            return child

        for _ in _enumerate(7, keep):
            pass
        assert True in verdicts and False in verdicts


class TestPatternTokens:
    def test_cycle_lengths_within_counting_range(self):
        assert parse_pattern("c_3") == ("cycle", 3)
        assert parse_pattern("c_8") == ("cycle", 8)

    @pytest.mark.parametrize("token", ["c_2", "c_9", "c_12"])
    def test_cycle_lengths_outside_range_rejected(self, token):
        with pytest.raises(InputError):
            parse_pattern(token)


class TestMinCount:
    def test_n5_k12_k3(self):
        r = min_count_over_saturated(5, "k_1_2", "k_3")
        assert r.min_count == 5
        assert r.extremal == (canonical_form(cycle(5)),)
        assert r.searched == 3  # C_5, K_{1,4}, K_{2,3}

    def test_n6_edges_k3(self):
        r = min_count_over_saturated(6, "k_2", "k_3")
        assert r.min_count == 5

    def test_monotone_sanity_star_edges(self):
        # the minimum-edge triangle-saturated graph is the star: n-1 edges
        for n in range(3, 8):
            assert min_count_over_saturated(n, "k_2", "k_3").min_count == n - 1

    def test_n6_k12_k4_unique(self):
        r = min_count_over_saturated(6, "k_1_2", "k_4")
        assert r.min_count == 24
        assert r.extremal == (canonical_form(ehm_graph(6, 4)),)

    def test_every_extremal_is_saturated_with_min_count(self):
        r = min_count_over_saturated(6, "k_1_2", "k_3")
        h = parse_pattern("k_1_2")
        for form in r.extremal:
            g = from_graph6(form)
            assert is_ks_saturated(g, 3).is_saturated
            assert count_pattern(g, h) == r.min_count

    def test_ollmann_c4_edges(self):
        # sat(n, C_4) = floor((3n - 5) / 2) for n >= 5 (Ollmann 1972)
        for n in range(5, MAX_PATTERN_SEARCH_VERTICES + 1):
            assert min_count_over_saturated(n, "k_2", "c_4").min_count == (3 * n - 5) // 2, n

    def test_pattern_f(self):
        # K_3 as an explicit pattern graph must agree with the clique path
        r1 = min_count_over_saturated(6, "k_1_2", "k_3")
        r2 = min_count_over_saturated(6, "k_1_2", "g6:" + to_graph6(cycle(3)))
        assert r1.min_count == r2.min_count
        assert r1.extremal == r2.extremal

    def test_json_roundtrip(self):
        r = min_count_over_saturated(5, "k_1_2", "k_3")
        assert SatRecord.from_json(r.to_json()) == r


class TestBruteForceOracle:
    def test_n4_edges_k3(self):
        assert brute_force_labeled(4, "k_2", "k_3").min_count == 3

    def test_n5_k22_k3_zero(self):
        r = brute_force_labeled(5, "k_2_2", "k_3")
        assert r.min_count == 0
        star_form = canonical_form(ehm_graph(5, 3))
        assert star_form in r.extremal

    def test_n5_k13_k3_zero(self):
        assert brute_force_labeled(5, "k_1_3", "k_3").min_count == 0

    def test_cache_equivalence(self):
        for n in (3, 4, 5):
            a = brute_force_labeled(n, "k_1_2", "k_3", use_cache=True)
            b = brute_force_labeled(n, "k_1_2", "k_3", use_cache=False)
            assert a == b

    def test_agreement_matrix(self):
        cases = [
            (4, "k_1_2", "k_3"),
            (5, "k_1_2", "k_3"),
            (5, "k_2", "k_4"),
            (6, "k_2", "k_3"),
            (6, "k_1_2", "k_4"),
            (6, "k_2_2", "k_3"),
        ]
        for n, h, f in cases:
            enum_rec = min_count_over_saturated(n, h, f)
            brute_rec = brute_force_labeled(n, h, f)
            assert enum_rec.min_count == brute_rec.min_count, (n, h, f)
            assert enum_rec.extremal == brute_rec.extremal, (n, h, f)

    def test_rejects_large_n(self):
        with pytest.raises(InputError):
            brute_force_labeled(8, "k_2", "k_3")


class TestOneRuleForF:
    """F and n are checked in one place each: the search, the minimum over
    it and the labeled oracle give the same InputError for the same bad
    input, and the process differs only by its own s >= 3 rule."""

    # g6:B? is the edgeless graph on 3 vertices; K_{4,5} has 9 vertices
    @pytest.mark.parametrize("token,message", [
        ("k_1", "saturation needs clique order >= 2, got 1"),
        ("g6:B?", "saturation pattern needs at least one edge"),
        ("k_4_5", "pattern has 9 vertices, beyond the 8 cap"),
    ], ids=["k_1", "edgeless", "nine_vertices"])
    def test_same_message_from_every_entry_point(self, token, message):
        calls = [
            lambda: next(saturated_stream(3, parse_pattern(token))),
            lambda: min_count_over_saturated(3, "k_2", token),
            lambda: brute_force_labeled(3, "k_2", token),
        ]
        if token != "k_1":
            calls.append(lambda: run_ffree_process(3, token, 0))
        for call in calls:
            with pytest.raises(InputError) as raised:
                call()
            assert str(raised.value) == message

    def test_counted_pattern_is_checked_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before H was checked")

        monkeypatch.setattr(satlab.search, "_enumerate", no_work)
        monkeypatch.setattr(satlab.search, "saturated_classes", no_work)
        monkeypatch.setattr(satlab.search, "_labeled_rows", no_work)
        monkeypatch.setattr(satlab.process, "_trial_results", no_work)
        h = "g6:HhCGGC@"  # 9 vertices
        for call in (
            lambda: min_count_over_saturated(11, h, "k_3"),
            lambda: min_count_over_saturated(5, h, "k_3", source=iter(())),
            lambda: brute_force_labeled(5, h, "k_3"),
            lambda: estimate_expected_count(5, "k_3", h, 2, 0),
        ):
            with pytest.raises(InputError) as raised:
                call()
            assert str(raised.value) == "pattern has 9 vertices, beyond the 8 cap"

    @pytest.mark.parametrize("f", ["k_3", "c_4"])
    def test_negative_n_is_an_input_error(self, f):
        for call in (
            lambda: min_count_over_saturated(-1, "k_2", f),
            lambda: next(saturated_stream(-1, parse_pattern(f))),
            lambda: next(saturated_stream(-1, parse_pattern(f), source=[])),
            lambda: brute_force_labeled(-1, "k_2", f),
        ):
            with pytest.raises(InputError) as raised:
                call()
            assert str(raised.value) == "need n >= 0, got n=-1"


class TestSharding:
    def test_shard_merge_equals_unsharded(self):
        for h, f in (("k_1_2", "k_3"), ("k_2", "k_4")):
            whole = min_count_over_saturated(6, h, f)
            parts = []
            for i in range(3):
                try:
                    parts.append(min_count_over_saturated(6, h, f, shard=(i, 3)))
                except EmptyDomainError:
                    pass
            merged = merge_records(parts)
            assert merged.min_count == whole.min_count
            assert merged.extremal == whole.extremal
            assert merged.searched == whole.searched

    def test_merge_rejects_mixed_problems(self):
        a = min_count_over_saturated(5, "k_1_2", "k_3")
        b = min_count_over_saturated(6, "k_1_2", "k_3")
        with pytest.raises(InputError):
            merge_records([a, b])


class TestExternalSource:
    def test_graph6_stream_source(self):
        lines = [to_graph6(g) for g in enumerate_graphs(5)]
        r = min_count_over_saturated(5, "k_1_2", "k_3", source=(from_graph6(t) for t in lines))
        assert r.min_count == 5
        assert r.extremal == (canonical_form(cycle(5)),)

    def test_source_with_wrong_order_rejected(self):
        with pytest.raises(InputError):
            min_count_over_saturated(5, "k_1_2", "k_3", source=[cycle(6)])


class TestExtremalCap:
    def test_truncation_flag(self):
        full = min_count_over_saturated(5, "k_2_2", "k_3")
        assert full.min_count == 0
        assert len(full.extremal) == 2 and not full.truncated  # star and C_5
        r = min_count_over_saturated(5, "k_2_2", "k_3", max_extremal=1)
        assert r.truncated
        assert r.extremal == full.extremal[:1]

    def test_negative_cap_rejected(self):
        rec = min_count_over_saturated(5, "k_2_2", "k_3")
        for call in (
            lambda: min_count_over_saturated(5, "k_2_2", "k_3", max_extremal=-1),
            lambda: merge_records([rec], max_extremal=-1),
            lambda: brute_force_labeled(5, "k_2_2", "k_3", max_extremal=-1),
        ):
            with pytest.raises(InputError, match="max_extremal >= 0"):
                call()

    def test_zero_cap_keeps_only_the_flag(self):
        for r in (
            min_count_over_saturated(5, "k_2_2", "k_3", max_extremal=0),
            merge_records([min_count_over_saturated(5, "k_2_2", "k_3")], max_extremal=0),
            brute_force_labeled(5, "k_2_2", "k_3", max_extremal=0),
        ):
            assert r.min_count == 0
            assert r.extremal == () and r.truncated

    def test_source_duplicates_counted_once(self):
        lines = [to_graph6(cycle(5))] * 2 + [to_graph6(ehm_graph(5, 3))]
        r = min_count_over_saturated(
            5, "k_1_2", "k_3", source=(from_graph6(t) for t in lines)
        )
        assert r.extremal == (canonical_form(cycle(5)),)
        assert r.searched == 3 and not r.truncated
