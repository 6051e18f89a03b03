"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and timings.  Criterion 6 is expected to FAIL honestly: the
star-count floor (the prop21 suite) has verified desk-scale
counterexamples; see the README and the star-floor tests for the
analysis.  Every other criterion passes.
"""

import random
import time
from math import comb

from satlab import (
    BipartitePattern,
    EmptyDomainError,
    build_witness_hypergraph,
    canonical_form,
    check_k4minus_chain,
    check_kkko,
    check_star_bound,
    codegree_sum,
    count_classes,
    count_classes_labeled,
    count_cliques,
    count_cycles,
    count_embeddings,
    count_k4_minus,
    count_kab,
    count_stars,
    cycle,
    duplicate_vertex,
    ehm_edges,
    ehm_graph,
    hoffman_singleton,
    is_ks_saturated,
    k12_k3_lower,
    k12_min,
    merge_records,
    min_count_over_saturated,
    petersen,
    run_ffree_process,
    star,
)
from satlab.graphs import Graph
from satlab.search import saturated_classes
from conftest import random_graph
from oracles import (
    cliques_oracle,
    codegree_sum_oracle,
    cycles_oracle,
    k4minus_oracle,
    kab_oracle,
    stars_oracle,
)


def _verdict(num: int, ok: bool, started: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} {status} ({time.time() - started:.1f}s): {detail}")


def test_criterion_1_ehm_edge_minimum():
    t0 = time.time()
    failures = []
    for s in (3, 4, 5):
        for n in range(s, 9):
            record = min_count_over_saturated(n, "k_2", ("clique", s))
            expected = ehm_edges(n, s)
            unique = record.extremal == (canonical_form(ehm_graph(n, s)),)
            if record.min_count != expected or not unique:
                failures.append((n, s, record.min_count, expected, record.extremal))
    ok = not failures
    _verdict(1, ok, t0, f"min edges = (s-2)(n-s+2)+C(s-2,2) with unique join minimizer, s<=5, n<=8; failures={failures}")
    assert ok, failures


def test_criterion_2_k12_minimum():
    t0 = time.time()
    failures = []
    for s, n_range in ((4, range(5, 9)), (5, range(6, 9))):
        for n in n_range:
            record = min_count_over_saturated(n, "k_1_2", ("clique", s))
            expected = k12_min(n, s)
            unique = record.extremal == (canonical_form(ehm_graph(n, s)),)
            if record.min_count != expected or not unique:
                failures.append((n, s, record.min_count, expected, record.extremal))
    ok = not failures
    _verdict(2, ok, t0, f"sat(n,K_1_2,K_s) matches the closed form with unique join minimizer; failures={failures}")
    assert ok, failures


def test_criterion_3_k12_k3_sandwich():
    t0 = time.time()
    values = {}
    failures = []
    for n in range(3, 10):
        record = min_count_over_saturated(n, "k_1_2", ("clique", 3))
        values[n] = record.min_count
        lower = k12_k3_lower(n)
        upper = comb(n - 1, 2)
        if not (record.min_count >= lower - 1e-9 and record.min_count <= upper):
            failures.append((n, record.min_count, lower, upper))
        if n == 5:
            if record.min_count != 5 or record.extremal != (canonical_form(cycle(5)),):
                failures.append(("n=5 extremal", record.min_count, record.extremal))
    ok = not failures
    _verdict(3, ok, t0, f"sat(n,K_1_2,K_3) for n=3..9: {values}; window checks failures={failures}")
    assert ok, failures
    # regression pin for the exact values (derived by this search and, for
    # n <= 7, confirmed by the labeled brute-force oracle)
    assert values == {3: 1, 4: 3, 5: 5, 6: 10, 7: 15, 8: 21, 9: 28}
    # monotone sanity on the same cached stream: star edge minimum at n=9
    assert min_count_over_saturated(9, "k_2", ("clique", 3)).min_count == 8


def test_criterion_4_moore_arithmetic():
    t0 = time.time()
    checks = []
    p = petersen()
    checks.append(is_ks_saturated(p, 3).is_saturated)
    checks.append(count_stars(p, 2) == 30)
    checks.append(count_stars(duplicate_vertex(p, 0, 1), 2) == 42)
    checks.append(count_stars(star(11), 2) == 45)
    hs = hoffman_singleton()
    checks.append(hs.n == 50 and set(hs.degrees()) == {7})
    checks.append(count_cycles(hs, 3) == 0 and count_cycles(hs, 4) == 0)
    checks.append(count_cycles(hs, 5) > 0)
    checks.append(is_ks_saturated(hs, 3).is_saturated)
    checks.append(count_stars(hs, 2) == 1050 and 1050 < comb(49, 2) == 1176)
    for k in range(1, 5):
        checks.append(count_stars(duplicate_vertex(hs, 0, k), 2) < comb(49 + k, 2))
    checks.append(count_stars(duplicate_vertex(hs, 0, 5), 2) > comb(49 + 5, 2))
    # duplicating distinct vertices once each is computed but not asserted
    # against the star count; duplication must preserve saturation though
    g = hs
    for v in (0, 1, 2, 3):
        g = duplicate_vertex(g, v, 1)
    distinct_variant = count_stars(g, 2)
    checks.append(is_ks_saturated(duplicate_vertex(p, 3, 2), 3).is_saturated)
    ok = all(checks)
    _verdict(4, ok, t0, f"Petersen 30/42 vs 45; HS 1050<1176, below C(49+k,2) up to k=4, above at k=5 "
                        f"(distinct-vertex variant gives {distinct_variant}, not asserted)")
    assert ok, checks


def test_criterion_5_k2t_zero():
    t0 = time.time()
    failures = []
    for t in (2, 3):
        for n in range(3, 9):
            record = min_count_over_saturated(n, ("kab", BipartitePattern(2, t)), ("clique", 3))
            star_form = canonical_form(ehm_graph(n, 3))
            if record.min_count != 0 or star_form not in record.extremal:
                failures.append((n, t, record.min_count))
    ok = not failures
    _verdict(5, ok, t0, f"sat(n,K_2_t,K_3)=0 for n<=8, t in {{2,3}}, star among extremal; failures={failures}")
    assert ok, failures


def test_criterion_6_per_instance_inequality_sweep():
    t0 = time.time()
    kkko_bad, eq5_bad, chain_bad, star_bad, hyper_bad = [], [], [], [], []
    for s in (3, 4, 5):
        for n in range(s, 8):
            ehm_form = canonical_form(ehm_graph(n, s))
            equality_set = {ehm_form}
            if s == 3 and n == 5:
                equality_set.add(canonical_form(cycle(5)))
            for g, form in saturated_classes(n, ("clique", s)):
                eq2, eq5 = check_kkko(g, s)
                if not eq2.holds:
                    kkko_bad.append((n, s, form))
                if not eq5.holds or eq5.equality != (form in equality_set):
                    eq5_bad.append((n, s, form))
                upper, lower = check_k4minus_chain(g, s)
                if not (upper.holds and lower.holds):
                    chain_bad.append((n, s, form))
                for t in (3, 4):
                    rep = check_star_bound(g, s, t)
                    if not rep.holds:
                        star_bad.append((n, s, t, form, rep.lhs, round(rep.rhs, 4)))
                for v in range(n):
                    hyper_bad.extend(_hypergraph_violations(g, v, s, form))
    violations = kkko_bad + eq5_bad + chain_bad + star_bad + hyper_bad
    ok = not violations
    _verdict(
        6, ok, t0,
        f"kkko={len(kkko_bad)} eq5-characterization={len(eq5_bad)} chain={len(chain_bad)} "
        f"star-floor={len(star_bad)} hypergraph={len(hyper_bad)} violations "
        f"(star-floor counterexamples are a verified defect of the stated bound; "
        f"all other sub-checks are clean)",
    )
    assert ok, (
        "star-count floor fails on low-degree saturated graphs "
        f"(degrees < t break the per-vertex step): {star_bad}; "
        f"other sub-checks: kkko={kkko_bad} eq5={eq5_bad} chain={chain_bad} hyper={hyper_bad}"
    )


def _hypergraph_violations(g, v, s, form):
    out = []
    hg = build_witness_hypergraph(g, v, s)
    nv = g.neighbors(v)
    if hg.edge_count() != g.n - g.degree(v) - 1:
        out.append((form, v, "edge count"))
    seen = set()
    for e in hg.edges:
        if len(e) != s - 1:
            out.append((form, v, "uniformity"))
        outside = {u for u in e if u not in nv}
        if len(outside) != 1:
            out.append((form, v, "outside-vertex count"))
            continue
        (u,) = outside
        if u in seen or u == v:
            out.append((form, v, "outside-vertex injectivity"))
        seen.add(u)
    return out


def _ks_saturated_cases():
    """Criterion 6's instances: every K_s-saturated class, s in 3..5 and
    s <= n <= 7, with the forms where eq. (5) holds with equality."""
    for s in (3, 4, 5):
        for n in range(s, 8):
            equality_set = {canonical_form(ehm_graph(n, s))}
            if s == 3 and n == 5:
                equality_set.add(canonical_form(cycle(5)))
            for g, form in saturated_classes(n, ("clique", s)):
                yield n, s, g, form, equality_set


# Criterion 6 fails as a whole on the star floor; its sound sub-checks
# are gated one by one below so a regression in any of them shows.
CRITERION_6_CASES = 37


def test_criterion_6_kkko_sweep():
    cases = list(_ks_saturated_cases())
    assert len(cases) == CRITERION_6_CASES
    bad = [(n, s, form) for n, s, g, form, _ in cases if not check_kkko(g, s)[0].holds]
    assert not bad, bad


def test_criterion_6_eq5_characterization_sweep():
    bad, equalities = [], 0
    for n, s, g, form, equality_set in _ks_saturated_cases():
        _, eq5 = check_kkko(g, s)
        if not eq5.holds or eq5.equality != (form in equality_set):
            bad.append((n, s, form))
        equalities += eq5.equality
    assert not bad, bad
    # EHM for each of the 12 (n, s) pairs, plus C_5
    assert equalities == 13


def test_criterion_6_k4minus_chain_sweep():
    bad = []
    for n, s, g, form, _ in _ks_saturated_cases():
        upper, lower = check_k4minus_chain(g, s)
        if not (upper.holds and lower.holds):
            bad.append((n, s, form))
    assert not bad, bad


def test_criterion_6_witness_hypergraph_sweep():
    bad = []
    for n, s, g, form, _ in _ks_saturated_cases():
        for v in range(n):
            bad.extend(_hypergraph_violations(g, v, s, form))
    assert not bad, bad


def test_criterion_7_counting_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(424242)
    graphs = []
    for _ in range(500):
        n = rng.randint(1, 10)
        graphs.append(random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.85])))
    k23_minus_e = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
    lemma_patterns = [
        (BipartitePattern(2, 2), __import__("satlab").path(4), 4),
        (BipartitePattern(3, 3), cycle(6), 6),
        (BipartitePattern(2, 3), k23_minus_e, 5),
    ]
    bad = []
    for i, g in enumerate(graphs):
        for t in (2, 3):
            if count_stars(g, t) != stars_oracle(g, t):
                bad.append((i, "stars", t))
        for a, b in ((2, 2), (2, 3), (3, 3)):
            if count_kab(g, BipartitePattern(a, b)) != kab_oracle(g, a, b):
                bad.append((i, "kab", (a, b)))
        for r in (3, 4):
            if count_cliques(g, r) != cliques_oracle(g, r):
                bad.append((i, "cliques", r))
        for r in (3, 4) + ((5,) if i % 5 == 0 else ()):
            if count_cycles(g, r) != cycles_oracle(g, r):
                bad.append((i, "cycles", r))
        if count_k4_minus(g) != k4minus_oracle(g):
            bad.append((i, "k4minus", None))
        for t in (2, 3):
            if codegree_sum(g, t) != codegree_sum_oracle(g, t):
                bad.append((i, "codegree", t))
        for pat, f, ab in lemma_patterns:
            ckab = count_kab(g, pat)
            cf = count_embeddings(g, f)
            if ckab > cf:
                bad.append((i, "kab<=pattern", (pat.a, pat.b)))
            if cf > g.n * g.max_degree() ** (ab - 1):
                bad.append((i, "embedding degree bound", (pat.a, pat.b)))
    ok = not bad
    _verdict(7, ok, t0, f"500 seeded graphs, all counters vs subset/permutation oracles "
                        f"plus both monotonicity lemmas; mismatches={bad[:5]}")
    assert ok, bad


def test_criterion_8_process_soundness():
    t0 = time.time()
    failures = []
    for n, s in ((10, 3), (15, 3), (12, 4), (12, 5)):
        for i in range(1000):
            trace = run_ffree_process(n, ("clique", s), 1000 * s + i)
            if not is_ks_saturated(trace.result, s).is_saturated:
                failures.append((n, s, i))
                break
    floor_failures = []
    for i in range(1000):
        trace = run_ffree_process(5, ("clique", 3), 5000 + i)
        if count_stars(trace.result, 2) < 5:
            floor_failures.append(i)
    a = run_ffree_process(12, ("clique", 4), 314159)
    b = run_ffree_process(12, ("clique", 4), 314159)
    reproducible = a == b and a.to_json() == b.to_json()
    ok = not failures and not floor_failures and reproducible
    _verdict(8, ok, t0, f"4x1000 seeded trials all saturated; n=5 star counts all >= 5; "
                        f"traces bit-reproducible={reproducible}")
    assert ok, (failures, floor_failures, reproducible)


def test_criterion_9_enumeration_integrity():
    t0 = time.time()
    mismatches = []
    for n in range(1, 8):
        enum_count = count_classes(n)
        labeled_count = count_classes_labeled(n)
        if enum_count != labeled_count:
            mismatches.append((n, enum_count, labeled_count))
    merge_ok = True
    for h, f in (("k_1_2", "k_3"), ("k_2", "k_4")):
        whole = min_count_over_saturated(7, h, f)
        parts = []
        for i in range(3):
            try:
                parts.append(min_count_over_saturated(7, h, f, shard=(i, 3)))
            except EmptyDomainError:
                pass
        merged = merge_records(parts)
        if (merged.min_count, merged.extremal, merged.searched) != (
            whole.min_count,
            whole.extremal,
            whole.searched,
        ):
            merge_ok = False
    ok = not mismatches and merge_ok
    _verdict(9, ok, t0, f"class counts n=1..7 equal the labeled scan; shard merges equal "
                        f"unsharded records; mismatches={mismatches}")
    assert ok, (mismatches, merge_ok)
