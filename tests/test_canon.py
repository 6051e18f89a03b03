"""The canonical search against the slow paths it replaced.

``is_canonical`` must reproduce the per-vertex list search it replaced
(``oracles.list_is_canonical``) verdict by verdict.  ``canonical_rows``
descends by the same search, so it must give exactly the rows of the
order ``oracles.list_canonical_order`` finds, wherever that oracle
runs, and the same rows for every relabeling beyond it.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import satlab.search
from satlab import InputError, complete_graph, cycle, disjoint_union, petersen
from satlab.canon import (
    MAX_CANON_VERTICES,
    are_isomorphic,
    canonical_graph,
    canonical_rows,
    is_canonical,
)
from satlab.graphs import Graph
from oracles import list_canonical_order, list_is_canonical


def labeled_rows(n: int, mask: int) -> tuple[int, ...]:
    rows = [0] * n
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        if mask >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


@st.composite
def labeled_graphs(draw, min_n, max_n):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << n * (n - 1) // 2) - 1))
    return n, labeled_rows(n, mask)


def relabel(rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, r in enumerate(rows):
        for u in range(len(rows)):
            if r >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


@st.composite
def labelings(draw, min_n, max_n):
    """A random labeled graph, its canonical relabeling, and that
    relabeling with two vertices swapped (often canonical up to a deep
    position, so both the reject and the accept paths run long)."""
    n, rows = draw(labeled_graphs(min_n, max_n))
    crows = canonical_rows(rows, n)
    i = draw(st.integers(min_value=0, max_value=n - 1))
    j = draw(st.integers(min_value=0, max_value=n - 1))
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return n, rows, crows, relabel(crows, perm)


def test_agrees_with_canonical_rows_all_n_le_6():
    classes = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n in range(7):
        accepted = 0
        for mask in range(1 << n * (n - 1) // 2):
            rows = labeled_rows(n, mask)
            verdict = is_canonical(rows, n)
            assert verdict == (canonical_rows(rows, n) == rows), (n, rows)
            accepted += verdict
        # exactly one canonical labeling per isomorphism class
        assert accepted == classes[n]


@given(labeled_graphs(7, 9))
@settings(max_examples=300, deadline=None)
def test_agrees_with_canonical_rows_sampled_n7_to_n9(case):
    n, rows = case
    crows = canonical_rows(rows, n)
    assert is_canonical(rows, n) == (crows == rows)
    # a random labeling is rarely canonical; its relabeling always is
    assert is_canonical(crows, n)


def test_rejects_beyond_cap():
    n = MAX_CANON_VERTICES + 1
    with pytest.raises(InputError):
        is_canonical((0,) * n, n)


def naive_identity_columns(rows: tuple[int, ...], n: int) -> list[int]:
    return [
        sum((rows[j] >> i & 1) << (j - 1 - i) for i in range(j)) for j in range(n)
    ]


def test_verdicts_match_oracle_on_every_enumerated_child_n_le_7(monkeypatch):
    tested = []

    def recording(rows, n, ident=None):
        tested.append((rows, n, ident[:n]))
        return is_canonical(rows, n, ident)

    monkeypatch.setattr(satlab.search, "is_canonical", recording)
    assert sum(1 for _ in satlab.search._enumerate(7, None)) == 1044
    assert len(tested) == 3160
    accepted = 0
    for rows, n, ident in tested:
        # the columns handed down from the parent are the identity's
        assert ident == naive_identity_columns(rows, n), (n, rows)
        verdict = is_canonical(rows, n, ident)
        assert verdict == list_is_canonical(rows, n) == is_canonical(rows, n), (n, rows)
        accepted += verdict
    # one canonical child per class on levels 2..7
    assert accepted == 2 + 4 + 11 + 34 + 156 + 1044


@given(labelings(8, 10))
@settings(max_examples=200, deadline=None)
def test_verdicts_match_oracle_sampled_n8_to_n10(case):
    n, rows, crows, swapped = case
    for r in (rows, crows, swapped):
        assert is_canonical(r, n) == list_is_canonical(r, n), (n, r)
    assert is_canonical(crows, n)


def oracle_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The rows in the minimal-string order of ``list_canonical_order``."""
    perm = [0] * n
    for i, v in enumerate(list_canonical_order(rows, n)):
        perm[v] = i
    return relabel(rows, perm)


def test_canonical_order_matches_oracle_all_n_le_6():
    for n in range(7):
        for mask in range(1 << n * (n - 1) // 2):
            rows = labeled_rows(n, mask)
            assert canonical_rows(rows, n) == oracle_rows(rows, n), (n, rows)


@given(labelings(7, 10))
@settings(max_examples=200, deadline=None)
def test_canonical_order_matches_oracle_sampled_n7_to_n10(case):
    n, rows, crows, swapped = case
    for r in (rows, crows, swapped):
        assert canonical_rows(r, n) == oracle_rows(r, n), (n, r)


@pytest.mark.parametrize("n", [7, 10, 12])
def test_canonical_order_matches_oracle_on_symmetric_graphs(n):
    full = (1 << n) - 1
    empty = (0,) * n
    complete = tuple(full ^ (1 << v) for v in range(n))
    ring = tuple(1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n))
    for rows in (empty, complete, ring):
        assert canonical_rows(rows, n) == oracle_rows(rows, n)
        assert is_canonical(rows, n) == list_is_canonical(rows, n)


def test_canonical_order_rejects_beyond_cap():
    n = MAX_CANON_VERTICES + 1
    with pytest.raises(InputError):
        canonical_rows((0,) * n, n)


def duplicated_petersen(extra: int) -> tuple[int, ...]:
    """Petersen with its first ``extra`` vertices duplicated: vertex
    10 + i is a false twin of vertex i (same neighbours, not adjacent)."""
    rows = list(petersen().rows) + [0] * extra
    for i in range(extra):
        for u in range(10):
            if rows[i] >> u & 1:
                rows[10 + i] |= 1 << u
                rows[u] |= 1 << (10 + i)
    return tuple(rows)


def sparse_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.2:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


@pytest.mark.parametrize("name", ["sparse", "c_16", "petersen_duplicated"])
def test_canonical_rows_are_relabeling_invariant_n11_to_n16(name):
    """Beyond the oracle's reach: every relabeling of a graph gets the
    same rows, and they are a canonical labeling of it."""
    rng = random.Random(name)
    if name == "sparse":
        graphs = [sparse_rows(rng, n) for n in range(11, 17)]
    elif name == "c_16":
        graphs = [cycle(16).rows]
    else:
        graphs = [duplicated_petersen(extra) for extra in (1, 3, 6)]
    for rows in graphs:
        n = len(rows)
        crows = canonical_rows(rows, n)
        assert is_canonical(crows, n), (n, rows)
        assert sorted(map(int.bit_count, crows)) == sorted(map(int.bit_count, rows))
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_rows(relabel(rows, perm), n) == crows, (n, rows, perm)


def test_relabelled_petersen_is_isomorphic():
    g = petersen()
    perm = list(range(g.n))
    random.Random(0).shuffle(perm)
    h = Graph._from_rows_unchecked(g.n, relabel(g.rows, perm))
    assert h.rows != g.rows
    assert are_isomorphic(g, h) and are_isomorphic(h, g)


def test_same_degrees_are_not_enough():
    # C_6 and 2K_3: six vertices, six edges, every degree 2
    c6, two_k3 = cycle(6), disjoint_union(complete_graph(3), complete_graph(3))
    assert sorted(c6.degrees()) == sorted(two_k3.degrees())
    assert not are_isomorphic(c6, two_k3)


def test_order_or_size_mismatch_is_not_isomorphic():
    assert not are_isomorphic(cycle(5), cycle(6))
    assert not are_isomorphic(cycle(5), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))


@pytest.mark.parametrize("g", [petersen(), cycle(7), Graph(4, [(0, 3), (1, 3)]), Graph(0)],
                         ids=["petersen", "c_7", "cherry", "empty"])
def test_canonical_graph_has_canonical_rows(g):
    c = canonical_graph(g)
    assert c.n == g.n and c.rows == canonical_rows(g.rows, g.n)
    assert are_isomorphic(c, g)
