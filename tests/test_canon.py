"""The early-exit canonicity test against the full canonical labeling."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from satlab import InputError
from satlab.canon import MAX_CANON_VERTICES, canonical_rows, is_canonical


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
