"""Canonical labeling by minimal adjacency string.

The canonical form of a graph is the lexicographically minimal upper
triangle bit string (column order, matching graph6) over all vertex
orderings.  Two graphs get equal forms iff they are isomorphic.

One search, ``_smaller_prefix``, answers every question here.  It places
vertices position by position.  The unplaced vertices are kept as an
ordered list of ``(mask, col)`` cells: a cell is the bitmask of the
vertices whose column against the placed path is ``col``, and the cells
are sorted by that value.  The first cell is the tie set: every vertex
in it contributes the same next column (the minimum), so the tree only
branches on ties.  Placing a vertex splits every cell into its
non-neighbours (column bit 0) and neighbours (bit 1), which keeps the
order.  The search is bounded by the columns of one labeling: it prunes
a branch at its first larger column and stops at the first smaller one,
and it prunes twin candidates (interchangeable by a transposition
fixing everything else).  Exhaustive at heart, which is fine at the
target sizes (n <= 9 for general enumeration, n <= 12 for the
K_s-saturated search with s >= 3, n <= ``MAX_CANON_VERTICES`` for
one-off calls and the empty graphs of the K_2 search).

``is_canonical`` bounds the search by the identity labeling.  The
minimal string has the prefix property (the first k vertices of a
minimal labeling are a minimal labeling of the subgraph they induce),
which is what lets orderly generation keep a child of a canonical
parent exactly when this test passes.  ``canonical_rows`` descends: it
starts from the first-branch labeling (the lowest vertex of each tie
cell in turn), and while the search finds a smaller prefix, relabels by
that prefix completed along the first branch.  Each step strictly
lowers the string, and the minimal string fixes the rows, so the
canonicity test and the canonical form cannot disagree.
"""

from __future__ import annotations

from .errors import InputError
from .graph6 import column, to_graph6
from .graphs import Graph

#: The search is exhaustive; highly symmetric sparse graphs blow up well
#: before dense ones, so cap safely above the enumeration limits.
MAX_CANON_VERTICES = 16

Cells = list[tuple[int, int]]


def _check_size(n: int) -> None:
    if n > MAX_CANON_VERTICES:
        raise InputError(
            f"canonical labeling supports n <= {MAX_CANON_VERTICES}, got n={n}"
        )


def _place(cells: Cells, low: int, rv: int) -> Cells:
    """Cells left after placing the tie vertex ``low`` (a one-bit mask)
    whose row is ``rv`` (no loops, so ``rv`` lacks ``low``): each cell
    splits into non-neighbours then neighbours, which keeps the order."""
    keep = ~(rv | low)
    out = []
    for mask, col in cells:
        a = mask & keep
        if a:
            out.append((a, col << 1))
        b = mask & rv
        if b:
            out.append((b, col << 1 | 1))
    return out


def _is_twin(rows: tuple[int, ...], rv: int, rest: int, tried: list[int]) -> bool:
    """True iff the candidate with row ``rv`` agrees on ``rest`` (the
    vertices still unplaced after it) with one already tried, apart from
    that vertex itself.  Both lie in the tie cell, so they agree on the
    placed vertices too: swapping them is an automorphism fixing every
    other vertex, and the candidate's subtree repeats the tried one's."""
    for w in tried:
        other = rest & ~(1 << w)
        if rv & other == rows[w] & other:
            return True
    return False


def _smaller_prefix(rows: tuple[int, ...], n: int,
                    ident: list[int]) -> list[int] | None:
    """The first prefix found whose columns are below ``ident``'s, else
    None: no labeling has a smaller string.

    ``ident`` holds a labeling's columns in its first n entries.  The
    prefix is its placed vertices, last placed first (the path is
    appended on the way back up): their columns equal ``ident``'s, and
    the next column, that of the lowest remaining cell, is smaller.
    """
    if n <= 1:
        return None
    last = n - 1

    def smaller(depth: int, rest: int, cells: Cells) -> list[int] | None:
        # the tie cell's column equals ident[depth]; try each tie vertex
        # at position depth and compare the next column with ident[nxt]
        nxt = depth + 1
        target = ident[nxt]
        tie, col = cells[0]
        tried: list[int] = []
        t = tie
        while t:
            low = t & -t
            t ^= low
            v = low.bit_length() - 1
            rv = rows[v]
            r2 = rest ^ low
            if _is_twin(rows, rv, r2, tried):
                continue
            tried.append(v)
            # the next column is that of the first cell _place would
            # return: the tie cell's remainder, else the second cell (depth
            # < last, so at least one vertex besides v is unplaced)
            head = tie ^ low
            if head:
                m = col << 1 if head & ~rv else col << 1 | 1
            else:
                mask1, col1 = cells[1]
                m = col1 << 1 if mask1 & ~rv else col1 << 1 | 1
            if m != target:
                if m < target:
                    return [v]
                continue
            if nxt != last:
                found = smaller(nxt, r2, _place(cells, low, rv))
                if found:
                    found.append(v)
                    return found
        return None

    full = (1 << n) - 1
    return smaller(0, full, [(full, 0)])


def is_canonical(rows: tuple[int, ...], n: int,
                 ident: list[int] | None = None) -> bool:
    """True iff the identity labeling already gives the minimal string,
    that is ``canonical_rows(rows, n) == rows``.

    ``ident``, if given, must hold the identity labeling's columns in
    its first n entries (later ones are ignored): orderly generation has
    them from the parent and the new column, so it need not rebuild
    them.
    """
    _check_size(n)
    if ident is None:
        ident = [column(rows[j], j) for j in range(n)]
    return _smaller_prefix(rows, n, ident) is None


def _first_branch(rows: tuple[int, ...], n: int,
                  prefix: list[int]) -> tuple[tuple[int, ...], list[int]]:
    """The labeling that places ``prefix`` (last placed first, each
    vertex in its tie cell; emptied) and then the lowest vertex of each
    tie cell in turn: the graph's rows in it, and its columns."""
    full = (1 << n) - 1
    cells = [(full, 0)]
    order: list[int] = []
    cols: list[int] = []
    for _ in range(n):
        tie, m = cells[0]
        low = 1 << prefix.pop() if prefix else tie & -tie
        v = low.bit_length() - 1
        order.append(v)
        cols.append(m)
        cells = _place(cells, low, rows[v])
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out = []
    for v in order:
        rv = rows[v]
        acc = 0
        while rv:
            low = rv & -rv
            acc |= 1 << pos[low.bit_length() - 1]
            rv ^= low
        out.append(acc)
    return tuple(out), cols


def canonical_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Adjacency rows of the canonically relabeled graph: the descent
    from the first-branch labeling down to the minimal string."""
    _check_size(n)
    prefix: list[int] | None = []
    while prefix is not None:
        rows, cols = _first_branch(rows, n, prefix)
        prefix = _smaller_prefix(rows, n, cols)
    return rows


def canonical_graph(g: Graph) -> Graph:
    """Canonically relabeled copy of ``g``."""
    return Graph._from_rows_unchecked(g.n, canonical_rows(g.rows, g.n))


def canonical_form(g: Graph) -> str:
    """Canonical form: the graph6 string of the minimal relabeling.

    Deterministic, and equal exactly for isomorphic graphs.
    """
    return to_graph6(canonical_graph(g))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_rows(g1.rows, g1.n) == canonical_rows(g2.rows, g2.n)
