"""Canonical labeling by minimal adjacency string.

The canonical form of a graph is the lexicographically minimal upper
triangle bit string (column order, matching graph6) over all vertex
orderings.  Two graphs get equal forms iff they are isomorphic.

The search places vertices position by position.  At each depth every
viable candidate contributes the same next column (the minimum), so the
tree only branches on ties; twin candidates (interchangeable by a
transposition fixing everything else) and prefixes that cannot beat the
best completed string are pruned.  Exhaustive at heart, which is fine at
the target sizes (n <= 10 for enumeration, n <= ``MAX_CANON_VERTICES``
for one-off calls).

``is_canonical`` runs the same search against a fixed bound, the
identity labeling's columns, and stops at the first smaller column.
The minimal string has the prefix property (the first k vertices of a
minimal labeling are a minimal labeling of the subgraph they induce),
which is what lets orderly generation keep a child of a canonical
parent exactly when this test passes.
"""

from __future__ import annotations

from .errors import InputError
from .graph6 import to_graph6
from .graphs import Graph

#: The search is exhaustive; highly symmetric sparse graphs blow up well
#: before dense ones, so cap safely above the enumeration limit of 10.
MAX_CANON_VERTICES = 16


def canonical_order(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Vertex order (position -> vertex) achieving the minimal string."""
    if n > MAX_CANON_VERTICES:
        raise InputError(
            f"canonical labeling supports n <= {MAX_CANON_VERTICES}, got n={n}"
        )
    if n <= 1:
        return tuple(range(n))
    best: list[int] | None = None
    best_path: list[int] | None = None
    cols: list[int] = []
    path: list[int] = []
    full = (1 << n) - 1

    def rec(placed: int, colval: list[int]) -> None:
        nonlocal best, best_path
        depth = len(path)
        bound = -1
        if best is not None:
            for i in range(depth):
                ci = cols[i]
                bi = best[i]
                if ci != bi:
                    if ci > bi:
                        return
                    break
            else:
                bound = best[depth] if depth < n else -2
        if depth == n:
            if best is None or cols < best:
                best = cols.copy()
                best_path = path.copy()
            return
        rest = full & ~placed
        m = -1
        r = rest
        while r:
            low = r & -r
            v = low.bit_length() - 1
            r ^= low
            cv = colval[v]
            if m < 0 or cv < m:
                m = cv
        if bound >= 0 and m > bound:
            return
        cols.append(m)
        tried: list[int] = []
        r = rest
        while r:
            low = r & -r
            v = low.bit_length() - 1
            r ^= low
            if colval[v] != m:
                continue
            rv = rows[v]
            skip = False
            for w in tried:
                other = rest & ~low & ~(1 << w)
                if rv & other == rows[w] & other:
                    skip = True
                    break
            if skip:
                continue
            tried.append(v)
            child = colval.copy()
            r2 = rest ^ low
            while r2:
                lo2 = r2 & -r2
                u = lo2.bit_length() - 1
                r2 ^= lo2
                child[u] = child[u] << 1 | (rv >> u & 1)
            path.append(v)
            rec(placed | low, child)
            path.pop()
        cols.pop()

    rec(0, [0] * n)
    assert best_path is not None
    return tuple(best_path)


def is_canonical(rows: tuple[int, ...], n: int) -> bool:
    """True iff the identity labeling already gives the minimal string.

    Equivalent to ``canonical_rows(rows, n) == rows`` but builds no
    minimum: a branch whose column exceeds the identity's is pruned, and
    the first strictly smaller column answers False.
    """
    if n > MAX_CANON_VERTICES:
        raise InputError(
            f"canonical labeling supports n <= {MAX_CANON_VERTICES}, got n={n}"
        )
    if n <= 1:
        return True
    # identity column j: adjacency of j to 0..j-1, vertex 0 most significant
    ident = [0] * n
    for j in range(1, n):
        rj = rows[j]
        c = 0
        for i in range(j):
            c = c << 1 | (rj >> i & 1)
        ident[j] = c
    last = n - 1

    def smaller(depth: int, rest: int, verts: list[int], cols: list[int]) -> bool:
        # cols[i]: the column verts[i] would contribute at this depth
        target = ident[depth]
        m = min(cols)
        if m != target:
            return m < target
        if depth == last:
            return False
        tried: list[int] = []
        for v, c in zip(verts, cols):
            if c != target:
                continue
            rv = rows[v]
            r2 = rest ^ (1 << v)
            skip = False
            for w in tried:
                other = r2 & ~(1 << w)
                if rv & other == rows[w] & other:
                    skip = True
                    break
            if skip:
                continue
            tried.append(v)
            if smaller(
                depth + 1,
                r2,
                [u for u in verts if u != v],
                [cu << 1 | (rv >> u & 1) for u, cu in zip(verts, cols) if u != v],
            ):
                return True
        return False

    return not smaller(0, (1 << n) - 1, list(range(n)), [0] * n)


def canonical_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Adjacency rows of the canonically relabeled graph."""
    order = canonical_order(rows, n)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out = [0] * n
    for i, v in enumerate(order):
        rv = rows[v]
        acc = 0
        while rv:
            low = rv & -rv
            acc |= 1 << pos[low.bit_length() - 1]
            rv ^= low
        out[i] = acc
    return tuple(out)


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
