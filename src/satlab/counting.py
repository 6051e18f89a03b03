"""Exact subgraph counting.

A "copy" of a pattern F in G is a subgraph of G isomorphic to F: extra
edges among the copy's vertices are allowed, and each copy is counted
once.  All counts are exact Python integers, so they cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import InputError
from .graphs import Graph, bits_of

MAX_PATTERN_VERTICES = 8


@dataclass(frozen=True)
class BipartitePattern:
    """Sides of a complete bipartite pattern K_{a,b}, normalized to a <= b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise InputError(f"pattern sides must be >= 1, got ({self.a},{self.b})")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


def count_stars(g: Graph, t: int) -> int:
    """Number of K_{1,t} copies: sum over v of C(d(v), t) for t >= 2.

    For t = 1 a copy is a single edge, so the count is e(G) (the degree
    sum would count each edge once per endpoint).
    """
    if t < 1:
        raise InputError(f"star size t must be >= 1, got t={t}")
    if t == 1:
        return g.edge_count()
    return sum(comb(r.bit_count(), t) for r in g.rows)


def count_kab(g: Graph, pattern: BipartitePattern) -> int:
    """Number of K_{a,b} copies: unordered pairs {A,B} of disjoint vertex
    sets with |A|=a, |B|=b and every cross pair adjacent."""
    a, b = pattern.a, pattern.b
    if a == 1:
        return count_stars(g, b)
    total = 0
    rows = g.rows
    for subset in combinations(range(g.n), a):
        acc = rows[subset[0]]
        for v in subset[1:]:
            acc &= rows[v]
            if not acc:
                break
        else:
            total += comb(acc.bit_count(), b)
    if a == b:
        assert total % 2 == 0
        total //= 2
    return total


def codegree_sum(g: Graph, t: int) -> int:
    """Sum over edges xy of C(|N(x) ∩ N(y)|, t)."""
    if t < 2:
        raise InputError(f"codegree sum needs t >= 2, got t={t}")
    total = 0
    rows = g.rows
    for u in range(g.n):
        row = rows[u] >> (u + 1) << (u + 1)
        for v in bits_of(row):
            total += comb((rows[u] & rows[v]).bit_count(), t)
    return total


def count_k4_minus(g: Graph) -> int:
    """Number of non-edge-anchored K_4^- copies.

    A copy is a quadruple {x,y,u,v} with uv a non-edge, xy an edge, and
    x,y both adjacent to u and v; equivalently the sum over non-edges uv
    of e(G[N(u,v)]).  Each copy has a unique anchoring non-edge and base
    edge, so this is exact.
    """
    total = 0
    rows = g.rows
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if rows[u] >> v & 1:
                continue
            common = rows[u] & rows[v]
            if common.bit_count() < 2:
                continue
            m = common
            while m:
                low = m & -m
                x = low.bit_length() - 1
                m ^= low
                total += (rows[x] & m).bit_count()
    return total


def count_cliques(g: Graph, r: int) -> int:
    """Number of r-vertex cliques (vertex subsets inducing K_r)."""
    if r < 1:
        raise InputError(f"clique size r must be >= 1, got r={r}")
    rows = g.rows

    def rec(candidates: int, size: int) -> int:
        if size == 1:
            return candidates.bit_count()
        total = 0
        m = candidates
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            total += rec(rows[v] & m, size - 1)
        return total

    return rec(g.vertex_mask, r)


def count_cycles(g: Graph, r: int) -> int:
    """Number of r-cycles as subgraphs, each counted once, for 3 <= r <= 8."""
    if not 3 <= r <= 8:
        raise InputError(f"cycle length must be in 3..8, got r={r}")
    rows = g.rows
    total = 0
    # anchor each cycle at its smallest vertex; paths stay above the anchor
    for a in range(g.n):
        above = ~((1 << (a + 1)) - 1)
        start_row = rows[a] & above

        def walk(v: int, visited: int, length: int) -> int:
            if length == r - 1:
                return 1 if rows[v] >> a & 1 else 0
            found = 0
            m = rows[v] & above & ~visited
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                found += walk(u, visited | low, length + 1)
            return found

        m = start_row
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            total += walk(v, low, 1)
    assert total % 2 == 0  # each cycle traversed in both directions
    return total // 2


def _embedding_order(f: Graph) -> list[int]:
    """Order pattern vertices so each (after a component root) touches a
    previously placed one; roots picked by descending degree."""
    remaining = set(range(f.n))
    order: list[int] = []
    placed_mask = 0
    while remaining:
        root = max(remaining, key=lambda v: (f.rows[v].bit_count(), -v))
        frontier = [root]
        order.append(root)
        remaining.remove(root)
        placed_mask |= 1 << root
        while frontier:
            best = None
            best_key = None
            for v in remaining:
                k = (f.rows[v] & placed_mask).bit_count()
                if k == 0:
                    continue
                key = (k, f.rows[v].bit_count(), -v)
                if best_key is None or key > best_key:
                    best, best_key = v, key
            if best is None:
                break
            order.append(best)
            remaining.remove(best)
            placed_mask |= 1 << best
            frontier = [best]
    return order


def _injections(f: Graph, g: Graph, order: list[int], count_all: bool,
                image: list[int] | None = None) -> int:
    """Count injective maps f -> g sending edges to edges (0/1 if not
    count_all, for an early-exit containment test).

    ``image`` (f.n slots) receives image[i] = g-vertex for pattern vertex
    order[i]; after a hit with count_all false it holds the first map
    found, candidates tried in ascending vertex order.
    """
    n = f.n
    if n > g.n:
        return 0
    if image is None:
        image = [0] * n
    placed_pattern = [0]
    gfull = g.vertex_mask
    grows = g.rows
    frows = f.rows

    def rec(i: int, used: int) -> int:
        if i == n:
            return 1
        pv = order[i]
        req = frows[pv] & placed_pattern[0]
        cand = gfull & ~used
        m = req
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            cand &= grows[image[_pos[j]]]
            if not cand:
                return 0
        total = 0
        placed_pattern[0] |= 1 << pv
        mm = cand
        while mm:
            low = mm & -mm
            gv = low.bit_length() - 1
            mm ^= low
            image[i] = gv
            got = rec(i + 1, used | low)
            total += got
            if total and not count_all:
                break
        placed_pattern[0] ^= 1 << pv
        return total if count_all else (1 if total else 0)

    _pos = {v: i for i, v in enumerate(order)}
    return rec(0, 0)


def check_pattern_size(f: Graph) -> None:
    """Raise InputError when ``f`` has more than MAX_PATTERN_VERTICES."""
    if f.n > MAX_PATTERN_VERTICES:
        raise InputError(
            f"pattern has {f.n} vertices, beyond the {MAX_PATTERN_VERTICES} cap"
        )


def automorphism_count(f: Graph) -> int:
    """|Aut(f)|, counted as edge-preserving injections of f into itself."""
    order = _embedding_order(f)
    return _injections(f, f, order, count_all=True)


def count_embeddings(g: Graph, f: Graph) -> int:
    """Number of subgraphs of ``g`` isomorphic to ``f`` (f.n <= 8).

    Computed as injective edge-preserving maps divided by |Aut(f)|.
    """
    check_pattern_size(f)
    if f.n == 0:
        return 1
    order = _embedding_order(f)
    total = _injections(f, g, order, count_all=True)
    aut = _injections(f, f, order, count_all=True)
    assert total % aut == 0
    return total // aut


def contains_subgraph(g: Graph, f: Graph) -> bool:
    """True iff ``g`` has a subgraph isomorphic to ``f``."""
    check_pattern_size(f)
    if f.n == 0:
        return True
    order = _embedding_order(f)
    return bool(_injections(f, g, order, count_all=False))


def find_subgraph(g: Graph, f: Graph) -> frozenset[int] | None:
    """Vertex set of one copy of ``f`` in ``g``, or None."""
    check_pattern_size(f)
    image = [0] * f.n
    if _injections(f, g, _embedding_order(f), count_all=False, image=image):
        return frozenset(image)
    return None
