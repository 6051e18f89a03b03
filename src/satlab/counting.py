"""Exact subgraph counting.

A "copy" of a pattern F in G is a subgraph of G isomorphic to F: extra
edges among the copy's vertices are allowed, and each copy is counted
once.  All counts are exact Python integers, so they cannot overflow.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import InputError
from .graphs import Graph, bits_of, mask_of

MAX_PATTERN_VERTICES = 8


class _BipartitePattern(NamedTuple):
    a: int
    b: int


class BipartitePattern(_BipartitePattern):
    """Sides of a complete bipartite pattern K_{a,b}, normalized to a <= b."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> BipartitePattern:
        if a < 1 or b < 1:
            raise InputError(f"pattern sides must be >= 1, got ({a},{b})")
        return super().__new__(cls, min(a, b), max(a, b))


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
    # A grows in increasing vertex order and carries its common
    # neighbourhood acc (all ones before the first vertex); B lies in
    # acc, so a branch dies once acc holds fewer than b vertices
    stack = [(0, -1, a)]  # (lowest vertex left to add, acc, vertices left)
    while stack:
        start, acc, left = stack.pop()
        if left == 1:
            for row in rows[start:]:
                c = (acc & row).bit_count()
                if c >= b:
                    total += comb(c, b)
            continue
        for v in range(start, g.n - left + 1):
            common = acc & rows[v]
            if common.bit_count() >= b:
                stack.append((v + 1, common, left - 1))
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
        if size == 2:  # the edges inside candidates, with no call per vertex
            while m:
                low = m & -m
                m ^= low
                total += (rows[low.bit_length() - 1] & m).bit_count()
            return total
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


def _embedding_order(f: Graph, roots: tuple[int, ...] = ()) -> list[int]:
    """Order pattern vertices after ``roots`` so each touches a previously
    placed one where it can: most placed neighbours first, then highest
    degree; a vertex with none starts a new component, by degree."""
    order = list(roots)
    remaining = set(range(f.n)).difference(roots)
    placed_mask = mask_of(roots)
    while remaining:
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
            best = max(remaining, key=lambda v: (f.rows[v].bit_count(), -v))
        order.append(best)
        remaining.remove(best)
        placed_mask |= 1 << best
    return order


class _Order(NamedTuple):
    """A pattern vertex order and, per position, the earlier positions
    holding a neighbour: the images a candidate must be adjacent to."""

    order: tuple[int, ...]
    back: tuple[tuple[int, ...], ...]


def _rooted(f: Graph, roots: tuple[int, ...] = ()) -> _Order:
    order = _embedding_order(f, roots)
    return _Order(tuple(order), tuple(
        tuple(j for j in range(i) if f.rows[v] >> order[j] & 1)
        for i, v in enumerate(order)
    ))


def _extends(rows: tuple[int, ...], free: int, back: tuple[tuple[int, ...], ...],
             image: list[int], i: int) -> bool:
    """True iff a map of positions 0..i-1 of a rooted order extends to
    all of it: ``image[j]`` holds the host vertex of position j, and the
    later positions take distinct vertices of ``free``, each adjacent to
    the images of its ``back`` positions.  The one existence kernel:
    everything it reads comes in as an argument.  Candidates are tried
    in ascending vertex order and the last position takes its lowest
    one, so after a hit ``image`` holds the first map found."""
    cand = free
    for j in back[i]:
        cand &= rows[image[j]]
    if i + 1 == len(back):
        if cand:
            image[i] = (cand & -cand).bit_length() - 1
            return True
        return False
    while cand:
        low = cand & -cand
        cand ^= low
        image[i] = low.bit_length() - 1
        if _extends(rows, free ^ low, back, image, i + 1):
            return True
    return False


def _count(rows: tuple[int, ...], free: int, back: tuple[tuple[int, ...], ...],
           image: list[int], i: int) -> int:
    """Number of extensions of a map of positions 0..i-1 to all of a
    rooted order, in ``_extends``'s layout; the last position counts
    its candidate mask."""
    cand = free
    for j in back[i]:
        cand &= rows[image[j]]
    if i + 1 == len(back):
        return cand.bit_count()
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        image[i] = low.bit_length() - 1
        total += _count(rows, free ^ low, back, image, i + 1)
    return total


#: the slots behind two anchors in ``_extends``'s image list, enough
#: for any pattern within the size cap
_SLOTS = (0,) * (MAX_PATTERN_VERTICES - 2)


class _Plan:
    """Search plan of one pattern: the unanchored order, and on first use
    |Aut(F)| and one rooted order per Aut(F) orbit of vertices or of
    arcs (ordered edges).  Orbits come from anchored self-injections:
    t and c share an orbit iff some map of F into itself sends t to c."""

    __slots__ = ("f", "full", "_aut", "_anchored")

    def __init__(self, f: Graph):
        self.f = f
        self.full = _rooted(f)
        self._aut = 0 if f.n else 1
        self._anchored: dict[int, tuple[_Order, ...]] = {}

    @property
    def aut(self) -> int:
        if not self._aut:
            f = self.f
            self._aut = _count(f.rows, f.vertex_mask, self.full.back, [0] * f.n, 0)
        return self._aut

    def anchored(self, k: int) -> tuple[_Order, ...]:
        """Orders rooted at one representative of each orbit of vertices
        (k = 1) or of arcs (k = 2)."""
        reps = self._anchored.get(k)
        if reps is None:
            f = self.f
            rows = f.rows
            if k == 1:
                tuples = [(v,) for v in range(f.n)]
            else:
                tuples = [(a, b) for a in range(f.n) for b in bits_of(rows[a])]
            found = []
            seen = set()
            for t in tuples:
                if t in seen:
                    continue
                rooted = _rooted(f, t)
                found.append(rooted)
                for c in tuples:
                    if c not in seen and (f.n == k or _extends(
                        rows, f.vertex_mask ^ mask_of(c), rooted.back,
                        list(c) + [0] * (f.n - k), k,
                    )):
                        seen.add(c)
            reps = self._anchored[k] = tuple(found)
        return reps


@lru_cache(maxsize=256)
def _plan(rows: tuple[int, ...]) -> _Plan:
    """The plan of the pattern with adjacency ``rows``, built once per
    pattern: keyed on the rows tuple, a lookup hashes and compares ints
    only.  A pattern beyond the size cap raises ``InputError``."""
    f = Graph._from_rows_unchecked(len(rows), rows)
    check_pattern_size(f)
    return _Plan(f)


def check_pattern_size(f: Graph) -> None:
    """Raise InputError when ``f`` has more than MAX_PATTERN_VERTICES."""
    if f.n > MAX_PATTERN_VERTICES:
        raise InputError(
            f"pattern has {f.n} vertices, beyond the {MAX_PATTERN_VERTICES} cap"
        )


def automorphism_count(f: Graph) -> int:
    """|Aut(f)|, counted as edge-preserving injections of f into itself
    (f.n <= 8)."""
    return _plan(f.rows).aut


def count_embeddings(g: Graph, f: Graph) -> int:
    """Number of subgraphs of ``g`` isomorphic to ``f`` (f.n <= 8).

    Computed as injective edge-preserving maps divided by |Aut(f)|.
    """
    plan = _plan(f.rows)
    if f.n == 0:
        return 1
    total = _count(g.rows, g.vertex_mask, plan.full.back, [0] * f.n, 0)
    assert total % plan.aut == 0
    return total // plan.aut


def contains_subgraph(g: Graph, f: Graph, through: tuple[int, ...] = ()) -> bool:
    """True iff ``g`` has a subgraph isomorphic to ``f`` (f.n <= 8); with
    ``through`` one vertex w, iff some copy uses w; with two vertices
    u, v, iff g + uv has a copy through uv, whether or not uv is an
    edge of g.

    The anchored search tries each orbit representative of F on the
    anchor and extends from there with ``_extends``, so it only visits
    copies through it.  It never reads the adjacency of u and v, so a
    non-edge needs no g + uv.  Where g without the anchor is F-free, it
    answers the unanchored question.
    """
    plan = _plan(f.rows)
    k = len(through)
    if k == 0:
        return f.n == 0 or _extends(g.rows, g.vertex_mask, plan.full.back, [0] * f.n, 0)
    n = g.n
    u, v = through[0], through[-1]  # u == v for one anchor
    if k > 2 or not (0 <= u < n and 0 <= v < n) or k == 2 and u == v:
        raise InputError(f"through must be 0, 1 or 2 distinct vertices of g, got {through!r}")
    if f.n > n:
        return False
    image = [u, v, *_SLOTS]
    free = ((1 << n) - 1) ^ (1 << u | 1 << v)
    for _, back in plan.anchored(k):
        if len(back) == k or _extends(g.rows, free, back, image, k):
            return True
    return False


def find_subgraph(g: Graph, f: Graph) -> frozenset[int] | None:
    """Vertex set of one copy of ``f`` in ``g`` (f.n <= 8), or None."""
    plan = _plan(f.rows)
    image = [0] * f.n
    if f.n == 0 or _extends(g.rows, g.vertex_mask, plan.full.back, image, 0):
        return frozenset(image)
    return None
