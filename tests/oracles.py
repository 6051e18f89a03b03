"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: subset and permutation
enumeration with itertools, set-based neighborhoods, no bitsets and no
reuse of the library's counting or canonicalization paths.  The one
exception is ``dedup_enumerate``, the per-level canonical dedup that
orderly generation replaced, kept as the slow path the fast one must
reproduce graph by graph.
"""

from itertools import combinations, permutations
from math import comb, factorial

from satlab import Graph, to_graph6
from satlab.canon import canonical_rows
from satlab.graphs import bits_of


def nbr_sets(g: Graph) -> list[set[int]]:
    return [set(bits_of(r)) for r in g.rows]


def brute_canonical_form(g: Graph) -> str:
    """Minimal graph6 string over all vertex permutations."""
    best = None
    for perm in permutations(range(g.n)):
        relabeled = Graph(
            g.n, ((perm[u], perm[v]) for u, v in g.edges())
        )
        s = to_graph6(relabeled)
        if best is None or s < best:
            best = s
    return best


def stars_oracle(g: Graph, t: int) -> int:
    """K_{1,t} copies by (t+1)-subset and center enumeration."""
    if t == 1:
        return len(g.edges())
    nbrs = nbr_sets(g)
    total = 0
    for subset in combinations(range(g.n), t + 1):
        for center in subset:
            leaves = set(subset) - {center}
            if leaves <= nbrs[center]:
                total += 1
    return total


def kab_oracle(g: Graph, a: int, b: int) -> int:
    """K_{a,b} copies as unordered pairs of disjoint subsets."""
    nbrs = nbr_sets(g)
    seen = set()
    for aside in combinations(range(g.n), a):
        rest = [v for v in range(g.n) if v not in aside]
        for bside in combinations(rest, b):
            if all(u in nbrs[v] for u in aside for v in bside):
                key = frozenset({frozenset(aside), frozenset(bside)})
                seen.add(key)
    return len(seen)


def cliques_oracle(g: Graph, r: int) -> int:
    nbrs = nbr_sets(g)
    total = 0
    for subset in combinations(range(g.n), r):
        if all(v in nbrs[u] for u, v in combinations(subset, 2)):
            total += 1
    return total


def cycles_oracle(g: Graph, r: int) -> int:
    """r-cycles by cyclic-sequence enumeration (each cycle seen 2r times)."""
    nbrs = nbr_sets(g)
    total = 0
    for subset in combinations(range(g.n), r):
        for perm in permutations(subset):
            if all(perm[(i + 1) % r] in nbrs[perm[i]] for i in range(r)):
                total += 1
    assert total % (2 * r) == 0
    return total // (2 * r)


def k4minus_oracle(g: Graph) -> int:
    """Quadruples with exactly the anchored K_4^- shape."""
    nbrs = nbr_sets(g)
    total = 0
    for quad in combinations(range(g.n), 4):
        for u, v in combinations(quad, 2):
            if v in nbrs[u]:
                continue
            x, y = [w for w in quad if w not in (u, v)]
            if y in nbrs[x] and {x, y} <= nbrs[u] and {x, y} <= nbrs[v]:
                total += 1
    return total


def codegree_sum_oracle(g: Graph, t: int) -> int:
    nbrs = nbr_sets(g)
    return sum(
        comb(len(nbrs[u] & nbrs[v]), t) for u, v in g.edges()
    )


def embeddings_oracle(g: Graph, f: Graph) -> int:
    """Subgraph copies of f: injective edge-preserving maps over |Aut(f)|."""

    def injections(src: Graph, dst: Graph) -> int:
        dn = nbr_sets(dst)
        total = 0
        for image in permutations(range(dst.n), src.n):
            if all(image[v] in dn[image[u]] for u, v in src.edges()):
                total += 1
        return total

    aut = injections(f, f)
    total = injections(f, g)
    assert total % aut == 0
    return total // aut


def ks_saturated_oracle(g: Graph, s: int) -> bool:
    """Saturation decided entirely with subset scans."""
    if cliques_oracle(g, s) != 0:
        return False
    nbrs = nbr_sets(g)
    for u, v in combinations(range(g.n), 2):
        if v in nbrs[u]:
            continue
        common = nbrs[u] & nbrs[v]
        if not any(
            all(y in nbrs[x] for x, y in combinations(sub, 2))
            for sub in combinations(sorted(common), s - 2)
        ):
            return False
    return True


def class_count_burnside(n: int) -> int:
    """Isomorphism classes on n vertices by orbit counting over S_n.

    Pure arithmetic: sum over permutations of 2^(cycles of the induced
    pair action), divided by n!.
    """
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    total = 0
    for perm in permutations(range(n)):
        mapped = [index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        seen = [False] * len(pairs)
        cycles = 0
        for start in range(len(pairs)):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = mapped[j]
        total += 1 << cycles
    assert total % factorial(n) == 0
    return total // factorial(n)


def dedup_enumerate(n: int, child_keep=None):
    """Isomorph-free stream by vertex augmentation and per-level dedup.

    Every child of every parent is canonically relabeled and kept once
    per graph6 key; each level is sorted by that key.  Same contract as
    ``satlab.search._enumerate``: the filter sees the parent rows, the
    parent order and the new vertex's neighbor set.
    """
    if n == 0:
        yield Graph(0)
        return
    level = [(0,)]  # K_1
    for k in range(1, n):
        seen = {}
        for prows in level:
            for subset in range(1 << k):
                if child_keep is not None and not child_keep(prows, k, subset):
                    continue
                child = tuple(
                    r | ((subset >> i & 1) << k) for i, r in enumerate(prows)
                ) + (subset,)
                crows = canonical_rows(child, k + 1)
                key = to_graph6(Graph._from_rows_unchecked(k + 1, crows))
                seen.setdefault(key, crows)
        level = [seen[key] for key in sorted(seen)]
    for rows in level:
        yield Graph._from_rows_unchecked(n, rows)
