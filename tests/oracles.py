"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: subset and permutation
enumeration with itertools, set-based neighborhoods, no bitsets and no
reuse of the library's counting or canonicalization paths.  The
exceptions are slow paths that a fast one replaced and must reproduce
exactly: ``dedup_enumerate``, the per-level canonical dedup that orderly
generation replaced, graph by graph; ``list_canonical_order`` and
``list_is_canonical``, the canonical search over per-vertex column lists
that the bitmask-cell search replaced, order by order and verdict by
verdict; ``find_subgraph_oracle``, the embedding search that
``find_subgraph`` replaced with a first-hit search of the existence
kernel ``_extends``, witness by witness; ``filter_then_test_stream``, the saturated K_s
stream as it was before the search decided saturation on its last two
levels, pair by pair and in order; ``unanchored_ffree_process``,
``unanchored_is_h_saturated``, ``unanchored_keep_pattern_free`` and
``unanchored_saturated_stream``, the pattern-F process, saturation
report, child filter and search as they were before
each containment test was anchored on the new edge or vertex: a full
``contains_subgraph`` of the whole graph every time, trace by trace,
report by report and pair by pair; ``graph6_decode_oracle``, the graph6
decoder that mapped each data bit to its vertex pair by a linear
search, graph by graph and error by error; ``recursive_find_clique``,
the clique finder that recursed down to size 0 before sizes 0 to 2
became flat base cases, mask by mask; ``combinations_count_kab``, the
K_{a,b} counter that intersected the rows of every a-subset before the
counter carried common neighbourhoods along a pruned search, count by
count.
"""

from itertools import combinations, permutations
from math import comb, factorial

from satlab import CapacityError, Graph, Graph6ParseError, to_graph6
from satlab.canon import canonical_rows
from satlab.counting import _embedding_order, contains_subgraph, count_stars, find_subgraph
from satlab.graph6 import _HEADER, _decode_n
from satlab.graphs import MAX_VERTICES, bits_of
from satlab.patterns import format_pattern, parse_pattern, pattern_graph
from satlab.process import ProcessTrace, pair_order, shuffled_pair_indices
from satlab.saturation import SaturationReport, is_ks_saturated
from satlab.search import _enumerate, _keep_ks_free


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


def combinations_count_kab(g: Graph, a: int, b: int) -> int:
    """``count_kab`` as it was: the common neighbourhood of every
    a-subset from ``combinations``, for 1 <= a <= b."""
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


def _injections_oracle(src: Graph, dst: Graph) -> int:
    """Injective edge-preserving maps src -> dst, by scanning every
    injection."""
    dn = nbr_sets(dst)
    total = 0
    for image in permutations(range(dst.n), src.n):
        if all(image[v] in dn[image[u]] for u, v in src.edges()):
            total += 1
    return total


def automorphisms_oracle(f: Graph) -> int:
    """|Aut(f)|: the edge-preserving permutations of f."""
    return _injections_oracle(f, f)


def embeddings_oracle(g: Graph, f: Graph) -> int:
    """Subgraph copies of f: injective edge-preserving maps over |Aut(f)|."""
    aut = automorphisms_oracle(f)
    total = _injections_oracle(f, g)
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
    parent order and the new vertex's neighbor set, and gives None to
    drop the child.
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


def filter_then_test_stream(n: int, s: int):
    """(graph, graph6) pairs of the K_s-saturated classes: every K_s-free
    class from the orderly stream, kept iff ``is_ks_saturated`` says so."""
    for g in _enumerate(n, _keep_ks_free(s)):
        if is_ks_saturated(g, s).is_saturated:
            yield g, to_graph6(g)


def unanchored_ffree_process(n: int, f: str, seed: int) -> ProcessTrace:
    """The pattern-F process with a full containment test of the whole
    graph after each tentative insertion."""
    spec = parse_pattern(f)
    fgraph = pattern_graph(spec)
    pairs = pair_order(n)
    order = shuffled_pair_indices(n, seed)
    rows = [0] * n
    accepted = []
    for pi in order:
        u, v = pairs[pi]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        if contains_subgraph(Graph._from_rows_unchecked(n, tuple(rows)), fgraph):
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        else:
            accepted.append((u, v))
    return ProcessTrace(
        seed=seed,
        n=n,
        f=format_pattern(spec),
        order=tuple(order),
        accepted=tuple(accepted),
        result=Graph._from_rows_unchecked(n, tuple(rows)),
    )


def unanchored_is_h_saturated(g: Graph, h: Graph) -> SaturationReport:
    """Saturation report from a freeness test, a witness search and a
    full containment test of g + uv per non-edge uv."""
    if contains_subgraph(g, h):
        return SaturationReport(False, False, free_violation=find_subgraph(g, h))
    for u, v in g.non_edges():
        added = list(g.rows)
        added[u] |= 1 << v
        added[v] |= 1 << u
        if not contains_subgraph(Graph._from_rows_unchecked(g.n, tuple(added)), h):
            return SaturationReport(True, False, saturation_violation=(u, v))
    return SaturationReport(True, True)


def unanchored_keep_pattern_free(f: Graph):
    """Child filter: a full containment test of the child, whose rows it
    returns when the child is F-free (None otherwise)."""

    def keep(prows, k, subset):
        child = tuple(
            r | ((subset >> i & 1) << k) for i, r in enumerate(prows)
        ) + (subset,)
        if contains_subgraph(Graph._from_rows_unchecked(k + 1, child), f):
            return None
        return child

    return keep


def unanchored_saturated_stream(n: int, f: str):
    """(graph, graph6) pairs of the F-saturated classes for a pattern F:
    the orderly stream filtered by ``unanchored_keep_pattern_free``,
    each class kept iff ``unanchored_is_h_saturated`` says so."""
    fgraph = pattern_graph(parse_pattern(f))
    for g in _enumerate(n, unanchored_keep_pattern_free(fgraph)):
        if unanchored_is_h_saturated(g, fgraph).is_saturated:
            yield g, to_graph6(g)


def clique_witness_oracle(g: Graph, u: int, v: int, s: int):
    """First (s-2)-subset of N(u) ∩ N(v), in lexicographic order, that is
    a clique; None if there is none."""
    nbrs = nbr_sets(g)
    common = sorted(nbrs[u] & nbrs[v])
    for sub in combinations(common, s - 2):
        if all(y in nbrs[x] for x, y in combinations(sub, 2)):
            return frozenset(sub)
    return None


def recursive_find_clique(rows: tuple[int, ...], candidates: int, size: int) -> int:
    """``saturation._find_clique`` as it was: recursion down to size 0,
    so a negative size walks every clique among the candidates before
    it returns -1."""
    if size == 0:
        return 0
    if candidates.bit_count() < size:
        return -1
    m = candidates
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        sub = recursive_find_clique(rows, rows[v] & m, size - 1)
        if sub >= 0:
            return sub | low
    return -1


def find_subgraph_oracle(g: Graph, f: Graph):
    """Vertex set of the first copy of ``f`` in ``g``: pattern vertices
    placed in ``_embedding_order``, each tried on ascending g-vertices
    adjacent to the images of its placed neighbours; None if no copy."""
    order = _embedding_order(f)
    n = f.n
    image: list[int] = []

    def rec(used: int) -> bool:
        i = len(image)
        if i == n:
            return True
        pv = order[i]
        cand = g.vertex_mask & ~used
        for k in range(i):
            if f.rows[pv] >> order[k] & 1:
                cand &= g.rows[image[k]]
        m = cand
        while m:
            low = m & -m
            gv = low.bit_length() - 1
            m ^= low
            image.append(gv)
            if rec(used | low):
                return True
            image.pop()
        return False

    if rec(0):
        return frozenset(image)
    return None


def list_canonical_order(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Vertex order of the minimal string, with every candidate's column
    kept in a per-vertex list and the prefix compared with the best one
    at every node."""
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
    return tuple(best_path)


def list_is_canonical(rows: tuple[int, ...], n: int) -> bool:
    """Canonicity of the identity labeling by the same per-vertex-list
    search, bounded by the identity's columns."""
    if n <= 1:
        return True
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


def _bit_to_pair(bit: int) -> tuple[int, int]:
    # inverse of the column-major upper-triangle enumeration
    j = 1
    while j * (j + 1) // 2 <= bit:
        j += 1
    i = bit - j * (j - 1) // 2
    return i, j


def graph6_decode_oracle(text: str) -> Graph:
    """``from_graph6`` walking the data bit by bit, each bit's vertex
    pair found by ``_bit_to_pair``; the size header is read by the
    library's ``_decode_n``, which the column walk left unchanged."""
    s = text.rstrip("\r\n")
    base = 0
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
        base = len(_HEADER)
    if not s:
        raise Graph6ParseError("empty graph6 string", base)
    n, pos = _decode_n(s, base)
    if n > MAX_VERTICES:
        raise CapacityError(f"n={n} exceeds capacity MAX_VERTICES={MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    data = s[pos:]
    if len(data) < need:
        raise Graph6ParseError(
            f"truncated data: need {need} bytes for n={n}, got {len(data)}",
            base + len(s),
        )
    if len(data) > need:
        raise Graph6ParseError("trailing bytes after graph data", base + pos + need)
    rows = [0] * n
    bit = 0
    for k, ch in enumerate(data):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6ParseError(f"byte {ch!r} outside graph6 range", base + pos + k)
        for t in range(5, -1, -1):
            if bit >= nbits:
                if val >> t & 1:
                    raise Graph6ParseError("nonzero padding bits", base + pos + k)
                continue
            if val >> t & 1:
                i, j = _bit_to_pair(bit)
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return Graph._from_rows_unchecked(n, tuple(rows))
