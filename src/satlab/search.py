"""Exact sat(n, H, F) at small n by exhaustive isomorph-free enumeration.

Graphs are generated one representative per isomorphism class by
orderly generation (Read, "Every one a winner", 1978): a canonical graph
on k vertices is extended by one vertex in every possible way, and a
child is kept iff its own labeling is canonical.  The minimal-string
canonical form has the prefix property, so every class is produced
exactly once, from its canonical labeling with the last vertex removed,
and no table of seen forms is needed.  A hereditary "stay F-free" filter
prunes the tree when minimizing over F-saturated graphs (an induced
subgraph of an F-free graph is F-free, so pruning is exact).  A second
hook, ``LastLevels``, decides saturation on the last two levels, so no
enumerated graph is tested again: a graph on n-1 vertices is dropped
when no last vertex can saturate it, else it hands its last level the
list of its carried non-edges, for K_s and any other F alike, and every
last-level child is tested on those non-edges and its new vertex's
non-edges only.  A labeled brute-force oracle over all 2^C(n,2) graphs
provides an independent cross-check at n <= 7.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from .canon import canonical_form, canonical_rows, is_canonical
from .counting import contains_subgraph, count_cliques, count_cycles, count_embeddings, count_kab
from .errors import EmptyDomainError, InputError
# from_graph6 is unused here but kept: perfbench/tracer.py binds satlab.search.from_graph6
from .graph6 import column, from_graph6, to_graph6
from .graphs import Graph, bits_of
from .patterns import PatternSpec, _as_pattern, format_pattern, pattern_graph
from .saturation import _check_saturation_pattern, _find_clique, _uncompleted_non_edges
from .saturation import is_h_saturated, is_ks_saturated

MAX_ENUM_VERTICES = 9
#: Largest n of the saturated K_s search, per s: what one CLI search
#: finishes in about a minute (single runs: n=12 K_3 51 s, n=10 K_4 9 s,
#: n=10 K_5 7 s and 4-6 s for s = 6..16; n=11 takes 144 s for K_4 and
#: over 150 s for K_5 and K_6).  s past the table gets the last entry;
#: the K_2 search, whose only graph is the empty one, is bounded by
#: canonical labeling alone.
MAX_KS_SEARCH_VERTICES = {2: 16, 3: 12, 4: 10}
#: Largest n of the saturated search for any other F (F itself may have
#: up to ``counting.MAX_PATTERN_VERTICES`` vertices): every n = 9 CLI
#: search tried takes at most 13 s (c_8; single runs, 2.1 GHz Xeon).
MAX_PATTERN_SEARCH_VERTICES = 9
DEFAULT_EXTREMAL_CAP = 100


def ks_search_cap(s: int) -> int:
    """Largest n for which the saturated K_s search is accepted."""
    return MAX_KS_SEARCH_VERTICES[min(s, max(MAX_KS_SEARCH_VERTICES))]


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All simple graphs on n vertices, one per isomorphism class.

    Yields canonically labeled representatives in sorted canonical-form
    order by orderly generation; n <= 9.
    """
    _check_n(n, MAX_ENUM_VERTICES, "enumeration")
    yield from _enumerate(n, None)


def _check_n(n: int, cap: int | None = None, what: str = "", scope: str = "") -> None:
    """The one range check of a graph order: n >= 0 everywhere and, where
    the caller has a cap, n <= cap ("<what> supports n <= <cap><scope>")."""
    if n < 0:
        raise InputError(f"need n >= 0, got n={n}")
    if cap is not None and n > cap:
        raise InputError(f"{what} supports n <= {cap}{scope}, got n={n}")


#: what a graph on n-1 vertices hands its last level, for both F kinds:
#: its non-edges with no copy of F through them
_Pairs = list[tuple[int, int]]


class LastLevels(NamedTuple):
    """Checks for the last two levels of ``_enumerate``; unlike
    ``child_keep`` they need not be hereditary.

    ``need(rows, k)`` sees each child on k = n-1 vertices, ahead of the
    canonicity test when ``need_first`` is set and after it otherwise:
    None drops the child, a list of carried non-edges (possibly empty)
    is what its own children read.  ``complete(rows, n, pairs)`` sees
    every last-level child that ``child_keep`` builds.
    """

    need: Callable[[tuple[int, ...], int], _Pairs | None]
    complete: Callable[[tuple[int, ...], int, _Pairs], bool]
    need_first: bool


#: a child filter: (parent rows, parent order, new vertex's neighbour
#: set) -> the child's rows, or None to drop it
_ChildKeep = Callable[[tuple[int, ...], int, int], "tuple[int, ...] | None"]


def _enumerate(n: int, child_keep: _ChildKeep | None,
               last: LastLevels | None = None) -> Iterator[Graph]:
    """Isomorph-free stream; ``child_keep(parent_rows, parent_n, subset)``
    builds the child's rows (``_child_rows``), or gives None to drop it,
    and must be hereditary (a graph kept => the parent it came from
    kept) for the stream to cover every class it keeps.  ``last``
    adds the checks of ``LastLevels`` on levels n-1 and n.  When
    ``need`` drops only graphs with no child that ``complete`` accepts,
    the stream is the unhooked one filtered by ``complete``, graph by
    graph and in the same order.

    Depth-first orderly generation.  A child's minimal string is its
    parent's followed by the new vertex's column, so visiting parents in
    order and columns in increasing value yields the canonical graph6
    order without sorting.  Columns start at twice the parent's last
    column: below that, swapping the last two vertices gives a smaller
    string, so no such child is canonical.
    """
    if n == 0:
        yield Graph(0)
        return
    # subsets[k][col]: neighbor set in 0..k-1 whose graph6 column is col
    subsets = [[column(col, k) for col in range(1 << k)] for k in range(n)]
    # identity columns along the current path: ident[j] is vertex j's
    # column, which no deeper vertex changes
    ident = [0] * n
    if child_keep is None:
        child_keep = _child_rows

    def grow(prows: tuple[int, ...], k: int, last_col: int, pairs: _Pairs) -> Iterator[Graph]:
        if k == n:
            yield Graph._from_rows_unchecked(n, prows)
            return
        cols = subsets[k]
        final = last is not None and k + 1 == n
        ahead = last is not None and k + 2 == n
        early = ahead and last.need_first
        late = ahead and not last.need_first
        cpairs = None
        for col in range(last_col << 1, 1 << k):
            child = child_keep(prows, k, cols[col])
            if child is None:
                continue
            if final:
                if not last.complete(child, n, pairs):
                    continue
            elif early:
                cpairs = last.need(child, k + 1)
                if cpairs is None:
                    continue
            ident[k] = col
            if is_canonical(child, k + 1, ident):
                if late:
                    cpairs = last.need(child, k + 1)
                    if cpairs is None:
                        continue
                yield from grow(child, k + 1, col, cpairs)

    yield from grow((0,), 1, 0, [])  # K_1: no non-edge to carry


def _child_rows(prows: tuple[int, ...], k: int, subset: int) -> tuple[int, ...]:
    """Rows of the child of ``prows`` whose new vertex k has the
    neighbour set ``subset``."""
    bit = 1 << k
    return (*[r | bit if subset >> i & 1 else r for i, r in enumerate(prows)], subset)


def _keep_ks_free(s: int) -> _ChildKeep:
    """Child filter: new vertex's neighborhood may not contain K_{s-1}.
    It is tested on the parent's rows, before the child is built."""

    def keep(prows: tuple[int, ...], k: int, subset: int) -> tuple[int, ...] | None:
        if _find_clique(prows, subset, s - 1) >= 0:
            return None
        return _child_rows(prows, k, subset)

    return keep


def _ks_saturation_levels(s: int) -> LastLevels:
    """K_s-saturation as ``LastLevels`` over K_s-free graphs.

    A non-edge uv of a graph on n-1 vertices whose common neighborhood
    holds no K_{s-2} can only be completed by the last vertex, inside a
    K_{s-2} made of it and a K_{s-3} of that common neighborhood: with
    no such K_{s-3}, no last vertex saturates the graph.  Otherwise uv
    is carried and the last vertex must be adjacent to both endpoints.
    The endpoints U of all carried non-edges then lie in its
    neighborhood, which ``_keep_ks_free`` keeps K_{s-1}-free: if U spans
    a K_{s-1}, no last vertex saturates the graph either.  On the last
    level only the carried non-edges and those at the new vertex can
    lack a witness; every other non-edge keeps its parent's witness.
    """

    def need(rows: tuple[int, ...], k: int) -> _Pairs | None:
        pairs = []
        u_mask = 0
        for u in range(k):
            ru = rows[u]
            # non-neighbors v > u
            m = ~ru & ((1 << k) - 1) & -(2 << u)
            while m:
                low = m & -m
                m ^= low
                common = ru & rows[low.bit_length() - 1]
                if _find_clique(rows, common, s - 2) < 0:
                    if _find_clique(rows, common, s - 3) < 0:
                        return None
                    u_mask |= 1 << u | low
                    pairs.append((u, low.bit_length() - 1))
        if _find_clique(rows, u_mask, s - 1) >= 0:
            return None
        return pairs

    # need runs ahead of is_canonical: it drops most level n-1 children
    # for less than the canonicity test costs (n=10 K_4, single runs on
    # a 2.1 GHz Xeon: 65 s with need after it, 5.3 s ahead of it)
    return LastLevels(need, _completes(s), need_first=True)


def _completes(f: int | Graph) -> Callable[[tuple[int, ...], int, _Pairs], bool]:
    """The one ``complete`` of both F kinds (a K_s order or a pattern
    graph): a last-level child is saturated iff each carried non-edge and
    each non-edge at its new vertex has a copy of F through it."""

    def complete(rows: tuple[int, ...], n: int, pairs: _Pairs) -> bool:
        x = n - 1
        pairs = pairs + [(v, x) for v in bits_of(~rows[x] & ((1 << x) - 1))]
        return next(_uncompleted_non_edges(rows, n, f, pairs), None) is None

    return complete


def _keep_pattern_free(f: Graph) -> _ChildKeep:
    """Child filter: no copy of F.  Every kept parent is F-free (for F
    with an edge, K_1 is too), so only copies through the new vertex k
    can appear.  The child is built once, tested, and handed on."""

    def keep(prows: tuple[int, ...], k: int, subset: int) -> tuple[int, ...] | None:
        child = _child_rows(prows, k, subset)
        if contains_subgraph(Graph._from_rows_unchecked(k + 1, child), f, through=(k,)):
            return None
        return child

    return keep


def _pattern_saturation_levels(f: Graph) -> LastLevels:
    """F-saturation as ``LastLevels`` over F-free graphs, by two exact
    rules on a graph G' on n-1 vertices and the last vertex x.

    1. ``need`` carries the non-edges uv with no copy of F through uv in
       G' + uv.  Every other non-edge keeps its copy in every child, so
       ``complete`` tests only these and the non-edges at x on the
       child, which ``_keep_pattern_free`` has kept F-free.
    2. x adjacent to all of G' only adds copies: when a carried uv has
       no copy through it in G' + uv + x even then, ``need`` drops G'.

    Skipping the last-level columns that miss a radius d-1 ball around
    a carried pair's ends (d the diameter of F) is exact too, but it
    skips only children that ``complete`` rejects anyway and costs about
    what it saves, so there is no such rule.

    ``need`` runs after ``is_canonical``: it costs a containment search
    per non-edge, more than the canonicity tests it would save.  n = 8
    c_4 makes 13,036 of these searches with ``need`` ahead, 3,720 after;
    on the closure-free kernel of ``contains_subgraph`` the three
    pattern_search searches (n = 8 c_4, n = 7 c_5 and k_2_3) still take
    0.20 s in-process with ``need`` ahead against 0.15 s after (medians
    of three alternated runs of ten, 2.1 GHz Xeon).
    """

    def need(rows: tuple[int, ...], k: int) -> _Pairs | None:
        carried = list(_uncompleted_non_edges(rows, k, f))
        bit = 1 << k
        universal = tuple(r | bit for r in rows) + (bit - 1,)
        if next(_uncompleted_non_edges(universal, k + 1, f, carried), None) is not None:
            return None
        return carried

    return LastLevels(need, _completes(f), need_first=False)


def _forbidden_graph(f: PatternSpec) -> Graph | None:
    """The one check of a forbidden pattern F.  A clique needs order
    >= 2 and gives None: its searches work on K_s directly.  Any other
    pattern is returned as a graph, which needs at least one edge and
    at most ``MAX_PATTERN_VERTICES`` vertices."""
    kind, value = f
    if kind == "clique":
        if value < 2:
            raise InputError(f"saturation needs clique order >= 2, got {value}")
        return None
    fgraph = pattern_graph(f)
    _check_saturation_pattern(fgraph)
    return fgraph


def _forbidden(f: PatternSpec) -> tuple:
    """The one K_s-or-pattern dispatch: (the search's largest n, the
    label of its cap message, the child filter and the ``LastLevels`` of
    ``_enumerate``, the saturation verdict on any graph).  The verdict
    looks up ``is_ks_saturated`` or ``is_h_saturated`` when called, so a
    rebound module name is the one it calls."""
    fgraph = _forbidden_graph(f)
    if fgraph is None:
        s = f[1]
        return (ks_search_cap(s), f"clique F with s={s}", _keep_ks_free(s),
                _ks_saturation_levels(s), lambda g: is_ks_saturated(g, s).is_saturated)
    return (MAX_PATTERN_SEARCH_VERTICES, "pattern F", _keep_pattern_free(fgraph),
            _pattern_saturation_levels(fgraph), lambda g: is_h_saturated(g, fgraph).is_saturated)


class SatRecord(NamedTuple):
    """Exact sat(n, H, F) with the minimizers in canonical graph6 form."""

    n: int
    h: str
    f: str
    min_count: int
    extremal: tuple[str, ...]
    searched: int
    truncated: bool = False

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SatRecord":
        d = json.loads(text)
        return cls(
            n=d["n"],
            h=d["h"],
            f=d["f"],
            min_count=d["min_count"],
            extremal=tuple(d["extremal"]),
            searched=d["searched"],
            truncated=d["truncated"],
        )


def _check_extremal_cap(max_extremal: int) -> None:
    if max_extremal < 0:
        raise InputError(f"need max_extremal >= 0, got {max_extremal}")


def _sat_record(n: int, h: str, f: str, min_count: int, forms: Iterable[str],
                searched: int, max_extremal: int, truncated: bool = False) -> SatRecord:
    """The one assembly of a ``SatRecord``: the distinct minimizer forms,
    sorted and cut at ``max_extremal``; ``truncated`` is set when the
    cut drops one (or the caller already lost some)."""
    ordered = sorted(set(forms))
    return SatRecord(
        n=n,
        h=h,
        f=f,
        min_count=min_count,
        extremal=tuple(ordered[:max_extremal]),
        searched=searched,
        truncated=truncated or len(ordered) > max_extremal,
    )


def count_pattern(g: Graph, h: PatternSpec) -> int:
    """Number of copies of the pattern ``h`` in ``g``."""
    kind, value = h
    if kind == "clique":
        return count_cliques(g, value)
    if kind == "kab":
        return count_kab(g, value)
    if kind == "cycle":
        return count_cycles(g, value)
    return count_embeddings(g, value)


def _shard_key(g6: str) -> int:
    return int.from_bytes(g6[:8].encode("ascii"), "big")


@lru_cache(maxsize=None)
def saturated_classes(n: int, f: PatternSpec) -> tuple[tuple[Graph, str], ...]:
    """Cached (graph, canonical form) pairs of all F-saturated classes.

    Enumerations are expensive and shared by every criterion sweep, so
    they are memoized per (n, F); all values are immutable.
    """
    return tuple(saturated_stream(n, f))


def saturated_stream(
    n: int,
    f: PatternSpec,
    source: Iterable[Graph] | None = None,
) -> Iterator[tuple[Graph, str]]:
    """F-saturated graphs on n vertices as (graph, canonical form) pairs.

    Uses the pruned enumeration unless an explicit ``source`` of graphs
    (e.g. parsed from graph6 lines) is supplied.  Enumerated graphs are
    already canonically labeled; only source graphs are canonicalized.
    The enumeration decides saturation itself on its last levels
    (``_ks_saturation_levels`` for F = K_s, else
    ``_pattern_saturation_levels``) and yields every graph it reaches;
    only source graphs are tested by ``is_ks_saturated`` or
    ``is_h_saturated``.
    """
    cap, label, keep, last, saturated = _forbidden(f)
    _check_n(n, cap if source is None else None, "search", f" for {label}")
    if source is None:
        for g in _enumerate(n, keep, last):
            yield g, to_graph6(g)
        return
    for g in source:
        if g.n != n:
            raise InputError(f"source graph has n={g.n}, expected {n}")
        if saturated(g):
            yield g, canonical_form(g)


def min_count_over_saturated(
    n: int,
    h: PatternSpec | str,
    f: PatternSpec | str,
    *,
    max_extremal: int = DEFAULT_EXTREMAL_CAP,
    shard: tuple[int, int] | None = None,
    source: Iterable[Graph] | None = None,
) -> SatRecord:
    """Minimum H-count over all F-saturated graphs on n vertices.

    ``shard=(i, k)`` keeps only graphs whose canonical form hashes to
    residue i mod k; shard records merge back with ``merge_records``.
    """
    _check_extremal_cap(max_extremal)
    h, f = _as_pattern(h), _as_pattern(f)
    if shard is not None:
        idx, total = shard
        if not (total >= 1 and 0 <= idx < total):
            raise InputError(f"bad shard {shard}: need 0 <= index < total")
    pairs = saturated_classes(n, f) if source is None else saturated_stream(n, f, source=source)
    best, forms, searched = _fold_minimum(
        ((count_pattern(g, h), form) for g, form in pairs
         if shard is None or _shard_key(form) % shard[1] == shard[0]),
        f"no {format_pattern(f)}-saturated graph on {n} vertices"
        + (" in this shard" if shard else ""),
    )
    return _sat_record(n, format_pattern(h), format_pattern(f), best, forms,
                       searched, max_extremal)


def _fold_minimum(scored: Iterable[tuple[int, object]], empty: str) -> tuple[int, list, int]:
    """The one minimum fold of the search and the oracle: the least
    count, the items that attain it in order, and the number of items;
    ``EmptyDomainError(empty)`` when there are none."""
    best: int | None = None
    minimizers: list = []
    searched = 0
    for c, item in scored:
        searched += 1
        if best is None or c < best:
            best = c
            minimizers = [item]
        elif c == best:
            minimizers.append(item)
    if best is None:
        raise EmptyDomainError(empty)
    return best, minimizers, searched


def merge_records(records: Iterable[SatRecord], *,
                  max_extremal: int = DEFAULT_EXTREMAL_CAP) -> SatRecord:
    """Combine shard records: min of minima, union of minimizer lists."""
    _check_extremal_cap(max_extremal)
    records = list(records)
    if not records:
        raise EmptyDomainError("no records to merge")
    first = records[0]
    for r in records[1:]:
        if (r.n, r.h, r.f) != (first.n, first.h, first.f):
            raise InputError("records describe different problems")
    best = min(r.min_count for r in records)
    tied = [r for r in records if r.min_count == best]
    return _sat_record(
        first.n, first.h, first.f, best,
        (form for r in tied for form in r.extremal),
        sum(r.searched for r in records), max_extremal,
        truncated=any(r.truncated for r in tied),
    )


def _labeled_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Rows of all 2^C(n,2) labeled graphs on n vertices, by edge mask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        m = mask
        idx = 0
        while m:
            if m & 1:
                u, v = pairs[idx]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            m >>= 1
            idx += 1
        yield tuple(rows)


def _degree_sorted_key(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Rows relabeled by descending degree (ties by label): an
    isomorphism-invariant memo key for the labeled scans."""
    order = sorted(range(n), key=lambda x: (-rows[x].bit_count(), x))
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    return tuple(
        sum(1 << pos[b] for b in range(n) if rows[x] >> b & 1) for x in order
    )


def brute_force_labeled(
    n: int,
    h: PatternSpec | str,
    f: PatternSpec | str,
    *,
    max_extremal: int = DEFAULT_EXTREMAL_CAP,
    use_cache: bool = True,
) -> SatRecord:
    """Independent oracle: scan all 2^C(n,2) labeled graphs (n <= 7).

    No isomorphism machinery is used while searching; ``use_cache`` only
    memoizes the (isomorphism-invariant) verdicts on degree-sorted rows,
    which does not change any result.  ``searched`` counts saturated
    labeled graphs, not classes.
    """
    _check_extremal_cap(max_extremal)
    _check_n(n, 7, "labeled brute force")
    h, f = _as_pattern(h), _as_pattern(f)
    *_, saturated = _forbidden(f)
    cache: dict[tuple[int, ...], int] = {}

    def count(rows: tuple[int, ...]) -> int:
        # the H-count of a saturated graph, -1 for any other
        key = _degree_sorted_key(rows, n) if use_cache else rows
        c = cache.get(key)
        if c is None:
            g = Graph._from_rows_unchecked(n, key)
            c = count_pattern(g, h) if saturated(g) else -1
            if use_cache:
                cache[key] = c
        return c

    best, minimizer_rows, searched = _fold_minimum(
        ((c, rows) for rows in _labeled_rows(n) if (c := count(rows)) >= 0),
        f"no {format_pattern(f)}-saturated graph on {n} vertices",
    )
    forms = (canonical_form(Graph._from_rows_unchecked(n, r)) for r in minimizer_rows)
    return _sat_record(n, format_pattern(h), format_pattern(f), best, forms,
                       searched, max_extremal)


def count_classes(n: int) -> int:
    """Number of isomorphism classes via the augmentation stream."""
    return sum(1 for _ in enumerate_graphs(n))


def count_classes_labeled(n: int) -> int:
    """Independent class count: canonical forms over all labeled graphs.

    Iterates every 2^C(n,2) edge mask and counts distinct canonical
    forms (n <= 7); memoizes on degree-sorted rows, which leaves the
    result unchanged.
    """
    _check_n(n, 7, "labeled scan")
    forms: set[str] = set()
    cache: dict[tuple[int, ...], str] = {}
    for rows in _labeled_rows(n):
        key = _degree_sorted_key(rows, n)
        form = cache.get(key)
        if form is None:
            form = to_graph6(
                Graph._from_rows_unchecked(n, canonical_rows(key, n))
            )
            cache[key] = form
        forms.add(form)
    return len(forms)
