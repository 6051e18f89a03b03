"""Saturation verdicts with witnesses.

A graph is F-saturated when it is F-free and adding any missing edge
creates a copy of F.  For F = K_s the per-edge test reduces to finding
an (s-2)-clique in the common neighborhood of the endpoints.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .counting import check_pattern_size, contains_subgraph, find_subgraph
from .errors import InputError, PreconditionError
from .graphs import Graph, bits_of


class _SaturationReport(NamedTuple):
    is_free: bool
    is_saturated: bool
    free_violation: frozenset[int] | None
    saturation_violation: tuple[int, int] | None


class SaturationReport(_SaturationReport):
    """Verdict of F-freeness and F-saturation with concrete witnesses."""

    __slots__ = ()

    def __new__(cls, is_free: bool, is_saturated: bool,
                free_violation: frozenset[int] | None = None,
                saturation_violation: tuple[int, int] | None = None) -> SaturationReport:
        assert is_free == (free_violation is None)
        if is_saturated:
            assert is_free and saturation_violation is None
        return super().__new__(cls, is_free, is_saturated, free_violation, saturation_violation)


class CliqueWitness(NamedTuple):
    """An (s-2)-clique inside N(u,v) certifying that adding uv makes K_s."""

    u: int
    v: int
    s_set: frozenset[int]


def _find_clique(rows: tuple[int, ...], candidates: int, size: int) -> int:
    """Bitmask of one ``size``-clique within ``candidates``, or -1.

    Candidates are tried in ascending order and each is extended with
    higher vertices only, so the first hit is the lexicographically
    first clique.  Size 2 is one flat loop and size 1 the lowest bit, so
    the recursion of sizes 3 and up never descends below size 2.
    """
    if size < 2:
        if size == 0:
            return 0
        if size < 0 or not candidates:
            return -1
        return candidates & -candidates
    if candidates.bit_count() < size:
        return -1
    m = candidates
    if size == 2:
        while m:
            low = m & -m
            m ^= low
            sub = rows[low.bit_length() - 1] & m
            if sub:
                return low | (sub & -sub)
        return -1
    while m:
        low = m & -m
        m ^= low
        sub = _find_clique(rows, rows[low.bit_length() - 1] & m, size - 1)
        if sub >= 0:
            return sub | low
    return -1


def is_ks_free(g: Graph, s: int) -> tuple[bool, frozenset[int] | None]:
    """True iff g has no s-clique; otherwise also return one s-clique.

    A colour certificate comes first: the vertices, in ascending order,
    each go to the first of s-1 independent classes that has none of
    their neighbours.  When every vertex finds a class, g is
    (s-1)-colourable and so K_s-free, with no search (Tomita and Seki,
    DMTCS 2003).  This decides every complete (s-1)-partite graph, an
    EHM graph included, in O(n s).  Otherwise the clique search decides,
    and its witness is the lexicographically first s-clique.
    """
    if s < 1:
        raise InputError(f"clique order must be >= 1, got s={s}")
    rows = g.rows
    classes = [0] * (s - 1)
    for v in range(g.n):
        rv = rows[v]
        for c, members in enumerate(classes):
            if not rv & members:
                classes[c] = members | 1 << v
                break
        else:
            break
    else:
        return True, None
    found = _find_clique(rows, g.vertex_mask, s)
    if found < 0:
        return True, None
    return False, frozenset(bits_of(found))


def creates_ks(g: Graph, u: int, v: int, s: int) -> bool:
    """True iff adding the non-edge uv would create a K_s."""
    if s < 2:
        raise InputError(f"clique order must be >= 2, got s={s}")
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise InputError(f"({u},{v}) is not a vertex pair of the graph")
    if g.rows[u] >> v & 1:
        raise InputError(f"({u},{v}) is already an edge")
    return _find_clique(g.rows, g.rows[u] & g.rows[v], s - 2) >= 0


def is_ks_saturated(g: Graph, s: int) -> SaturationReport:
    """Full K_s-saturation report; deterministic lowest-witness choices."""
    return _report(g, s, is_ks_free(g, s)[1])


def is_h_saturated(g: Graph, h: Graph) -> SaturationReport:
    """Saturation report for an arbitrary pattern (h.n <= 8, >= 1 edge).

    One embedding search decides freeness and gives the witness.
    """
    _check_saturation_pattern(h)
    return _report(g, h, find_subgraph(g, h))


def _report(g: Graph, f: int | Graph, copy: frozenset[int] | None) -> SaturationReport:
    """g's report from its copy of F, if any, and else its first uncompleted non-edge."""
    if copy is not None:
        return SaturationReport(False, False, free_violation=copy)
    pair = next(_uncompleted_non_edges(g.rows, g.n, f), None)
    if pair is not None:
        return SaturationReport(True, False, saturation_violation=pair)
    return SaturationReport(True, True)


def _check_saturation_pattern(h: Graph) -> None:
    """The one check of a pattern graph as a forbidden F: at most
    MAX_PATTERN_VERTICES vertices and at least one edge."""
    check_pattern_size(h)
    if h.edge_count() == 0:
        raise InputError("saturation pattern needs at least one edge")


def _uncompleted_non_edges(rows: tuple[int, ...], n: int, f: int | Graph,
                           pairs: Iterable[tuple[int, int]] | None = None
                           ) -> Iterator[tuple[int, int]]:
    """Each non-edge uv (u < v) of the graph on ``rows``, lowest first,
    with no copy of F (a K_s order s or a pattern graph) through uv in
    g + uv; with ``pairs``, each of those non-edges in their order.

    On an F-free graph a copy in g + uv uses uv: a K_{s-2} in N(u) & N(v),
    or one search anchored on uv in g itself, which answers for g + uv.
    This is the one per-non-edge loop, shared by both saturation reports
    and the search's last two levels.
    """
    if isinstance(f, int):
        if pairs is not None:
            for u, v in pairs:
                if _find_clique(rows, rows[u] & rows[v], f - 2) < 0:
                    yield u, v
            return
        full = (1 << n) - 1
        for u in range(n):
            ru = rows[u]
            # non-neighbors v > u
            m = ~ru & full & -(2 << u)
            while m:
                low = m & -m
                m ^= low
                if _find_clique(rows, ru & rows[low.bit_length() - 1], f - 2) < 0:
                    yield u, low.bit_length() - 1
        return
    if pairs is None:
        # lazily, lowest first: is_h_saturated stops at the first miss
        full = (1 << n) - 1
        pairs = ((u, v) for u in range(n) for v in bits_of(~rows[u] & full & -(2 << u)))
    g = Graph._from_rows_unchecked(n, rows)
    for u, v in pairs:
        if not contains_subgraph(g, f, through=(u, v)):
            yield u, v


def clique_witness(g: Graph, u: int, v: int, s: int) -> CliqueWitness:
    """First (s-2)-clique in N(u,v) in lexicographic subset order.

    ``_find_clique`` tries candidates in ascending order and extends
    each with higher vertices only, so its first hit is that clique.
    Requires uv to be a non-edge of a K_s-saturated graph; raises
    PreconditionError when no witness exists.
    """
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise InputError(f"({u},{v}) is not a vertex pair of the graph")
    if g.rows[u] >> v & 1:
        raise InputError(f"({u},{v}) is already an edge")
    if s < 2:
        raise InputError(f"clique order must be >= 2, got s={s}")
    found = _find_clique(g.rows, g.rows[u] & g.rows[v], s - 2)
    if found >= 0:
        return CliqueWitness(u, v, frozenset(bits_of(found)))
    raise PreconditionError(
        f"no K_{s - 2} in N({u},{v}): the graph is not K_{s}-saturated"
    )


class WitnessHypergraph(NamedTuple):
    """The (s-1)-uniform witness hypergraph of a vertex v.

    One edge {u} ∪ S_u per vertex u outside N[v], where S_u is the
    clique witness for the non-edge uv; S_u ⊆ N(v) because a common
    neighborhood of u and v lies inside N(v).
    """

    center: int
    s: int
    n: int
    ground: frozenset[int]
    edges: tuple[frozenset[int], ...]
    outside: tuple[int, ...] = ()

    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, xs) -> int:
        """Number of hypergraph edges containing every vertex of ``xs``."""
        xset = frozenset(xs)
        return sum(1 for e in self.edges if xset <= e)

    def degree_with(self, y: int, xs) -> int:
        """Number of hypergraph edges containing {y} ∪ xs."""
        return self.degree(frozenset(xs) | {y})


def build_witness_hypergraph(g: Graph, v: int, s: int) -> WitnessHypergraph:
    """Construct the witness hypergraph at ``v`` for a K_s-saturated graph."""
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range for n={g.n}")
    closed = g.rows[v] | (1 << v)
    edges = []
    outside = []
    for u in range(g.n):
        if closed >> u & 1:
            continue
        witness = clique_witness(g, u, v, s)
        edges.append(frozenset({u}) | witness.s_set)
        outside.append(u)
    return WitnessHypergraph(
        center=v,
        s=s,
        n=g.n,
        ground=frozenset(range(g.n)) - {v},
        edges=tuple(edges),
        outside=tuple(outside),
    )
