"""Named graph families.

Includes the minimum-edge saturated family (``ehm``: a clique joined to
an independent set), stars, cycles, complete and complete bipartite
graphs, and the two girth-5 Moore graphs used by the vertex-duplication
constructions (Petersen and Hoffman-Singleton).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple

from .errors import InputError
from .graphs import Graph, join


class _FamilySpec(NamedTuple):
    family: str
    params: dict[str, int]


class FamilySpec(_FamilySpec):
    """A family name plus its integer parameters (a fresh {} by default)."""

    __slots__ = ()

    def __new__(cls, family: str, params: dict[str, int] | None = None) -> FamilySpec:
        return super().__new__(cls, family, {} if params is None else params)


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise InputError(f"empty: need n >= 0, got n={n}")
    return Graph(n)


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise InputError(f"complete: need n >= 0, got n={n}")
    return Graph(n, combinations(range(n), 2))


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to n-1 leaves."""
    if n < 1:
        raise InputError(f"star: need n >= 1, got n={n}")
    return Graph(n, ((0, v) for v in range(1, n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle: need n >= 3, got n={n}")
    return Graph(n, ((v, (v + 1) % n) for v in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise InputError(f"path: need n >= 1, got n={n}")
    return Graph(n, ((v, v + 1) for v in range(n - 1)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: side A on 0..a-1, side B on a..a+b-1."""
    if a < 0 or b < 0:
        raise InputError(f"complete_bipartite: need a,b >= 0, got a={a}, b={b}")
    return Graph(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def ehm_graph(n: int, s: int) -> Graph:
    """Join of K_{s-2} and an independent set on n-s+2 vertices.

    The unique minimum-edge K_s-saturated graph on n vertices; the s-2
    clique vertices come first (indices 0..s-3).
    """
    if s < 2:
        raise InputError(f"ehm: need s >= 2, got s={s}")
    if n < s:
        raise InputError(f"ehm: need n >= s, got n={n}, s={s}")
    return join(complete_graph(s - 2), empty_graph(n - s + 2))


def petersen() -> Graph:
    """The Petersen graph: 3-regular Moore graph of girth 5 on 10 vertices.

    Built as the Kneser graph on 2-subsets of {0..4}: subsets in
    lexicographic order, adjacent iff disjoint.
    """
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in combinations(range(10), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return Graph(10, edges)


def hoffman_singleton() -> Graph:
    """The Hoffman-Singleton graph: 7-regular Moore graph of girth 5 on 50.

    Five pentagons P_h and five pentagrams Q_i; vertex j of P_h is index
    5h+j, vertex j of Q_i is index 25+5i+j, and P_h[j] ~ Q_i[(h*i+j) mod 5].
    """
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            edges.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return Graph(50, edges)


#: name -> (builder, parameter names in the builder's argument order)
_FAMILY_TABLE: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "ehm": (ehm_graph, ("n", "s")),
    "star": (star, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete": (complete_graph, ("n",)),
    "complete_bipartite": (complete_bipartite, ("a", "b")),
    "empty": (empty_graph, ("n",)),
    "petersen": (petersen, ()),
    "hoffman_singleton": (hoffman_singleton, ()),
}
FAMILIES = tuple(_FAMILY_TABLE)


def make(spec: FamilySpec) -> Graph:
    """Uniform factory over the named families."""
    fam = spec.family
    if fam not in _FAMILY_TABLE:
        raise InputError(f"unknown family {fam!r}; known: {', '.join(FAMILIES)}")
    build, names = _FAMILY_TABLE[fam]
    missing = [k for k in names if k not in spec.params]
    if missing:
        raise InputError(f"{fam}: missing parameter(s) {', '.join(missing)}")
    return build(*(spec.params[k] for k in names))
