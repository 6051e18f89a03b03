import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from satlab import Graph


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_tripartite(rng: random.Random, n: int, p: float = 1.0) -> Graph:
    """A G(n, p) subgraph of a complete 3-partite graph on n >= 3 vertices
    whose parts are nonempty and shuffled over the labels; p = 1 keeps
    the whole complete 3-partite graph, which is K_4-saturated."""
    perm = list(range(n))
    rng.shuffle(perm)
    a, b = sorted(rng.sample(range(1, n), 2))
    part = [0] * n
    for pos, v in enumerate(perm):
        part[v] = (pos >= a) + (pos >= b)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part[u] != part[v] and (p >= 1.0 or rng.random() < p)
    ]
    return Graph(n, edges)


@pytest.fixture(scope="session")
def small_random_graphs() -> list[Graph]:
    """120 seeded random graphs with 1 <= n <= 10, assorted densities."""
    rng = random.Random(20240817)
    out = []
    for i in range(120):
        n = rng.randint(1, 10)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.85])
        out.append(random_graph(rng, n, p))
    return out
