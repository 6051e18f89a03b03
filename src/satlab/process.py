"""Random maximal-F-free process.

The C(n,2) vertex pairs are shuffled with a seeded splitmix64 generator
and inserted greedily, keeping an edge iff it preserves F-freeness.  The
result is always F-saturated, so each run yields an upper-bound sample
for sat(n, H, F).
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from typing import NamedTuple

from .counting import contains_subgraph
from .errors import InputError
from .graph6 import to_graph6
from .graphs import Graph
from .patterns import PatternSpec, _as_pattern, format_pattern
from .saturation import _find_clique
from .search import _check_n, _forbidden_graph, count_pattern

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: a tiny portable 64-bit generator with published
    reference outputs; identical sequences on every platform."""

    def __init__(self, seed: int):
        self._x = seed & _MASK64

    def next_u64(self) -> int:
        self._x = (self._x + 0x9E3779B97F4A7C15) & _MASK64
        z = self._x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # modulo draw: bias is immaterial here and the sequence is what
        # must be reproducible
        return self.next_u64() % bound


def pair_order(n: int) -> list[tuple[int, int]]:
    """The fixed pair enumeration (0,1),(0,2),...,(n-2,n-1)."""
    return list(combinations(range(n), 2))


def shuffled_pair_indices(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of pair indices, high index downward.

    Draw j is ``SplitMix64(seed).below(i + 1)``, with the generator
    stepped inline on a local state.
    """
    m = n * (n - 1) // 2
    idx = list(range(m))
    x = seed & _MASK64
    for i in range(m - 1, 0, -1):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        j = (z ^ (z >> 31)) % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


class ProcessTrace(NamedTuple):
    """Deterministic record of one process run."""

    seed: int
    n: int
    f: str
    order: tuple[int, ...]  # permutation of pair indices
    accepted: tuple[tuple[int, int], ...]
    result: Graph

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "n": self.n,
                "f": self.f,
                "order": list(self.order),
                "accepted": [list(e) for e in self.accepted],
                "result": to_graph6(self.result),
            },
            sort_keys=True,
        )


def run_ffree_process(n: int, f: PatternSpec | str, seed: int) -> ProcessTrace:
    """One seeded run; the result is F-saturated by construction."""
    _check_n(n)
    f = _as_pattern(f)
    kind, value = f
    if kind == "clique" and value < 3:
        raise InputError(f"process needs clique order >= 3, got {value}")
    fgraph = _forbidden_graph(f)
    pairs = pair_order(n)
    order = shuffled_pair_indices(n, seed)
    rows = [0] * n
    accepted: list[tuple[int, int]] = []
    for pi in order:
        u, v = pairs[pi]
        if fgraph is None:
            creates = _find_clique(rows, rows[u] & rows[v], value - 2) >= 0
        else:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            # the graph before uv is F-free: a new copy must use uv
            creates = contains_subgraph(
                Graph._from_rows_unchecked(n, tuple(rows)), fgraph, through=(u, v)
            )
            if creates:
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
        if not creates:
            if fgraph is None:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            accepted.append((u, v))
    return ProcessTrace(
        seed=seed,
        n=n,
        f=format_pattern(f),
        order=tuple(order),
        accepted=tuple(accepted),
        result=Graph._from_rows_unchecked(n, tuple(rows)),
    )


class TrialStats(NamedTuple):
    """Sample statistics of an H-count over independent process runs."""

    trials: int
    mean: float
    stddev: float
    min: int
    max: int

    @classmethod
    def from_counts(cls, counts: list[int]) -> "TrialStats":
        """Statistics of a nonempty sample.  Sums are exact integers and
        the standard deviation is the sample (n-1) one, 0.0 for one count."""
        trials = len(counts)
        total = sum(counts)
        total_sq = sum(c * c for c in counts)
        if trials == 1:
            stddev = 0.0
        else:
            var_num = total_sq * trials - total * total
            stddev = math.sqrt(var_num / (trials * (trials - 1)))
        return cls(trials=trials, mean=total / trials, stddev=stddev,
                   min=min(counts), max=max(counts))

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)


def estimate_expected_count(
    n: int,
    f: PatternSpec | str,
    h: PatternSpec | str,
    trials: int,
    seed: int,
) -> TrialStats:
    """Monte-Carlo sample of the H-count of the process output.

    Trial i uses seed+i; see ``TrialStats.from_counts`` for the
    statistics.
    """
    if trials < 1:
        raise InputError(f"need trials >= 1, got {trials}")
    h = _as_pattern(h)
    return TrialStats.from_counts(
        [count_pattern(run_ffree_process(n, f, seed + i).result, h) for i in range(trials)]
    )
