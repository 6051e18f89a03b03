"""Random maximal-F-free process.

The C(n,2) vertex pairs are shuffled with a seeded splitmix64 generator
and inserted greedily, keeping an edge iff it preserves F-freeness.  The
result is always F-saturated, so each run yields an upper-bound sample
for sat(n, H, F).

Two kernels carry a run.  The shuffle computes every splitmix64 draw of
one permutation at once, in 128-bit lanes of one Python int
(``shuffled_pair_indices``).  The pair test is one lookup in masks of
closed pairs for F = K_4 (``_k4_free_greedy``), one clique search in
the common neighbourhood for other cliques, and one containment search
anchored on the new edge for a pattern F (``_ffree_greedy``).

The trials of a multi-trial run are independent, so ``_trial_results``
deals them round-robin to one forked worker per CPU the process may use
(the calling process is worker 0), each pinned to its own CPU, and
yields their results in trial order: the output does not depend on the
number of CPUs.
"""

from __future__ import annotations

import json
import math
import os
import struct
from functools import lru_cache
from itertools import combinations
from typing import BinaryIO, Callable, Iterator, NamedTuple, TypeVar

from .counting import check_pattern_size, contains_subgraph
from .errors import InputError
from .graph6 import to_graph6
from .graphs import Graph
from .patterns import PatternSpec, _as_pattern, format_pattern
from .saturation import _find_clique
from .search import _check_n, _forbidden_graph, count_pattern

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

_T = TypeVar("_T")


class SplitMix64:
    """splitmix64: a tiny portable 64-bit generator with published
    reference outputs; identical sequences on every platform."""

    def __init__(self, seed: int):
        self._x = seed & _MASK64

    def next_u64(self) -> int:
        self._x = (self._x + _GAMMA) & _MASK64
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
    return list(_pairs(n))


@lru_cache(maxsize=1)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The fixed pair enumeration as a tuple, kept for the trials of one
    n; ``pair_order`` hands out a list copy."""
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=1)
def _lanes(m: int) -> tuple[int, int, int, struct.Struct]:
    """The lane constants of an ``m``-draw shuffle: lane k (bits
    128(k-1) up, k = 1..m) of the three ints holds k * gamma mod 2^64, 1
    and 2^64 - 1; the struct packs and reads the low 64 bits of each
    lane, little-endian on every platform."""
    lanes = struct.Struct("<" + "Q8x" * m)
    steps = int.from_bytes(lanes.pack(*[k * _GAMMA & _MASK64 for k in range(1, m + 1)]), "little")
    ones = int.from_bytes(lanes.pack(*[1] * m), "little")
    return steps, ones, ones * _MASK64, lanes


def shuffled_pair_indices(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of pair indices, high index downward.

    Draw j is ``SplitMix64(seed).below(i + 1)``.  The m - 1 generator
    outputs of one shuffle are computed at once: the states
    seed + k * gamma (k = 1..m-1) sit in 128-bit lanes of one int, and
    each xor-shift-multiply step masks every lane to 64 bits before it
    multiplies, so a 64 x 64-bit product fills its own lane and carries
    nothing into the next.  ``struct`` then reads the low 64 bits of each
    lane, little-endian on every platform.
    """
    m = n * (n - 1) // 2
    idx = list(range(m))
    if m < 2:
        return idx
    steps, ones, mask, lanes = _lanes(m - 1)
    z = ((seed & _MASK64) * ones + steps) & mask
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    z ^= z >> 31
    draws = lanes.unpack(z.to_bytes(16 * (m - 1), "little"))
    for i, r in zip(range(m - 1, 0, -1), draws):
        j = r % (i + 1)
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


def _check_process(n: int, f: PatternSpec | str) -> tuple[PatternSpec, Graph | None]:
    """The checks of one run's n and F: F as a spec, and as a graph
    unless it is a clique (see ``search._forbidden_graph``)."""
    _check_n(n)
    f = _as_pattern(f)
    kind, value = f
    if kind == "clique" and value < 3:
        raise InputError(f"process needs clique order >= 3, got {value}")
    return f, _forbidden_graph(f)


def _check_trials(n: int, f: PatternSpec | str, h: PatternSpec | str,
                  trials: int) -> PatternSpec:
    """Every check of a multi-trial run, made before any trial, fork or
    file; returns the counted pattern H as a spec."""
    if trials < 1:
        raise InputError(f"need trials >= 1, got {trials}")
    _check_process(n, f)
    h = _as_pattern(h)
    if h[0] == "graph":
        check_pattern_size(h[1])
    return h


def run_ffree_process(n: int, f: PatternSpec | str, seed: int) -> ProcessTrace:
    """One seeded run; the result is F-saturated by construction."""
    f, fgraph = _check_process(n, f)
    pairs = _pairs(n)
    order = shuffled_pair_indices(n, seed)
    if f == ("clique", 4):
        rows, accepted = _k4_free_greedy(n, pairs, order)
    else:
        rows, accepted = _ffree_greedy(n, f[1] if fgraph is None else fgraph, pairs, order)
    return ProcessTrace(
        seed=seed,
        n=n,
        f=format_pattern(f),
        order=tuple(order),
        accepted=tuple(accepted),
        result=Graph._from_rows_unchecked(n, tuple(rows)),
    )


def _ffree_greedy(n: int, f: int | Graph, pairs: tuple[tuple[int, int], ...],
                  order: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Rows and accepted pairs of the greedy insertion of ``pairs`` in
    ``order`` that keeps the graph free of F (a K_s order or a pattern
    graph).  The graph before uv is F-free, so a new copy uses uv: a
    K_{s-2} in N(u) & N(v), or one containment search anchored on uv in
    the graph before uv, whose ``Graph`` is rebuilt only on an accept."""
    rows = [0] * n
    g = Graph._from_rows_unchecked(n, tuple(rows))
    accepted: list[tuple[int, int]] = []
    for pi in order:
        u, v = pairs[pi]
        if isinstance(f, int):
            if _find_clique(rows, rows[u] & rows[v], f - 2) >= 0:
                continue
        elif contains_subgraph(g, f, through=(u, v)):
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        if not isinstance(f, int):
            g = Graph._from_rows_unchecked(n, tuple(rows))
        accepted.append((u, v))
    return rows, accepted


def _k4_free_greedy(n: int, pairs: tuple[tuple[int, int], ...],
                    order: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """``_ffree_greedy`` for F = K_4, with one mask lookup per pair.

    ``closed[x]`` has bit y when adding xy would create a K_4, that is
    when N(x) & N(y) spans an edge; a pair is rejected when either of its
    two bits is set.  Accepting uv changes the masks as follows, with
    C = N(u) & N(v) taken before uv is added.  A non-edge xy gains an
    edge inside its common neighbourhood in only two ways:

    * the edge is uv itself, so x and y both lie in C;
    * x is u (or v), whose neighbourhood gains v (or u), so y is in N(v)
      and the edge is v-w for some w in C & N(y): y sees some w in C.

    So each w in C gets ``closed[w] |= C``, and with ``reach`` the union
    of N(w) over w in C, u gets ``N(v) & reach`` and v ``N(u) & reach``.
    Adding edges never removes a K_4, so every set bit stays true, and
    the masks are exact for the non-edges still to come.
    """
    bit = _bits(n)
    rows = [0] * n
    closed = [0] * n
    accepted: list[tuple[int, int]] = []
    for pair in map(pairs.__getitem__, order):
        u, v = pair
        if closed[u] & bit[v] or closed[v] & bit[u]:
            continue
        ru = rows[u]
        rv = rows[v]
        common = ru & rv
        if common:
            m = common
            reach = 0
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                closed[w] |= common
                reach |= rows[w]
            closed[u] |= rv & reach
            closed[v] |= ru & reach
        rows[u] = ru | bit[v]
        rows[v] = rv | bit[u]
        accepted.append(pair)
    return rows, accepted


@lru_cache(maxsize=1)
def _bits(n: int) -> tuple[int, ...]:
    """1 << v for v < n, kept for the trials of one n."""
    return tuple(1 << v for v in range(n))


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
    h = _check_trials(n, f, h, trials)
    return TrialStats.from_counts(list(_trial_results(
        lambda i: count_pattern(run_ffree_process(n, f, seed + i).result, h), trials)))


def _trial_results(fn: Callable[[int], _T], trials: int,
                   workers: int | None = None) -> Iterator[_T]:
    """Yield ``fn(i)`` for i = 0..trials-1, in trial order.

    Trial i runs on worker i mod k, with k = min(``workers``, trials).
    ``workers`` defaults to the number of CPUs the process may use, or 1
    where ``os.fork`` is missing or the process already runs other
    threads.  Worker 0 is the calling process, pinned to the first of
    those CPUs until the last trial; workers 1..k-1 are forked children,
    each pinned to its own CPU (an unpinned child mostly stayed on the
    parent's CPU).  A child streams one pickled ``(True, result)`` per
    trial through its own pipe, or ``(False, exception)`` as its last
    record, and ends with ``os._exit``, so it runs none of the caller's
    cleanup.  Every path out of the generator kills and reaps the
    children first, and a worker's exception is raised after that.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    if workers is None:
        import threading

        workers = len(cpus) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    k = min(workers, trials)
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    mask = None
    try:
        if k > 1:
            import gc
            import pickle
            import signal

            if hasattr(os, "sched_setaffinity"):
                mask = os.sched_getaffinity(0)
                _pin(cpus[0])
            gc.freeze()  # the children's collections then touch no inherited page
            try:
                for w in range(1, k):
                    r, wfd = os.pipe()
                    reader = open(r, "rb")
                    pid = os.fork()
                    if pid == 0:
                        _worker(fn, range(w, trials, k), wfd,
                                [reader] + [x for _, x in children],
                                cpus[w % len(cpus)] if mask is not None else None)
                    os.close(wfd)
                    children.append((pid, reader))
            finally:
                gc.unfreeze()
        for i in range(trials):
            w = i % k
            if w == 0:
                yield fn(i)
                continue
            try:
                ok, value = pickle.load(children[w - 1][1])
            except EOFError:
                ok, value = False, RuntimeError(f"trial worker {w} ended before trial {i}")
            if not ok:
                raise value
            yield value
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if mask is not None:
            os.sched_setaffinity(0, mask)


def _worker(fn: Callable[[int], object], mine: range, wfd: int, readers: list[BinaryIO],
            cpu: int | None) -> None:
    """The body of a forked worker: the trials ``mine``, written to
    ``wfd``; it closes the inherited ``readers`` and never returns.
    Once its parent is gone, its next write fails (EPIPE) and it exits."""
    import pickle

    try:
        for reader in readers:
            reader.close()
        if cpu is not None:
            _pin(cpu)
        with open(wfd, "wb") as out:
            try:
                for i in mine:
                    out.write(pickle.dumps((True, fn(i)), pickle.HIGHEST_PROTOCOL))
                    out.flush()
            except BaseException as exc:  # forwarded: the parent raises it
                try:
                    record = pickle.dumps((False, exc))
                    pickle.loads(record)
                except Exception:  # an exception that does not survive pickling
                    record = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
                out.write(record)
                out.flush()
    finally:
        os._exit(0)


def _pin(cpu: int) -> None:
    """Run the calling process on ``cpu`` only, where the system allows."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass
