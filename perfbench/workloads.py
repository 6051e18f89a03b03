"""The three workloads, their seeded inputs and their output checks.

Every operation is one ``satlab`` CLI call (or one library call) in a
fresh interpreter; ``child.py`` takes the argument lists below.

Outputs are checked two ways, neither of which runs satlab code:

* stored references (``refs/``): stdout and exit code of every search
  and verify operation, which do not depend on the seed, and of every
  sampling operation, plus the ``--dump-traces`` file, for DEFAULT_SEED;
* for any seed, the sampling outputs are recomputed from the seeded
  inputs with an independent splitmix64 replay of the process and with
  networkx (clique search, common neighbourhoods, graph6 encoding).

A run checks each operation's first output in full; later rounds of the
same run must repeat it byte for byte.
"""

from __future__ import annotations

import gzip
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

import networkx as nx

REFS = Path(__file__).resolve().parent / "refs"
DEFAULT_SEED = 0
GRAPHS_FILE = "graphs.g6"
TRACES_FILE = "traces.jsonl"
INPUT_GRAPHS = 300


@dataclass(frozen=True)
class Op:
    """One operation: ``child.py`` arguments and what it reports."""

    id: str
    role: str  # search | verify | process | check
    argv: tuple[str, ...]
    trials: int = 0  # process trials, for process_trials_per_s
    graphs: int = 0  # input graphs, for check_graphs_per_s
    files: tuple[str, ...] = ()  # extra outputs in the cwd


def _cli(*args: str) -> tuple[str, ...]:
    return ("cli",) + args


KS_SEARCH = (
    Op("search_n8_k12_k3", "search", _cli("search", "--n", "8", "--h", "k_1_2", "--f", "k_3")),
    Op("search_n7_k12_k4", "search", _cli("search", "--n", "7", "--h", "k_1_2", "--f", "k_4")),
    Op("verify_all_n7_s4", "verify", _cli("verify", "--suite", "all", "--n-max", "7", "--s", "4")),
)

PATTERN_SEARCH = (
    Op("search_n8_k2_c4", "search", _cli("search", "--n", "8", "--h", "k_2", "--f", "c_4")),
    Op("search_n7_k2_c5", "search", _cli("search", "--n", "7", "--h", "k_2", "--f", "c_5")),
    Op("search_n7_k2_k23", "search", _cli("search", "--n", "7", "--h", "k_2", "--f", "k_2_3")),
)


def process_seeds(seed: int) -> list[int]:
    """The three process seeds a workload seed picks."""
    rng = random.Random(f"process-{seed}")
    return [rng.randrange(1 << 32) for _ in range(3)]


#: The C_5-free process at n = 20 has a heavy-tailed cost per trial
#: (median 38 ms, worst 0.5 s over 200 seeds), so 20 trials from another
#: seed cost up to twice as much (IQR/median 0.40).  It keeps one seed,
#: so that the workload's time follows the code, not the seed.
C5_SEED = 4248111943


def sampling_ops(seed: int, inputs: Path) -> tuple[Op, ...]:
    p = [str(x) for x in process_seeds(seed)] + [str(C5_SEED)]
    g6 = str(inputs / GRAPHS_FILE)
    return (
        Op("process_n120_k3", "process",
           _cli("process", "--n", "120", "--s", "4", "--seed", p[0], "--trials", "50",
                "--count", "k_3"), trials=50),
        Op("process_n60_dump", "process",
           _cli("process", "--n", "60", "--s", "4", "--seed", p[1], "--trials", "50",
                "--dump-traces", TRACES_FILE), trials=50, files=(TRACES_FILE,)),
        Op("expected_n30_c4", "process", ("expected_count", "30", "c_4", "k_2", "20", p[2]),
           trials=20),
        Op("expected_n20_c5", "process", ("expected_count", "20", "c_5", "k_2", "20", p[3]),
           trials=20),
        Op("check_ks4", "check", _cli("check", "--sat", "ks", "--s", "4", "-i", g6),
           graphs=INPUT_GRAPHS),
        Op("count_k22", "check", _cli("count", "--pattern", "kab", "--a", "2", "--b", "2",
                                      "-i", g6), graphs=INPUT_GRAPHS),
    )


WORKLOADS = {
    "ks_search": lambda seed, inputs: KS_SEARCH,
    "pattern_search": lambda seed, inputs: PATTERN_SEARCH,
    "sampling": sampling_ops,
}


# -- seeded input -------------------------------------------------------------


def _g6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def input_graphs(seed: int) -> list[str]:
    """INPUT_GRAPHS graph6 lines on 30-60 vertices, encoded by networkx.

    Three in five are seeded relabelings of complete 3-partite graphs,
    which are K_4-saturated, so ``check`` runs its whole per-non-edge
    loop on them.  The rest are G(n, p) graphs that fail early: dense
    ones (p = 0.35) hold a K_4, sparse ones (p = 0.08) miss a witness.
    """
    rng = random.Random(f"graphs-{seed}")
    lines = []
    for i in range(INPUT_GRAPHS):
        n = rng.randint(30, 60)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        if i % 5 < 3:
            perm = list(range(n))
            rng.shuffle(perm)
            a, b = sorted(rng.sample(range(1, n), 2))
            part = [0] * n
            for pos, v in enumerate(perm):
                part[v] = (pos >= a) + (pos >= b)
            g.add_edges_from((u, v) for u, v in combinations(range(n), 2) if part[u] != part[v])
        else:
            p = 0.35 if i % 5 == 3 else 0.08
            g.add_edges_from((u, v) for u, v in combinations(range(n), 2) if rng.random() < p)
        lines.append(_g6(g))
    return lines


def prepare(workload: str, seed: int, inputs: Path) -> None:
    """Write the workload's input files into ``inputs``."""
    if workload == "sampling":
        text = "\n".join(input_graphs(seed)) + "\n"
        (inputs / GRAPHS_FILE).write_text(text, encoding="ascii")


# -- independent oracles -------------------------------------------------------

_MASK64 = (1 << 64) - 1


def splitmix_order(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of the C(n,2) pair indices driven by
    splitmix64 (Steele, Lea and Flood 2014), high index downward."""
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


def _has_path(adj: list[set], u: int, v: int, length: int) -> bool:
    """A simple u-v path with exactly ``length`` edges."""

    def walk(x: int, seen: set, left: int) -> bool:
        if left == 1:
            return v in adj[x]
        return any(walk(y, seen | {y}, left - 1) for y in adj[x] - seen if y != v)

    return walk(u, {u}, length)


def replay_process(n: int, f: str, seed: int) -> tuple[list[int], list[tuple[int, int]], nx.Graph]:
    """Greedy maximal F-free process for F = k_4 or c_r, from scratch."""
    pairs = list(combinations(range(n), 2))
    order = splitmix_order(n, seed)
    adj: list[set] = [set() for _ in range(n)]
    accepted = []
    for pi in order:
        u, v = pairs[pi]
        common = adj[u] & adj[v]
        if f == "k_4":
            creates = any(adj[x] & common for x in common)
        else:
            creates = _has_path(adj, u, v, int(f[2:]) - 1)
        if not creates:
            adj[u].add(v)
            adj[v].add(u)
            accepted.append((u, v))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(accepted)
    return order, accepted, g


def _stats_ok(text: str, counts: list[int]) -> str | None:
    got = json.loads(text)
    t = len(counts)
    mean = sum(counts) / t
    sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (t - 1))
    want = {"trials": t, "min": min(counts), "max": max(counts)}
    if any(got.get(k) != v for k, v in want.items()):
        return f"stats {got} != {want}"
    if not (math.isclose(got["mean"], mean, rel_tol=1e-12)
            and math.isclose(got["stddev"], sd, rel_tol=1e-9, abs_tol=1e-12)):
        return f"mean/stddev {got['mean']}/{got['stddev']} != {mean}/{sd}"
    return None


def _k4_violation(g: nx.Graph) -> list[int] | None:
    for c in nx.find_cliques(g):
        if len(c) >= 4:
            return sorted(c)
    return None


def _first_unwitnessed(g: nx.Graph) -> tuple[int, int] | None:
    """Lowest non-edge uv whose common neighbourhood holds no edge."""
    for u, v in combinations(sorted(g), 2):
        if g.has_edge(u, v):
            continue
        common = set(g[u]) & set(g[v])
        if not any(set(g[x]) & common for x in common):
            return (u, v)
    return None


def _check_lines(stdout: str, graphs: list[str], expect) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != len(graphs):
        return f"{len(lines)} output lines for {len(graphs)} graphs"
    for k, (line, text) in enumerate(zip(lines, graphs)):
        rec = json.loads(line)
        g = nx.from_graph6_bytes(text.encode("ascii"))
        if rec.get("graph") != text:
            return f"line {k}: graph {rec.get('graph')!r} != input {text!r}"
        err = expect(rec, g)
        if err:
            return f"line {k}: {err}"
    return None


def _check_verdict(rec: dict, g: nx.Graph) -> str | None:
    clique = _k4_violation(g)
    if rec["pattern"] != "k_4" or rec["is_free"] != (clique is None):
        return f"is_free={rec['is_free']} but networkx finds K_4 {clique}"
    if clique is not None:
        bad = rec["free_violation"]
        if rec["is_saturated"] or rec["saturation_violation"] is not None or len(bad) != 4 \
                or any(not g.has_edge(a, b) for a, b in combinations(bad, 2)):
            return f"free_violation {bad} is not a K_4 verdict"
        return None
    gap = _first_unwitnessed(g)
    got = rec["saturation_violation"]
    if rec["free_violation"] is not None or rec["is_saturated"] != (gap is None) \
            or (tuple(got) if got else None) != gap:
        return f"saturation {rec['is_saturated']}/{got}, networkx says {gap}"
    return None


def _check_c4_count(rec: dict, g: nx.Graph) -> str | None:
    # each K_{2,2} is counted once per diagonal pair, so twice in all
    want = sum(comb(len(set(g[x]) & set(g[y])), 2) for x, y in combinations(g, 2)) // 2
    if rec["pattern"] != "k_2_2" or rec["count"] != want:
        return f"count {rec['count']} != {want}"
    return None


def _check_process(op: Op, stdout: str, files: dict[str, bytes]) -> str | None:
    if op.argv[0] == "expected_count":
        _, n, f, _h, trials, seed = op.argv
        counts = [replay_process(int(n), f, int(seed) + i)[2].number_of_edges()
                  for i in range(int(trials))]
        return _stats_ok(stdout, counts)
    args = dict(zip(op.argv[2::2], op.argv[3::2]))
    n, seed, trials = int(args["--n"]), int(args["--seed"]), int(args["--trials"])
    runs = [replay_process(n, "k_4", seed + i) for i in range(trials)]
    if args.get("--count", "k_2") == "k_3":
        counts = [sum(nx.triangles(g).values()) // 3 for _, _, g in runs]
    else:
        counts = [g.number_of_edges() for _, _, g in runs]
    err = _stats_ok(stdout, counts)
    if err or TRACES_FILE not in op.files:
        return err
    lines = files[TRACES_FILE].decode("ascii").splitlines()
    if len(lines) != trials:
        return f"{len(lines)} traces for {trials} trials"
    for i, (line, (order, accepted, g)) in enumerate(zip(lines, runs)):
        tr = json.loads(line)
        want = {"seed": seed + i, "n": n, "f": "k_4", "order": order,
                "accepted": [list(e) for e in accepted], "result": _g6(g)}
        if tr != want:
            return f"trace {i} differs from the independent replay"
        if _k4_violation(g) is not None or _first_unwitnessed(g) is not None:
            return f"trace {i}: result is not K_4-saturated"
    return None


class Checker:
    """Decides whether one operation's exit code and outputs are right."""

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.inputs = inputs
        self.codes = json.loads((REFS / "exit_codes.json").read_text())
        self._seen: dict[str, tuple] = {}

    def reference(self, op: Op) -> tuple[bytes, dict[str, bytes]] | None:
        """Stored stdout and extra files for ``op``, if this seed has them."""
        base = REFS if op.role in ("search", "verify") else REFS / f"seed{self.seed}"
        path = base / f"{op.id}.stdout"
        if not path.exists():
            return None
        files = {name: gzip.decompress((base / f"{op.id}.{name}.gz").read_bytes())
                 for name in op.files}
        return path.read_bytes(), files

    def check(self, op: Op, code: int, stdout: bytes, files: dict[str, bytes]) -> str | None:
        """None when the output is right, else the reason it is not."""
        if code != self.codes[op.id]:
            return f"exit code {code}, expected {self.codes[op.id]}"
        got = (stdout, files)
        if op.id in self._seen:
            return None if got == self._seen[op.id] else "output changed between rounds"
        ref = self.reference(op)
        if ref is not None and got != ref:
            return "output differs from the stored reference"
        if ref is None and op.role in ("search", "verify"):
            return "no stored reference"
        if op.role in ("process", "check"):
            try:
                err = properties(op, stdout.decode("ascii"), files, self.inputs)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                err = f"unreadable output: {exc!r}"
            if err:
                return err
        self._seen[op.id] = got
        return None


def properties(op: Op, stdout: str, files: dict[str, bytes], inputs: Path) -> str | None:
    """Check a sampling operation's output against the independent oracles."""
    if op.role == "process":
        return _check_process(op, stdout, files)
    graphs = (inputs / GRAPHS_FILE).read_text(encoding="ascii").split()
    expect = _check_verdict if op.id == "check_ks4" else _check_c4_count
    return _check_lines(stdout, graphs, expect)
