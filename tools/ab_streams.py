"""In-process A/B timing of ``saturated_stream``, of a CLI command, or
of ``estimate_expected_count``, on two satlab trees.

Usage:
    python tools/ab_streams.py PARENT/src/satlab CHANGE/src/satlab \
        [N:F:ROUNDS | cli:ROUNDS:ARGV | expected:ROUNDS:N:F:H:TRIALS:SEED ...]

Both package directories are imported into one interpreter, as
``satlab_parent`` and ``satlab_change``.  Each round of a case runs
both trees, alternating which tree goes first.  A stream case
``N:F:ROUNDS`` times the full stream (``list(saturated_stream(n, F))``),
and both trees must give the same (rows, form) list.  A CLI case
``cli:ROUNDS:ARGV`` times ``satlab.cli.main(ARGV)`` with stdout
captured, ARGV split on spaces (give the input with ``-i FILE``), and
both trees must give the same stdout and exit code.  An expected case
``expected:ROUNDS:N:F:H:TRIALS:SEED`` times
``process.estimate_expected_count(N, F, H, TRIALS, SEED)``, the process
path of every F that no CLI command reaches, and both trees must give
the same ``TrialStats``.  A round that differs stops the run.

Every round is printed, then per case: its outputs (the stream's
classes, the CLI's stdout lines, or the trials), each side's median,
the parent's interquartile range, and the number of rounds the change
was faster.
A case is "ok" when the change's median is lower than the parent's or
above it by no more than the parent's IQR.  F is a pattern token
(``k_4``, ``c_5``, a ``g6:`` line, ...).  The default cases are the
search's K_s range: n = 9 K_3/K_4/K_5 for 16 rounds, n = 11 K_3 and
n = 10 K_4/K_5 for 8, n = 12 K_3 for 4; then pattern searches at the
n = 9 cap, which prune by subgraph containment: C_4 for 8 rounds, C_5
for 6 and K_{2,3} for 4.  Standard library only.
"""

from __future__ import annotations

import gc
import importlib.util
import io
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

DEFAULT_CASES = ["9:k_3:16", "9:k_4:16", "9:k_5:16", "11:k_3:8", "10:k_4:8",
                 "10:k_5:8", "12:k_3:4", "9:c_4:8", "9:c_5:6", "9:k_2_3:4"]
SIDES = ("parent", "change")


def load(package_dir: str, name: str):
    """Import the satlab package at ``package_dir`` as ``name``, with its
    ``search``, ``patterns``, ``cli`` and ``process`` modules, and return
    it."""
    init = Path(package_dir) / "__init__.py"
    if not init.is_file():
        sys.exit(f"{package_dir}: not a package directory (no __init__.py)")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("search", "patterns", "cli", "process"):
        importlib.import_module(f"{name}.{sub}")
    return module


def timed(pkg, case: tuple) -> tuple[float, object, int]:
    """One run of ``case`` on package ``pkg``: its time, what the two
    trees must agree on, and its number of outputs."""
    gc.collect()
    n, arg, _ = case
    if n == "cli":
        out = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out):
            code = pkg.cli.main(list(arg))
        elapsed = time.perf_counter() - t0
        return elapsed, (code, out.getvalue()), out.getvalue().count("\n")
    if n == "expected":
        t0 = time.perf_counter()
        stats = pkg.process.estimate_expected_count(*arg)
        elapsed = time.perf_counter() - t0
        return elapsed, tuple(stats), stats.trials
    f = pkg.patterns.parse_pattern(arg)
    t0 = time.perf_counter()
    pairs = list(pkg.search.saturated_stream(n, f))
    elapsed = time.perf_counter() - t0
    return elapsed, [(g.rows, form) for g, form in pairs], len(pairs)


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def parse_case(text: str) -> tuple:
    """``N:F:ROUNDS`` as (n, F, rounds), ``cli:ROUNDS:ARGV`` as
    ("cli", argv tuple, rounds), and ``expected:ROUNDS:N:F:H:TRIALS:SEED``
    as ("expected", (n, F, H, trials, seed), rounds).  A ``g6:`` token
    holds a colon itself, so n ends at the first colon and the rounds
    start after the last one, and F ends at its first colon after any
    ``g6:`` (graph6 data has no colon)."""
    if text.startswith("cli:"):
        rounds, argv = text[len("cli:"):].split(":", 1)
        return "cli", tuple(argv.split()), int(rounds)
    if text.startswith("expected:"):
        rounds, n, tokens = text[len("expected:"):].split(":", 2)
        tokens, trials, seed = tokens.rsplit(":", 2)
        cut = tokens.index(":", 3 if tokens.startswith("g6:") else 0)
        spec = int(n), tokens[:cut], tokens[cut + 1:], int(trials), int(seed)
        return "expected", spec, int(rounds)
    n, rest = text.split(":", 1)
    token, rounds = rest.rsplit(":", 1)
    return int(n), token, int(rounds)


def case_label(case: tuple) -> str:
    n, arg, _ = case
    if n == "expected":
        return "expected:" + ":".join(map(str, arg))
    return "cli:" + " ".join(arg) if n == "cli" else f"n={n}:{arg}"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {side: load(path, f"satlab_{side}") for side, path in zip(SIDES, argv[:2])}
    cases = [parse_case(text) for text in argv[2:] or DEFAULT_CASES]
    times = {case: {side: [] for side in SIDES} for case in cases}
    outputs = {}
    print("case round first parent_s change_s")
    for case in cases:
        label = case_label(case)
        for r in range(case[2]):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side] = timed(trees[side], case)
            if results["parent"][1] != results["change"][1]:
                what = {"cli": "stdout or exit code", "expected": "TrialStats"}.get(
                    case[0], "streams")
                print(f"{label}: the two trees' {what} differ", file=sys.stderr)
                return 1
            outputs[case] = results["parent"][2]
            for side in SIDES:
                times[case][side].append(results[side][0])
            print(f"{label} {r + 1} {order[0]} "
                  f"{results['parent'][0]:.4f} {results['change'][0]:.4f}", flush=True)
    print()
    print("case rounds outputs parent_med parent_iqr change_med change_wins verdict")
    for case in cases:
        rounds = case[2]
        pt, ct = times[case]["parent"], times[case]["change"]
        q1, q3 = quartiles(pt)
        pmed, cmed = statistics.median(pt), statistics.median(ct)
        wins = sum(c < p for p, c in zip(pt, ct))
        verdict = "ok" if cmed <= pmed + (q3 - q1) else "slower"
        print(f"{case_label(case)} {rounds} {outputs[case]} {pmed:.4f} {q3 - q1:.4f} {cmed:.4f} "
              f"{wins}/{rounds} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
