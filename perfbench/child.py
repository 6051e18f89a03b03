"""One benchmark operation in a fresh interpreter.

    python child.py [--trace OUT] cli <satlab arguments...>
    python child.py [--trace OUT] expected_count <n> <f> <h> <trials> <seed>
    python child.py reference

``cli`` calls ``satlab.cli.main`` exactly as the ``satlab`` console
script does and exits with its code.  ``expected_count`` prints the JSON
of ``satlab.estimate_expected_count``.  With ``--trace OUT`` the layer
bindings are wrapped for the call and the trace is written to OUT.
``reference`` prints the seconds of a fixed computation that is not
satlab code (see ``reference_s``).
"""

from __future__ import annotations

import sys
import time


def reference_s() -> float:
    """Seconds one fixed pure-Python computation takes right now.

    Counting the 5-cliques of a fixed 120-vertex graph with bitsets is the
    same kind of interpreter work as satlab's hot loops, but it is not
    satlab code, so no change to the program can move it.  Other tenants
    of a shared machine slow both alike (by 30% and more, for minutes), so
    a time divided by this one varies far less from run to run than the
    time itself.  About 0.1 s on a 2.1 GHz Xeon.
    """
    n, x = 120, 12345
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x >> 16 & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u

    def cliques(cand: int, size: int) -> int:
        if size == 1:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            total += cliques(rows[low.bit_length() - 1] & cand, size - 1)
        return total

    t0 = time.perf_counter()
    for _ in range(2):
        if cliques((1 << n) - 1, 5) != 133338:
            raise RuntimeError("reference computation gave a wrong count")
    return time.perf_counter() - t0


def _run(kind: str, argv: list[str], tracer) -> int:
    if kind == "cli":
        from satlab.cli import main

        return main(argv) if tracer is None else tracer.root("cli.main", main, argv)
    if kind == "expected_count":
        from satlab.process import estimate_expected_count

        n, f, h, trials, seed = argv
        call = (estimate_expected_count, int(n), f, h, int(trials), int(seed))
        stats = call[0](*call[1:]) if tracer is None else tracer.root("lib.expected_count", *call)
        print(stats.to_json())
        return 0
    if kind == "reference":
        print(repr(reference_s()))
        return 0
    print(f"unknown operation kind {kind!r}", file=sys.stderr)
    return 2


def main(args: list[str]) -> int:
    trace_path = None
    if args[:1] == ["--trace"]:
        trace_path, args = args[1], args[2:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    if trace_path is None:
        return _run(args[0], args[1:], None)
    from tracer import Tracer

    with Tracer() as tracer:
        code = _run(args[0], args[1:], tracer)
    sys.stdout.flush()
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
