"""Command-line front end.

Data goes to stdout, diagnostics to stderr; every subcommand is
deterministic given its flags.  Exit codes: 0 success / all asserted
bounds hold, 1 an asserted bound failed, 2 usage error, 3 I/O or parse
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import chain
from math import comb
from typing import TYPE_CHECKING

from .canon import canonical_form
from .counting import BipartitePattern, check_pattern_size, count_cliques, count_cycles
from .counting import count_embeddings, count_k4_minus, count_kab, count_stars
from .errors import EmptyDomainError, Graph6ParseError, InputError, SatlabError
from .graph6 import _graph6_lines, from_graph6, to_graph6
from .graphs import Graph
from .patterns import parse_pattern, pattern_graph
from .process import TrialStats, run_ffree_process
from .saturation import _check_saturation_pattern, is_h_saturated, is_ks_saturated
from .search import DEFAULT_EXTREMAL_CAP, count_pattern, min_count_over_saturated
from .search import _check_n, _forbidden, saturated_classes

# bounds, families and csv serve construct and verify only; they are
# imported inside those commands so the others do not load them
if TYPE_CHECKING:
    from .bounds import BoundReport

_NON_ASSERTED_ROWS = {"kr_min_small_n"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, EmptyDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Graph6ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satlab",
        description="Exact desk-scale tools for K_s-saturated graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="emit a named family graph as graph6")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count", help="count pattern copies in graph6 input")
    p.add_argument(
        "--pattern",
        required=True,
        choices=["star", "kab", "clique", "cycle", "k4minus", "embed"],
    )
    p.add_argument("--t", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--g6", help="explicit pattern graph for --pattern embed")
    p.add_argument("-i", "--input")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("check", help="saturation report for graph6 input")
    p.add_argument("--sat", required=True, choices=["ks", "pattern"])
    p.add_argument("--s", type=int)
    p.add_argument("--pattern", help="pattern token for --sat pattern")
    p.add_argument("-i", "--input")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="exact sat(n, H, F) by exhaustive search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", required=True, help="counted pattern (mini-language)")
    p.add_argument("--f", required=True, help="forbidden pattern: 'ks' (with --s) or a token")
    p.add_argument("--s", type=int)
    p.add_argument("--shard", help="i/k: keep canonical forms with hash %% k == i")
    p.add_argument("-i", "--input", help="graph6 file as the enumeration source")
    p.add_argument("--max-extremal", type=int, default=DEFAULT_EXTREMAL_CAP)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("process", help="random maximal-K_s-free process statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--count", default="k_2", help="counted pattern (default k_2: edges)")
    p.add_argument("--dump-traces", help="write one JSON trace per line to this file")
    p.set_defaults(func=_cmd_process)

    p = sub.add_parser("verify", help="per-instance bound sweep over saturated graphs")
    p.add_argument(
        "--suite",
        required=True,
        choices=["kkko", "k4minus", "prop21", "formulas", "all"],
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def _read_graphs(path: str | None) -> list[tuple[str, Graph]]:
    """(text to print, graph) per input line; all are decoded before any
    prints.  A file and stdin are read alike, as bytes: a byte past ASCII
    decodes to one lone surrogate, which ``from_graph6`` rejects at its
    offset."""
    with nullcontext(sys.stdin.buffer) if path is None else open(path, "rb") as f:
        lines = f.read().decode("ascii", "surrogateescape").splitlines()
    graphs = [(text, from_graph6(line)) for line, text in _graph6_lines(lines)]
    if not graphs:
        raise InputError("no graphs in input")
    return graphs


def _print_per_graph(path: str | None, label: str, fields) -> int:
    for text, g in _read_graphs(path):
        print(json.dumps({"graph": text, "pattern": label, **fields(g)}, sort_keys=True))
    return 0


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="ascii") as f:
            f.write(text + "\n")


def _reject_unread(args, flags: tuple[str, ...], reads, what: str) -> None:
    """A usage error naming each of ``flags`` given but not in ``reads``."""
    unread = [f"--{k}" for k in flags if getattr(args, k) is not None and k not in reads]
    if unread:
        raise InputError(f"{what} does not take {', '.join(unread)}")


def _cmd_construct(args) -> int:
    from .families import _FAMILY_TABLE, FamilySpec, make

    flags = ("n", "s", "a", "b")
    if args.family in _FAMILY_TABLE:
        _reject_unread(args, flags, _FAMILY_TABLE[args.family][1], f"--family {args.family}")
    params = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    g = make(FamilySpec(args.family, params))
    _emit(to_graph6(g), args.output)
    return 0


def _cmd_count(args) -> int:
    read = {"g6"} if args.pattern == "embed" else set()

    def need(name: str) -> int:
        read.add(name)
        value = getattr(args, name)
        if value is None:
            raise InputError(f"--pattern {args.pattern} requires --{name}")
        return value

    if args.pattern == "star":
        t = need("t")
        label, counter = f"k_1_{t}", lambda g: count_stars(g, t)
    elif args.pattern == "kab":
        a, b = need("a"), need("b")
        pat = BipartitePattern(a, b)
        label, counter = f"k_{pat.a}_{pat.b}", lambda g: count_kab(g, pat)
    elif args.pattern == "clique":
        r = need("r")
        label, counter = f"k_{r}", lambda g: count_cliques(g, r)
    elif args.pattern == "cycle":
        r = need("r")
        label, counter = f"c_{r}", lambda g: count_cycles(g, r)
    elif args.pattern == "k4minus":
        label, counter = "k4minus", count_k4_minus
    else:
        if not args.g6:
            raise InputError("--pattern embed requires --g6 <graph6>")
        try:
            pat = from_graph6(args.g6)
        except ValueError as exc:
            raise InputError(f"bad --g6 {args.g6!r}: {exc}") from exc
        check_pattern_size(pat)
        label, counter = f"g6:{args.g6}", lambda g: count_embeddings(g, pat)
    _reject_unread(args, ("t", "a", "b", "r", "g6"), read, f"--pattern {args.pattern}")
    if args.pattern in ("star", "clique", "cycle"):
        name = "t" if args.pattern == "star" else "r"
        _check_range(name, getattr(args, name), label)
    return _print_per_graph(args.input, label, lambda g: {"count": counter(g)})


def _check_range(name: str, value: int, label: str) -> None:
    """The range rule of ``--<name> <value>`` (its pattern ``label``'s),
    before any input is read, naming the flag the user typed."""
    try:
        parse_pattern(label)
    except InputError as exc:
        raise InputError(f"--{name} {value}: {exc}") from exc


def _report_json(report) -> dict:
    return {
        "is_free": report.is_free,
        "is_saturated": report.is_saturated,
        "free_violation": sorted(report.free_violation) if report.free_violation else None,
        "saturation_violation": list(report.saturation_violation)
        if report.saturation_violation
        else None,
    }


def _cmd_check(args) -> int:
    if args.sat == "ks":
        if args.pattern is not None:
            raise InputError("--pattern applies only to --sat pattern")
        if args.s is None:
            raise InputError("--sat ks requires --s")
        label, verdict = f"k_{args.s}", lambda g: is_ks_saturated(g, args.s)
        _check_range("s", args.s, label)
    else:
        if args.s is not None:
            raise InputError("--s applies only to --sat ks")
        if not args.pattern:
            raise InputError("--sat pattern requires --pattern")
        h = pattern_graph(parse_pattern(args.pattern))
        _check_saturation_pattern(h)
        label, verdict = args.pattern, lambda g: is_h_saturated(g, h)
    return _print_per_graph(args.input, label, lambda g: _report_json(verdict(g)))


def _cmd_search(args) -> int:
    f = args.f
    if f == "ks":
        if args.s is None:
            raise InputError("--f ks requires --s")
        f = f"k_{args.s}"
    elif args.s is not None:
        raise InputError("--s applies only to --f ks")
    shard = None
    if args.shard:
        try:
            idx, total = args.shard.split("/")
            shard = (int(idx), int(total))
        except ValueError as exc:
            raise InputError(f"bad --shard {args.shard!r}; expected i/k") from exc
    # read on first use, after the search has checked every argument
    source = (g for path in [args.input] for _, g in _read_graphs(path)) if args.input else None
    record = min_count_over_saturated(
        args.n, args.h, f, shard=shard, source=source, max_extremal=args.max_extremal
    )
    print(record.to_json())
    return 0


def _cmd_process(args) -> int:
    # one run per trial: each trace is counted, and written with
    # --dump-traces, as it is produced
    if args.trials < 1:
        raise InputError(f"need trials >= 1, got {args.trials}")
    h = parse_pattern(args.count)
    f = f"k_{args.s}"
    runs = (run_ffree_process(args.n, f, args.seed + i) for i in range(args.trials))
    runs = chain((next(runs),), runs)  # a bad --n or --s raises before the file is created
    dump = open(args.dump_traces, "w", encoding="ascii") if args.dump_traces else nullcontext()
    counts = []
    with dump as fh:
        for trace in runs:
            if fh is not None:
                fh.write(trace.to_json() + "\n")
            counts.append(count_pattern(trace.result, h))
            # no trace outlives its trial: one held through the next run
            # slowed that run by a few percent at n = 120
            del trace
    print(TrialStats.from_counts(counts).to_json())
    return 0


def _verify_rows(suite: str, n_max: int, s: int) -> list[BoundReport]:
    from . import bounds as bnd

    rows: list[BoundReport] = []
    do_kkko = suite in ("kkko", "all")
    do_k4 = suite in ("k4minus", "all")
    do_p21 = suite in ("prop21", "all")
    do_forms = suite in ("formulas", "all")
    if n_max >= s:
        # a too-large --n-max fails before the first search, not after the last
        cap, label, *_ = _forbidden(("clique", s))
        _check_n(n_max, cap, "search", f" for {label}")
    for n in range(s, n_max + 1):
        pairs = saturated_classes(n, ("clique", s))
        for g, _form in pairs:
            if do_kkko:
                rows.extend(bnd.check_kkko(g, s))
            if do_k4:
                rows.extend(bnd.check_k4minus_chain(g, s))
            if do_p21:
                for t in (3, 4):
                    rows.append(bnd.check_star_bound(g, s, t))
        if do_forms:
            rows.extend(_formula_rows(n, s, pairs))
    return rows


def _formula_rows(n: int, s: int, pairs) -> list[BoundReport]:
    from . import bounds as bnd
    from .families import ehm_graph

    ehm_form = canonical_form(ehm_graph(n, s))

    def minimum_row(name: str, counts: dict, closed: int) -> BoundReport:
        # {canonical form: count}: holds iff the minimum is the closed
        # form and EHM is its only minimizer
        low = min(counts.values())
        minimizers = [form for form, c in counts.items() if c == low]
        return bnd._row(name, low, closed, {"n": n, "s": s},
                        holds=low == closed and minimizers == [ehm_form])

    rows = [minimum_row("ehm_edges", {form: g.edge_count() for g, form in pairs},
                        bnd.ehm_edges(n, s))]
    if s == 3:
        # C(n,2) - n^{3/2}/2 <= low <= C(n-1,2) in integers: below the
        # upper end d = C(n,2) - low is positive, so 2d <= n^{3/2} iff
        # 4 d^2 <= n^3
        low = min(count_stars(g, 2) for g, _ in pairs)
        d = comb(n, 2) - low
        rows.append(bnd._row("k12_k3_window", low, bnd.k12_k3_lower(n), {"n": n, "s": s},
                             holds=low <= comb(n - 1, 2) and 4 * d * d <= n ** 3,
                             equality=False))
    elif s >= 4:
        rows.append(minimum_row("k12_min", {form: count_stars(g, 2) for g, form in pairs},
                                bnd.k12_min(n, s)))
        for r in range(3, s):
            low = min(count_cliques(g, r) for g, _ in pairs)
            closed = bnd.kr_min(n, r, s)
            rows.append(bnd._row("kr_min_small_n", low, closed, {"n": n, "s": s, "t": r},
                                 holds=low == closed))
    return rows


def _cmd_verify(args) -> int:
    import csv

    from . import bounds as bnd

    rows = _verify_rows(args.suite, args.n_max, args.s)
    writer = csv.writer(sys.stdout)
    print(bnd.CSV_SCHEMA_COMMENT)
    writer.writerow(bnd.CSV_HEADER)
    violations = 0
    for row in rows:
        writer.writerow(row.csv_row())
        if not row.holds and row.name not in _NON_ASSERTED_ROWS:
            violations += 1
    if violations:
        print(f"{violations} asserted bound(s) violated", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
