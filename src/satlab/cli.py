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
from math import comb
from typing import TYPE_CHECKING

from .canon import canonical_form
from .counting import check_pattern_size, count_cliques, count_cycles
from .counting import count_embeddings, count_k4_minus, count_kab, count_stars
from .errors import EmptyDomainError, Graph6ParseError, InputError, SatlabError
from .graph6 import _graph6_lines, from_graph6, to_graph6
from .graphs import Graph
from .patterns import PatternSpec, format_pattern, parse_pattern, pattern_graph
from .process import TrialStats, _check_trials, _trial_results, run_ffree_process
from .saturation import _check_saturation_pattern, is_h_saturated, is_ks_saturated
from .search import DEFAULT_EXTREMAL_CAP, count_pattern, min_count_over_saturated
from .search import _check_n, _forbidden, saturated_classes

# bounds, families and csv serve construct and verify only; they are
# imported inside those commands so the others do not load them
if TYPE_CHECKING:
    from .bounds import BoundReport

_NON_ASSERTED_ROWS = {"kr_min_small_n"}

#: selector value -> (the flags it reads, its pattern label over them or None)
_COUNT_RULES = {
    "star": (("t",), "k_1_{t}"),
    "kab": (("a", "b"), "k_{a}_{b}"),
    "clique": (("r",), "k_{r}"),
    "cycle": (("r",), "c_{r}"),
    "k4minus": ((), None),
    "embed": (("g6",), None),
}
_CHECK_RULES = {"ks": (("s",), "k_{s}"), "pattern": (("pattern",), "{pattern}")}
#: the key None stands for every other value: a pattern token
_SEARCH_RULES = {"ks": (("s",), "k_{s}"), None: ((), "{f}")}


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


def _rule_flags(table: dict) -> list[str]:
    """Every flag that some value of the rule ``table`` reads, in order."""
    return list(dict.fromkeys(k for reads, _ in table.values() for k in reads))


def _flag_rule(args, selector: str, table: dict) -> PatternSpec | None:
    """The one flag rule, applied before any input is read: the value of
    ``--<selector>`` requires each flag its ``table`` entry reads and
    rejects every other flag of the table; its label, formatted from the
    flags, is parsed and returned as a spec.  A range error names the
    flags as typed, except a flag whose value is the label itself,
    which the parser quotes.  A value with no entry is left to its
    command."""
    value = getattr(args, selector)
    rule = table.get(value, table.get(None))
    if rule is None:
        return None
    reads, label = rule
    missing = [f"--{k}" for k in reads if getattr(args, k) is None]
    if missing:
        raise InputError(f"--{selector} {value} requires {', '.join(missing)}")
    unread = [f"--{k}" for k in _rule_flags(table)
              if k not in reads and getattr(args, k) is not None]
    if unread:
        raise InputError(f"--{selector} {value} does not take {', '.join(unread)}")
    if label is None:
        return None
    try:
        return parse_pattern(label.format_map(vars(args)))
    except InputError as exc:
        typed = " ".join(f"--{k} {getattr(args, k)}" for k in reads if label != f"{{{k}}}")
        if not typed:
            raise
        raise InputError(f"{typed}: {exc}") from exc


def _cmd_construct(args) -> int:
    from .families import _FAMILY_TABLE, FamilySpec, make

    table = {family: (names, None) for family, (_, names) in _FAMILY_TABLE.items()}
    _flag_rule(args, "family", table)
    params = {k: getattr(args, k) for k in _rule_flags(table) if getattr(args, k) is not None}
    _emit(to_graph6(make(FamilySpec(args.family, params))), args.output)
    return 0


def _cmd_count(args) -> int:
    spec = _flag_rule(args, "pattern", _COUNT_RULES)
    label = format_pattern(spec) if spec else args.pattern
    if args.pattern == "star":
        counter = lambda g: count_stars(g, args.t)
    elif args.pattern == "kab":
        counter = lambda g: count_kab(g, spec[1])
    elif args.pattern == "clique":
        counter = lambda g: count_cliques(g, args.r)
    elif args.pattern == "cycle":
        counter = lambda g: count_cycles(g, args.r)
    elif args.pattern == "k4minus":
        counter = count_k4_minus
    else:
        try:
            pat = from_graph6(args.g6)
        except ValueError as exc:
            raise InputError(f"bad --g6 {args.g6!r}: {exc}") from exc
        check_pattern_size(pat)
        label, counter = f"g6:{args.g6}", lambda g: count_embeddings(g, pat)
    return _print_per_graph(args.input, label, lambda g: {"count": counter(g)})


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
    spec = _flag_rule(args, "sat", _CHECK_RULES)
    if args.sat == "ks":
        label, verdict = format_pattern(spec), lambda g: is_ks_saturated(g, args.s)
    else:
        h = pattern_graph(spec)
        _check_saturation_pattern(h)
        label, verdict = args.pattern, lambda g: is_h_saturated(g, h)
    return _print_per_graph(args.input, label, lambda g: _report_json(verdict(g)))


def _cmd_search(args) -> int:
    f = _flag_rule(args, "f", _SEARCH_RULES)
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
    # every argument is checked before the first trial and the file; a
    # trial hands back its trace line (with --dump-traces) and its count,
    # so no trace outlives its trial: one held through the next run
    # slowed that run by a few percent at n = 120
    f = f"k_{args.s}"
    h = _check_trials(args.n, f, args.count, args.trials)
    dumping = args.dump_traces is not None

    def trial(i: int) -> tuple[str | None, int]:
        trace = run_ffree_process(args.n, f, args.seed + i)
        return trace.to_json() if dumping else None, count_pattern(trace.result, h)

    counts = []
    with open(args.dump_traces, "w", encoding="ascii") if dumping else nullcontext() as fh:
        for line, count in _trial_results(trial, args.trials):
            if fh is not None:
                fh.write(line + "\n")
            counts.append(count)
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
