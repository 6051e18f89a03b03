"""Layer tracing from outside the program.

Each traced boundary is a name that one satlab module imported from
another (``satlab.search.canonical_rows`` is the search layer's binding of
the canon layer's function).  Replacing that binding times every call the
caller makes without touching the library.  The defining module's own
name is never replaced where the function recurses through its module
globals (``_find_clique``, the canon search), so one call is timed once,
not once per recursion level.

Coarse boundaries keep one span per call: (name, start, end, parent,
self seconds).  Hot boundaries, which run up to ~10^5-10^6 times per
operation, keep only calls, total seconds and a hit count (a boolean
outcome such as "clique found").  Both kinds push a frame on one stack,
so a span's self time is its duration minus all nested traced calls.
"""

from __future__ import annotations

import importlib
import json
import time

_SPAN, _AGG = "span", "agg"


def _found(r) -> bool:
    return r >= 0


def _saturated(r) -> bool:
    return r.is_saturated


#: (module, name, mode, hit, key) per traced binding.  ``hit`` maps the
#: result to the counted outcome; ``key`` splits the counters by graph
#: order (canonical labeling cost grows steeply with n).
BINDINGS = (
    # cli -> search entry points
    ("satlab.cli", "min_count_over_saturated", _SPAN, None, None),
    ("satlab.cli", "saturated_classes", _SPAN, None, None),
    # canon, as called by search and cli
    ("satlab.search", "canonical_rows", _AGG, None, lambda a: a[1]),
    ("satlab.search", "canonical_form", _AGG, None, lambda a: a[0].n),
    ("satlab.cli", "canonical_form", _AGG, None, lambda a: a[0].n),
    # search child filters (K_s-free and pattern-free), also layer calls
    ("satlab.search", "_find_clique", _AGG, _found, None),
    ("satlab.search", "contains_subgraph", _AGG, bool, None),
    # saturation verdicts
    ("satlab.search", "is_ks_saturated", _AGG, _saturated, None),
    ("satlab.cli", "is_ks_saturated", _SPAN, _saturated, None),
    ("satlab.search", "is_h_saturated", _AGG, _saturated, None),
    ("satlab.cli", "is_h_saturated", _SPAN, _saturated, None),
    # containment inside saturation and the process
    ("satlab.saturation", "contains_subgraph", _AGG, bool, None),
    ("satlab.process", "contains_subgraph", _AGG, bool, None),
    ("satlab.process", "_find_clique", _AGG, _found, None),
    # graph6
    ("satlab.search", "to_graph6", _AGG, None, None),
    ("satlab.process", "to_graph6", _AGG, None, None),
    ("satlab.cli", "to_graph6", _AGG, None, None),
    ("satlab.cli", "from_graph6", _AGG, None, None),
    ("satlab.search", "from_graph6", _AGG, None, None),
    ("satlab.patterns", "from_graph6", _AGG, None, None),
    # counting, as called by cli, search (count_pattern) and bounds
    ("satlab.cli", "count_stars", _AGG, None, None),
    ("satlab.cli", "count_kab", _AGG, None, None),
    ("satlab.cli", "count_cliques", _AGG, None, None),
    ("satlab.cli", "count_cycles", _AGG, None, None),
    ("satlab.cli", "count_k4_minus", _AGG, None, None),
    ("satlab.cli", "count_embeddings", _AGG, None, None),
    ("satlab.search", "count_cliques", _AGG, None, None),
    ("satlab.search", "count_kab", _AGG, None, None),
    ("satlab.search", "count_cycles", _AGG, None, None),
    ("satlab.search", "count_embeddings", _AGG, None, None),
    ("satlab.bounds", "count_stars", _AGG, None, None),
    ("satlab.bounds", "count_kab", _AGG, None, None),
    ("satlab.bounds", "count_k4_minus", _AGG, None, None),
    ("satlab.bounds", "codegree_sum", _AGG, None, None),
    # process runs (estimate_expected_count and cli --dump-traces) and
    # the shuffle inside each run; none of these recurse
    ("satlab.process", "run_ffree_process", _SPAN, None, None),
    ("satlab.cli", "run_ffree_process", _SPAN, None, None),
    ("satlab.process", "shuffled_pair_indices", _AGG, None, None),
    # per-instance bound checkers; cli reaches them as ``bnd.<name>``
    ("satlab.bounds", "check_kkko", _SPAN, None, None),
    ("satlab.bounds", "check_k4minus_chain", _SPAN, None, None),
    ("satlab.bounds", "check_star_bound", _SPAN, None, None),
)


class Tracer:
    """Install wrappers on the bindings above; restore them on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, self_s]
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s, hits]
        self.accepted = 0  # edges accepted by process runs
        self.pairs = 0  # pairs tried by process runs
        self._stack: list[list] = [[-1, 0.0]]  # [span index, nested seconds]
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for modname, name, mode, hit, key in BINDINGS:
            module = importlib.import_module(modname)
            original = getattr(module, name)
            label = f"{modname.split('.', 1)[1]}.{name}"
            wrap = self._span if mode == _SPAN else self._agg
            setattr(module, name, wrap(label, original, hit, key))
            self._restore.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def root(self, label: str, fn, *args):
        """Run ``fn(*args)`` as the root span of the operation."""
        return self._span(label, fn, None, None)(*args)

    def _counter(self, label: str) -> list:
        return self.agg.setdefault(label, [0, 0.0, 0.0, 0])

    def _agg(self, label, fn, hit, key):
        stack = self._stack
        clock = time.perf_counter
        fixed = None if key is not None else self._counter(label)

        def wrapper(*args, **kwargs):
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                r = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
            c = fixed if fixed is not None else self._counter(f"{label}.n{key(args)}")
            c[0] += 1
            c[1] += dt
            c[2] += dt - frame[1]
            if hit is not None and hit(r):
                c[3] += 1
            return r

        return wrapper

    def _span(self, label, fn, hit, key):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        counter = self._counter(label)
        is_run = label.endswith("run_ffree_process")

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [label, 0.0, 0.0, stack[-1][0], 0.0]
            spans.append(record)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                r = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][1] += t1 - t0
                record[1], record[2], record[4] = t0, t1, t1 - t0 - frame[1]
            counter[0] += 1
            counter[1] += t1 - t0
            counter[2] += record[4]
            if hit is not None and hit(r):
                counter[3] += 1
            if is_run:
                self.accepted += len(r.accepted)
                self.pairs += len(r.order)
            return r

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "agg": self.agg,
                    "accepted": self.accepted,
                    "pairs": self.pairs,
                },
                fh,
            )


# -- layer metrics ----------------------------------------------------------

_CANON = ("search.canonical_rows", "search.canonical_form", "cli.canonical_form")
_FILTER = ("search._find_clique", "search.contains_subgraph")
_CLIQUE = ("search._find_clique", "process._find_clique")
_CONTAINS = ("search.contains_subgraph", "saturation.contains_subgraph",
             "process.contains_subgraph")
_KS = ("search.is_ks_saturated", "cli.is_ks_saturated")
_H = ("search.is_h_saturated", "cli.is_h_saturated")
_ENCODE = ("search.to_graph6", "process.to_graph6", "cli.to_graph6")
_DECODE = ("cli.from_graph6", "search.from_graph6", "patterns.from_graph6")
_SEARCH = ("cli.min_count_over_saturated", "cli.saturated_classes")
_RUNS = ("process.run_ffree_process", "cli.run_ffree_process")
_BOUNDS = ("bounds.check_kkko", "bounds.check_k4minus_chain", "bounds.check_star_bound")


def _is_count(label: str) -> bool:
    name = label.split(".", 1)[1]
    return name.startswith("count_") or name == "codegree_sum"


def merge(traces: list[dict]) -> dict:
    """Sum the counters of several operations' traces."""
    agg: dict[str, list] = {}
    root_self = 0.0
    for t in traces:
        for label, c in t["agg"].items():
            acc = agg.setdefault(label, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += c[i]
        root_self += sum(s[4] for s in t["spans"] if s[0] == "cli.main")
    return {
        "agg": agg,
        "cli_self": root_self,
        "accepted": sum(t["accepted"] for t in traces),
        "pairs": sum(t["pairs"] for t in traces),
    }


def layer_metrics(merged: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round; 0 where a layer is unused."""
    agg = merged["agg"]

    def pick(labels, prefix=False):
        calls = total = self_s = hits = 0
        for label, c in agg.items():
            base = label.rsplit(".n", 1)[0] if prefix else label
            if base in labels:
                calls += c[0]
                total += c[1]
                self_s += c[2]
                hits += c[3]
        return calls, total, self_s, hits

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(n):
        calls, total, _, _ = pick(tuple(f"{label}.n{n}" for label in _CANON))
        return ratio(total, calls) * 1e6

    canon = pick(_CANON, prefix=True)
    search_canon = pick(_CANON[:2], prefix=True)
    filt = pick(_FILTER)
    ks = pick(_KS)
    h = pick(_H)
    # search hands every class it enumerates to one saturation test
    classes = pick(("search.is_ks_saturated", "search.is_h_saturated"))[0]
    contains = pick(_CONTAINS)
    counts = pick(tuple(label for label in agg if _is_count(label)))
    runs = pick(_RUNS)
    return {
        "canon.calls": canon[0],
        "canon.busy_s": canon[1],
        "canon.us_per_call.n7": per_call_us(7),
        "canon.us_per_call.n8": per_call_us(8),
        "search.classes": classes,
        "search.canon_per_class": ratio(search_canon[0], classes),
        "search.filter.calls": filt[0],
        "search.filter.reject_ratio": ratio(filt[3], filt[0]),
        "search.filter.busy_s": filt[1],
        "search.self_s": pick(_SEARCH)[2],
        "graph6.encode.calls": pick(_ENCODE)[0],
        "graph6.encode.busy_s": pick(_ENCODE)[1],
        "graph6.decode.calls": pick(_DECODE)[0],
        "graph6.decode.busy_s": pick(_DECODE)[1],
        "saturation.ks.calls": ks[0],
        "saturation.ks.busy_s": ks[1],
        "saturation.ks.saturated_ratio": ratio(ks[3], ks[0]),
        "saturation.h.calls": h[0],
        "saturation.h.busy_s": h[1],
        "saturation.clique.calls": pick(_CLIQUE)[0],
        "saturation.clique.busy_s": pick(_CLIQUE)[1],
        "counting.contains.calls": contains[0],
        "counting.contains.busy_s": contains[1],
        "counting.contains.hit_ratio": ratio(contains[3], contains[0]),
        "counting.count.calls": counts[0],
        "counting.count.busy_s": counts[1],
        "process.runs": runs[0],
        "process.self_s": runs[2],
        "process.shuffle.busy_s": pick(("process.shuffled_pair_indices",))[1],
        "process.accept_ratio": ratio(merged["accepted"], merged["pairs"]),
        "bounds.checks": pick(_BOUNDS)[0],
        "bounds.busy_s": pick(_BOUNDS)[1],
        "cli.self_s": merged["cli_self"],
    }
