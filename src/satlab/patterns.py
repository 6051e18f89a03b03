"""Pattern mini-language shared by the search, process, and CLI layers.

    k_<s>       clique K_s
    k_<a>_<b>   complete bipartite K_{a,b}
    c_<r>       cycle C_r
    g6:<text>   explicit pattern graph in graph6
"""

from __future__ import annotations

from .counting import MAX_PATTERN_VERTICES, BipartitePattern, check_pattern_size
from .errors import Graph6ParseError, InputError
from .graph6 import from_graph6, to_graph6
from .graphs import Graph

#: ("clique", s) | ("kab", BipartitePattern) | ("cycle", r) | ("graph", Graph)
PatternSpec = tuple


def parse_pattern(text: str) -> PatternSpec:
    """Parse a pattern token; a malformed one raises ``InputError``."""
    parts = text.split("_")
    try:
        if text.startswith("g6:"):
            return ("graph", from_graph6(text[3:]))
        if parts[0] == "k" and len(parts) == 2:
            s = int(parts[1])
            if s < 1:
                raise InputError(f"clique order must be >= 1, got {text!r}")
            return ("clique", s)
        if parts[0] == "k" and len(parts) == 3:
            return ("kab", BipartitePattern(int(parts[1]), int(parts[2])))
        if parts[0] == "c" and len(parts) == 2:
            r = int(parts[1])
            if not 3 <= r <= MAX_PATTERN_VERTICES:
                raise InputError(
                    f"cycle length must be in 3..{MAX_PATTERN_VERTICES}, got {text!r}"
                )
            return ("cycle", r)
    except Graph6ParseError as exc:  # its offset counted within the quoted token
        shifted = Graph6ParseError(exc.message, exc.offset + len("g6:"))
        raise InputError(f"bad pattern {text!r}: {shifted}") from exc
    except ValueError as exc:
        raise InputError(f"bad pattern {text!r}: {exc}") from exc
    raise InputError(
        f"bad pattern {text!r}; expected k_<s>, k_<a>_<b>, c_<r>, or g6:<graph6>"
    )


def _as_pattern(p: PatternSpec | str) -> PatternSpec:
    """A pattern given either as a token or as a parsed spec."""
    return parse_pattern(p) if isinstance(p, str) else p


def _as_counted(h: PatternSpec | str) -> PatternSpec:
    """A counted pattern H as a spec, checked before any work: an
    explicit graph is counted by embedding, which has the
    ``MAX_PATTERN_VERTICES`` cap (the other kinds are counted without
    one, or capped by the parser)."""
    h = _as_pattern(h)
    if h[0] == "graph":
        check_pattern_size(h[1])
    return h


def format_pattern(p: PatternSpec) -> str:
    kind, value = p
    if kind == "clique":
        return f"k_{value}"
    if kind == "kab":
        return f"k_{value.a}_{value.b}"
    if kind == "cycle":
        return f"c_{value}"
    if kind == "graph":
        return "g6:" + to_graph6(value)
    raise InputError(f"unknown pattern kind {kind!r}")


def pattern_graph(p: PatternSpec) -> Graph:
    """Materialize a pattern as an explicit graph."""
    from .families import complete_bipartite, complete_graph, cycle

    kind, value = p
    if kind == "clique":
        return complete_graph(value)
    if kind == "kab":
        return complete_bipartite(value.a, value.b)
    if kind == "cycle":
        return cycle(value)
    return value
