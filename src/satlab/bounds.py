"""Closed-form evaluators and per-instance inequality checkers.

Integer formulas are exact; the two real-valued bounds are reported as
floats with 1e-9 relative precision, but every holds/equality verdict is
decided by exact integer arithmetic (denominators cleared, odd powers
squared), so Moore-graph equality cases cannot be misflagged.
"""

from __future__ import annotations

import json
from math import comb
from typing import NamedTuple

from .counting import codegree_sum, count_k4_minus, count_kab, count_stars
from .counting import BipartitePattern
from .errors import InputError
from .graphs import Graph

CSV_SCHEMA_COMMENT = "# satlab bounds csv v1"
CSV_HEADER = ("name", "n", "s", "t", "lhs", "rhs", "holds", "equality")


class _BoundReport(NamedTuple):
    name: str
    lhs: float | int
    rhs: float | int
    holds: bool
    equality: bool
    context: dict


class BoundReport(_BoundReport):
    """One evaluated bound: lhs >= rhs unless stated otherwise.  The
    context defaults to a fresh {}."""

    __slots__ = ()

    def __new__(cls, name: str, lhs: float | int, rhs: float | int, holds: bool,
                equality: bool, context: dict | None = None) -> BoundReport:
        return super().__new__(cls, name, lhs, rhs, holds, equality,
                               {} if context is None else context)

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)

    def csv_row(self) -> list:
        ctx = self.context
        return [
            self.name,
            ctx.get("n", ""),
            ctx.get("s", ""),
            ctx.get("t", ""),
            self.lhs,
            self.rhs,
            self.holds,
            self.equality,
        ]


# -- closed forms ---------------------------------------------------------


def ehm_edges(n: int, s: int) -> int:
    """Minimum edges of a K_s-saturated graph: (s-2)(n-s+2) + C(s-2,2)."""
    _require(n >= s >= 2, f"ehm_edges needs n >= s >= 2, got n={n}, s={s}")
    return (s - 2) * (n - s + 2) + comb(s - 2, 2)


def kr_min(n: int, r: int, s: int) -> int:
    """K_r-count of the minimum family: (n-s+2) C(s-2,r-1) + C(s-2,r).

    Equals the K_s-saturated minimum for all large n; small n can
    disagree, which is data rather than an error.
    """
    _require(2 <= r < s, f"kr_min needs 2 <= r < s, got r={r}, s={s}")
    _require(n >= s, f"kr_min needs n >= s, got n={n}, s={s}")
    return (n - s + 2) * comb(s - 2, r - 1) + comb(s - 2, r)


def k12_min(n: int, s: int) -> int:
    """Exact sat(n, K_{1,2}, K_s) for s >= 4: (s-2) C(n-1,2) + (n-s+2) C(s-2,2)."""
    _require(n >= s >= 4, f"k12_min needs n >= s >= 4, got n={n}, s={s}")
    return (s - 2) * comb(n - 1, 2) + (n - s + 2) * comb(s - 2, 2)


def k12_k3_lower(n: int) -> float:
    """Lower bound for sat(n, K_{1,2}, K_3): C(n,2) - n^{3/2}/2."""
    _require(n >= 3, f"k12_k3_lower needs n >= 3, got n={n}")
    return comb(n, 2) - n ** 1.5 / 2


def ehm_k22(n: int, s: int) -> int:
    """K_{2,2}-count of the minimum family:
    C(s-2,2) C(n-s+2,2) + 3 C(s-2,3)(n-s+2) + 3 C(s-2,4).

    A copy on three clique vertices plus one independent vertex, or on
    four clique vertices, admits three side splits, hence the factors of
    3 on the lower-order terms; validated against subset enumeration.
    """
    _require(n >= s >= 2, f"ehm_k22 needs n >= s >= 2, got n={n}, s={s}")
    m = n - s + 2
    return comb(s - 2, 2) * comb(m, 2) + 3 * comb(s - 2, 3) * m + 3 * comb(s - 2, 4)


def degree_square_rhs(n: int, s: int) -> int:
    """Floor for the degree-square sum: (n-1)^2 (s-2) + (s-2)^2 (n-s+2)."""
    _require(n >= s >= 2, f"degree_square_rhs needs n >= s >= 2, got n={n}, s={s}")
    return _degree_square_floor(n, s)


def star_floor(n: int, s: int, t: int) -> float:
    """Star-count floor: ((n-1)^2 (s-2) + (s-2)^2 (n-s+2))^{t/2} / (t^t n^{t/2-1})."""
    _require(n >= s >= 3, f"star_floor needs n >= s >= 3, got n={n}, s={s}")
    _require(t >= 2, f"star_floor needs t >= 2, got t={t}")
    return _star_floor_of(_degree_square_floor(n, s), n, t)


def _degree_square_floor(n: int, s: int) -> int:
    """``degree_square_rhs`` unchecked: the checkers take any graph."""
    return (n - 1) ** 2 * (s - 2) + (s - 2) ** 2 * (n - s + 2)


def _star_floor_of(base: int, n: int, t: int) -> float:
    """``star_floor`` from its degree-square base, unchecked; n > 0."""
    return base ** (t / 2) / (t ** t * n ** (t / 2 - 1))


#: name -> closed form; the parameter names are its keyword arguments
_FORMULA_TABLE = {
    fn.__name__: fn
    for fn in (ehm_edges, kr_min, k12_min, k12_k3_lower, ehm_k22, star_floor)
}
FORMULAS = tuple(_FORMULA_TABLE)


def formula(name: str, **params) -> float | int:
    """Dispatch over the closed forms by name."""
    if name not in _FORMULA_TABLE:
        raise InputError(f"unknown formula {name!r}; known: {', '.join(FORMULAS)}")
    return _FORMULA_TABLE[name](**params)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


# -- per-instance checkers -------------------------------------------------


def _row(name: str, lhs: float | int, rhs: float | int, context: dict,
         holds: bool | None = None, equality: bool | None = None) -> BoundReport:
    """The one assembly of a bound row: ``holds`` is lhs >= rhs and
    ``equality`` is lhs == rhs unless the row decides them itself."""
    return BoundReport(name, lhs, rhs, lhs >= rhs if holds is None else holds,
                       lhs == rhs if equality is None else equality, context)


def check_kkko(g: Graph, s: int) -> tuple[BoundReport, BoundReport]:
    """Degree inequalities of K_s-saturated graphs.

    Returns two reports: the linear form
    sum (d+1)(d+2-s) >= (s-2) n (n-s+1), and the square form
    sum d^2 >= (n-1)^2 (s-2) + (s-2)^2 (n-s+2), whose equality flag
    identifies the extremal join family (and, for s=3, stars and Moore
    graphs).  Both evaluable on any graph; guaranteed only under
    saturation.
    """
    n = g.n
    degs = g.degrees()
    return (
        _row("kkko", sum((d + 1) * (d + 2 - s) for d in degs), (s - 2) * n * (n - s + 1),
             {"n": n, "s": s}),
        _row("degree_squares", sum(d * d for d in degs), _degree_square_floor(n, s),
             {"n": n, "s": s}),
    )


def check_k4minus_chain(g: Graph, s: int) -> tuple[BoundReport, BoundReport]:
    """The two-sided anchored-K_4^- chain.

    (i) sum over edges xy of C(d(x,y),2) >= the anchored count (true for
    every graph); (ii) anchored count >= C(s-2,2) e(complement), true
    whenever g is K_s-saturated.
    """
    n = g.n
    mid = count_k4_minus(g)
    non_edges = comb(n, 2) - g.edge_count()
    return (
        _row("k4minus_upper", codegree_sum(g, 2), mid, {"n": n, "s": s}),
        _row("k4minus_lower", mid, comb(s - 2, 2) * non_edges, {"n": n, "s": s}),
    )


def check_star_bound(g: Graph, s: int, t: int) -> BoundReport:
    """Star-count floor check: N(K_{1,t}, g) vs star_floor(n, s, t).

    Guaranteed under K_s-saturation only within the t >= 3 hypothesis;
    t = 2 is admitted for exploration and flagged in the context.  The
    verdict is decided exactly: lhs >= S^{t/2}/(t^t n^{t/2-1}) iff
    (lhs t^t)^2 n^{t-2} >= S^t, all in integers.
    """
    _require(t >= 2, f"check_star_bound needs t >= 2, got t={t}")
    n = g.n
    lhs = count_stars(g, t)
    base = _degree_square_floor(n, s)
    context = {"n": n, "s": s, "t": t, "in_hypothesis": t >= 3}
    if n == 0:
        return _row("star_floor", lhs, 0.0, context, holds=True, equality=lhs == 0)
    left = (lhs * t ** t) ** 2 * n ** (t - 2)
    right = base ** t
    return _row("star_floor", lhs, _star_floor_of(base, n, t), context,
                holds=left >= right, equality=left == right)


def check_k2t_floor(g: Graph, t: int) -> BoundReport:
    """K_{2,t}-count vs the codegree sum over edges.

    The comparison N(K_{2,t}, g) >= sum over edges xy of C(d(x,y), t) is
    a theorem for t >= 3, where a copy has a unique 2-side; for t = 2
    both sides of a copy can act as the 2-side (already in K_4 the count
    is 3 against a sum of 6), so the t = 2 report is informational only.
    """
    _require(t >= 2, f"check_k2t_floor needs t >= 2, got t={t}")
    return _row("k2t_floor", count_kab(g, BipartitePattern(2, t)), codegree_sum(g, t),
                {"n": g.n, "t": t, "asserted": t >= 3})
