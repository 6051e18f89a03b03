"""Formula evaluators and per-instance bound checkers."""

import json
import math

import pytest

from satlab import (
    InputError,
    check_k2t_floor,
    check_k4minus_chain,
    check_kkko,
    check_star_bound,
    complete_bipartite,
    complete_graph,
    count_stars,
    cycle,
    degree_square_rhs,
    ehm_edges,
    ehm_graph,
    formula,
    k12_k3_lower,
    k12_min,
    kr_min,
    petersen,
    star,
    star_floor,
)
from satlab.bounds import FORMULAS
from satlab.search import saturated_classes


class TestFormulas:
    def test_ehm_edges(self):
        assert ehm_edges(10, 4) == 17
        assert ehm_edges(5, 3) == 4
        assert formula("ehm_edges", n=10, s=4) == 17

    def test_k12_min(self):
        assert k12_min(6, 4) == 24
        assert k12_min(8, 5) == 78

    def test_kr_min(self):
        assert kr_min(10, 3, 5) == 22

    def test_k12_k3_lower(self):
        assert k12_k3_lower(9) == pytest.approx(36 - 13.5, rel=1e-12)

    def test_star_floor_value(self):
        assert star_floor(10, 3, 2) == pytest.approx(22.5, rel=1e-12)

    def test_degree_square_rhs_petersen_case(self):
        assert degree_square_rhs(10, 3) == 90

    def test_hypothesis_errors_name_the_bound(self):
        with pytest.raises(InputError, match="n >= s >= 4"):
            k12_min(5, 3)
        with pytest.raises(InputError, match="2 <= r < s"):
            kr_min(8, 4, 4)
        with pytest.raises(InputError, match="unknown formula"):
            formula("zeta", n=1)

    def test_formula_table_order(self):
        assert FORMULAS == ("ehm_edges", "kr_min", "k12_min", "k12_k3_lower", "ehm_k22",
                            "star_floor")
        assert formula("kr_min", n=10, r=3, s=5) == kr_min(10, 3, 5)


class TestKkko:
    def test_petersen_equality(self):
        eq2, eq5 = check_kkko(petersen(), 3)
        assert (eq2.lhs, eq2.rhs, eq2.holds) == (80, 80, True)
        assert (eq5.lhs, eq5.rhs, eq5.equality) == (90, 90, True)

    def test_ehm_equality(self):
        for n, s in ((10, 4), (7, 4), (9, 5)):
            eq2, eq5 = check_kkko(ehm_graph(n, s), s)
            assert eq2.equality and eq5.equality

    def test_c4_strict(self):
        _, eq5 = check_kkko(cycle(4), 3)
        assert (eq5.lhs, eq5.rhs, eq5.holds, eq5.equality) == (16, 12, True, False)

    def test_star_equality_s3(self):
        _, eq5 = check_kkko(star(8), 3)
        assert eq5.equality


class TestK4MinusChain:
    def test_ehm_84_equality_below(self):
        upper, lower = check_k4minus_chain(ehm_graph(8, 4), 4)
        assert upper.holds and lower.holds
        assert lower.lhs == 15 and lower.rhs == 15 and lower.equality

    def test_c5_trivial_rhs(self):
        _, lower = check_k4minus_chain(cycle(5), 3)
        assert lower.rhs == 0 and lower.holds

    def test_process_output_holds(self):
        from satlab import run_ffree_process

        g = run_ffree_process(12, "k_4", 7).result
        upper, lower = check_k4minus_chain(g, 4)
        assert upper.holds and lower.holds


class TestStarBound:
    def test_petersen_exact_equality(self):
        rep = check_star_bound(petersen(), 3, 3)
        assert rep.holds and rep.equality
        assert rep.lhs == 10 and rep.rhs == pytest.approx(10.0, rel=1e-9)

    def test_star_holds(self):
        rep = check_star_bound(star(10), 3, 3)
        assert rep.lhs == 84 and rep.holds and not rep.equality

    def test_ehm_94_holds(self):
        assert check_star_bound(ehm_graph(9, 4), 4, 3).holds

    def test_t2_flagged_out_of_hypothesis(self):
        rep = check_star_bound(ehm_graph(8, 4), 4, 2)
        assert rep.context["in_hypothesis"] is False
        assert rep.holds  # 48 >= 30.5

    def test_known_desk_scale_violations(self):
        # Moore/low-degree graphs fall below the floor when degrees < t;
        # see the star-count floor discussion in the README
        assert not check_star_bound(cycle(5), 3, 3).holds
        assert not check_star_bound(complete_bipartite(3, 3), 3, 4).holds

    def test_exact_verdict_matches_float_away_from_ties(self):
        for g, s in ((star(9), 3), (ehm_graph(8, 4), 4), (ehm_graph(9, 5), 5)):
            for t in (3, 4):
                rep = check_star_bound(g, s, t)
                lhs, rhs = count_stars(g, t), star_floor(g.n, s, t)
                if not math.isclose(lhs, rhs, rel_tol=1e-9):
                    assert rep.holds == (lhs >= rhs)

    def test_slack_variant_always_holds(self, small_random_graphs):
        # per-vertex d^t <= t^t (C(d,t) + 1), so the floor shifted down
        # by n holds unconditionally on saturated graphs
        for s in (3, 4, 5):
            for n in range(s, 7):
                for g, _ in saturated_classes(n, ("clique", s)):
                    for t in (3, 4):
                        assert count_stars(g, t) >= star_floor(n, s, t) - n - 1e-9


class TestK2tFloor:
    def test_k4_t2_report_only(self):
        rep = check_k2t_floor(complete_graph(4), 2)
        assert (rep.lhs, rep.rhs, rep.holds) == (3, 6, False)
        assert rep.context["asserted"] is False

    def test_c5_t2(self):
        rep = check_k2t_floor(cycle(5), 2)
        assert rep.lhs == 0 and rep.rhs == 0 and rep.holds

    def test_k23_t3(self):
        rep = check_k2t_floor(complete_bipartite(2, 3), 3)
        assert rep.lhs == 1 and rep.rhs == 0 and rep.holds

    def test_asserted_range_sweep(self):
        for s in (3, 4):
            for n in range(s, 7):
                for g, _ in saturated_classes(n, ("clique", s)):
                    for t in (3, 4):
                        assert check_k2t_floor(g, t).holds


class TestSerialization:
    def test_json(self):
        rep = check_star_bound(petersen(), 3, 3)
        data = json.loads(rep.to_json())
        assert data["name"] == "star_floor"
        assert data["context"]["n"] == 10

    def test_csv_row(self):
        rep, _ = check_kkko(petersen(), 3)
        row = rep.csv_row()
        assert row[0] == "kkko"
        assert row[1] == 10 and row[2] == 3 and row[3] == ""


#: every checker's ``to_json()`` on four graphs, byte for byte, as the
#: checkers wrote them when each spelled out its own verdict; the key is
#: (graph, checker, s or t or (s, t))
RECORD_PINS = {
    ('petersen', 'kkko', 3): (
        '{"context": {"n": 10, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 80, "name": "kkko", "rhs": 80}',
        '{"context": {"n": 10, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 90, "name": "degree_squares", "rhs": 90}',
    ),
    ('petersen', 'k4minus', 3): (
        '{"context": {"n": 10, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k4minus_upper", "rhs": 0}',
        '{"context": {"n": 10, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k4minus_lower", "rhs": 0}',
    ),
    ('petersen', 'kkko', 4): (
        '{"context": {"n": 10, "s": 4}, '
        '"equality": false, "holds": false, "lhs": 40, "name": "kkko", "rhs": 140}',
        '{"context": {"n": 10, "s": 4}, '
        '"equality": false, "holds": false, "lhs": 90, "name": "degree_squares", "rhs": 194}',
    ),
    ('petersen', 'k4minus', 4): (
        '{"context": {"n": 10, "s": 4}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k4minus_upper", "rhs": 0}',
        '{"context": {"n": 10, "s": 4}, '
        '"equality": false, "holds": false, "lhs": 0, "name": "k4minus_lower", "rhs": 30}',
    ),
    ('petersen', 'star', (3, 2)): (
        '{"context": {"in_hypothesis": false, "n": 10, "s": 3, "t": 2}, '
        '"equality": false, "holds": true, "lhs": 30, "name": "star_floor", "rhs": 22.5}',
    ),
    ('petersen', 'star', (3, 3)): (
        '{"context": {"in_hypothesis": true, "n": 10, "s": 3, "t": 3}, '
        '"equality": true, "holds": true, "lhs": 10, "name": "star_floor", "rhs": 10.0}',
    ),
    ('petersen', 'star', (4, 2)): (
        '{"context": {"in_hypothesis": false, "n": 10, "s": 4, "t": 2}, '
        '"equality": false, "holds": false, "lhs": 30, "name": "star_floor", "rhs": 48.5}',
    ),
    ('petersen', 'star', (4, 3)): (
        '{"context": {"in_hypothesis": true, "n": 10, "s": 4, "t": 3}, '
        '"equality": false, "holds": false, "lhs": 10, "name": "star_floor", "rhs": 31.647457895079828}',
    ),
    ('petersen', 'k2t', 2): (
        '{"context": {"asserted": false, "n": 10, "t": 2}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k2t_floor", "rhs": 0}',
    ),
    ('petersen', 'k2t', 3): (
        '{"context": {"asserted": true, "n": 10, "t": 3}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k2t_floor", "rhs": 0}',
    ),
    ('c5', 'kkko', 3): (
        '{"context": {"n": 5, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 15, "name": "kkko", "rhs": 15}',
        '{"context": {"n": 5, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 20, "name": "degree_squares", "rhs": 20}',
    ),
    ('c5', 'k4minus', 3): (
        '{"context": {"n": 5, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k4minus_upper", "rhs": 0}',
        '{"context": {"n": 5, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k4minus_lower", "rhs": 0}',
    ),
    ('c5', 'kkko', 4): (
        '{"context": {"n": 5, "s": 4}, '
        '"equality": false, "holds": false, "lhs": 0, "name": "kkko", "rhs": 20}',
        '{"context": {"n": 5, "s": 4}, '
        '"equality": false, "holds": false, "lhs": 20, "name": "degree_squares", "rhs": 44}',
    ),
    ('c5', 'k4minus', 4): (
        '{"context": {"n": 5, "s": 4}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k4minus_upper", "rhs": 0}',
        '{"context": {"n": 5, "s": 4}, '
        '"equality": false, "holds": false, "lhs": 0, "name": "k4minus_lower", "rhs": 5}',
    ),
    ('c5', 'star', (3, 2)): (
        '{"context": {"in_hypothesis": false, "n": 5, "s": 3, "t": 2}, '
        '"equality": true, "holds": true, "lhs": 5, "name": "star_floor", "rhs": 5.0}',
    ),
    ('c5', 'star', (3, 3)): (
        '{"context": {"in_hypothesis": true, "n": 5, "s": 3, "t": 3}, '
        '"equality": false, "holds": false, "lhs": 0, "name": "star_floor", "rhs": 1.4814814814814814}',
    ),
    ('c5', 'star', (4, 2)): (
        '{"context": {"in_hypothesis": false, "n": 5, "s": 4, "t": 2}, '
        '"equality": false, "holds": false, "lhs": 5, "name": "star_floor", "rhs": 11.0}',
    ),
    ('c5', 'star', (4, 3)): (
        '{"context": {"in_hypothesis": true, "n": 5, "s": 4, "t": 3}, '
        '"equality": false, "holds": false, "lhs": 0, "name": "star_floor", "rhs": 4.83426271751421}',
    ),
    ('c5', 'k2t', 2): (
        '{"context": {"asserted": false, "n": 5, "t": 2}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k2t_floor", "rhs": 0}',
    ),
    ('c5', 'k2t', 3): (
        '{"context": {"asserted": true, "n": 5, "t": 3}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k2t_floor", "rhs": 0}',
    ),
    ('ehm_7_4', 'kkko', 3): (
        '{"context": {"n": 7, "s": 3}, '
        '"equality": false, "holds": true, "lhs": 85, "name": "kkko", "rhs": 35}',
        '{"context": {"n": 7, "s": 3}, '
        '"equality": false, "holds": true, "lhs": 92, "name": "degree_squares", "rhs": 42}',
    ),
    ('ehm_7_4', 'k4minus', 3): (
        '{"context": {"n": 7, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 10, "name": "k4minus_upper", "rhs": 10}',
        '{"context": {"n": 7, "s": 3}, '
        '"equality": false, "holds": true, "lhs": 10, "name": "k4minus_lower", "rhs": 0}',
    ),
    ('ehm_7_4', 'kkko', 4): (
        '{"context": {"n": 7, "s": 4}, '
        '"equality": true, "holds": true, "lhs": 56, "name": "kkko", "rhs": 56}',
        '{"context": {"n": 7, "s": 4}, '
        '"equality": true, "holds": true, "lhs": 92, "name": "degree_squares", "rhs": 92}',
    ),
    ('ehm_7_4', 'k4minus', 4): (
        '{"context": {"n": 7, "s": 4}, '
        '"equality": true, "holds": true, "lhs": 10, "name": "k4minus_upper", "rhs": 10}',
        '{"context": {"n": 7, "s": 4}, '
        '"equality": true, "holds": true, "lhs": 10, "name": "k4minus_lower", "rhs": 10}',
    ),
    ('ehm_7_4', 'star', (3, 2)): (
        '{"context": {"in_hypothesis": false, "n": 7, "s": 3, "t": 2}, '
        '"equality": false, "holds": true, "lhs": 35, "name": "star_floor", "rhs": 10.5}',
    ),
    ('ehm_7_4', 'star', (3, 3)): (
        '{"context": {"in_hypothesis": true, "n": 7, "s": 3, "t": 3}, '
        '"equality": false, "holds": true, "lhs": 40, "name": "star_floor", "rhs": 3.810317377662722}',
    ),
    ('ehm_7_4', 'star', (4, 2)): (
        '{"context": {"in_hypothesis": false, "n": 7, "s": 4, "t": 2}, '
        '"equality": false, "holds": true, "lhs": 35, "name": "star_floor", "rhs": 23.0}',
    ),
    ('ehm_7_4', 'star', (4, 3)): (
        '{"context": {"in_hypothesis": true, "n": 7, "s": 4, "t": 3}, '
        '"equality": false, "holds": true, "lhs": 40, "name": "star_floor", "rhs": 12.352900885940274}',
    ),
    ('ehm_7_4', 'k2t', 2): (
        '{"context": {"asserted": false, "n": 7, "t": 2}, '
        '"equality": true, "holds": true, "lhs": 10, "name": "k2t_floor", "rhs": 10}',
    ),
    ('ehm_7_4', 'k2t', 3): (
        '{"context": {"asserted": true, "n": 7, "t": 3}, '
        '"equality": true, "holds": true, "lhs": 10, "name": "k2t_floor", "rhs": 10}',
    ),
    ('k4', 'kkko', 3): (
        '{"context": {"n": 4, "s": 3}, '
        '"equality": false, "holds": true, "lhs": 32, "name": "kkko", "rhs": 8}',
        '{"context": {"n": 4, "s": 3}, '
        '"equality": false, "holds": true, "lhs": 36, "name": "degree_squares", "rhs": 12}',
    ),
    ('k4', 'k4minus', 3): (
        '{"context": {"n": 4, "s": 3}, '
        '"equality": false, "holds": true, "lhs": 6, "name": "k4minus_upper", "rhs": 0}',
        '{"context": {"n": 4, "s": 3}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k4minus_lower", "rhs": 0}',
    ),
    ('k4', 'kkko', 4): (
        '{"context": {"n": 4, "s": 4}, '
        '"equality": false, "holds": true, "lhs": 16, "name": "kkko", "rhs": 8}',
        '{"context": {"n": 4, "s": 4}, '
        '"equality": false, "holds": true, "lhs": 36, "name": "degree_squares", "rhs": 26}',
    ),
    ('k4', 'k4minus', 4): (
        '{"context": {"n": 4, "s": 4}, '
        '"equality": false, "holds": true, "lhs": 6, "name": "k4minus_upper", "rhs": 0}',
        '{"context": {"n": 4, "s": 4}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k4minus_lower", "rhs": 0}',
    ),
    ('k4', 'star', (3, 2)): (
        '{"context": {"in_hypothesis": false, "n": 4, "s": 3, "t": 2}, '
        '"equality": false, "holds": true, "lhs": 12, "name": "star_floor", "rhs": 3.0}',
    ),
    ('k4', 'star', (3, 3)): (
        '{"context": {"in_hypothesis": true, "n": 4, "s": 3, "t": 3}, '
        '"equality": false, "holds": true, "lhs": 4, "name": "star_floor", "rhs": 0.769800358919501}',
    ),
    ('k4', 'star', (4, 2)): (
        '{"context": {"in_hypothesis": false, "n": 4, "s": 4, "t": 2}, '
        '"equality": false, "holds": true, "lhs": 12, "name": "star_floor", "rhs": 6.5}',
    ),
    ('k4', 'star', (4, 3)): (
        '{"context": {"in_hypothesis": true, "n": 4, "s": 4, "t": 3}, '
        '"equality": false, "holds": true, "lhs": 4, "name": "star_floor", "rhs": 2.455083469507637}',
    ),
    ('k4', 'k2t', 2): (
        '{"context": {"asserted": false, "n": 4, "t": 2}, '
        '"equality": false, "holds": false, "lhs": 3, "name": "k2t_floor", "rhs": 6}',
    ),
    ('k4', 'k2t', 3): (
        '{"context": {"asserted": true, "n": 4, "t": 3}, '
        '"equality": true, "holds": true, "lhs": 0, "name": "k2t_floor", "rhs": 0}',
    ),
}

_PIN_GRAPHS = {
    "petersen": petersen,
    "c5": lambda: cycle(5),
    "ehm_7_4": lambda: ehm_graph(7, 4),
    "k4": lambda: complete_graph(4),
}
_PIN_CHECKERS = {
    "kkko": check_kkko,
    "k4minus": check_k4minus_chain,
    "star": lambda g, st: (check_star_bound(g, *st),),
    "k2t": lambda g, t: (check_k2t_floor(g, t),),
}


class TestRecordPins:
    @pytest.mark.parametrize("key", list(RECORD_PINS), ids=str)
    def test_to_json_pinned(self, key):
        graph, checker, arg = key
        reports = _PIN_CHECKERS[checker](_PIN_GRAPHS[graph](), arg)
        assert tuple(r.to_json() for r in reports) == RECORD_PINS[key]

    def test_every_checker_and_graph_pinned(self):
        keys = set(RECORD_PINS)
        assert {(g, c) for g, c, _ in keys} == {(g, c) for g in _PIN_GRAPHS for c in _PIN_CHECKERS}
        assert sum(map(len, RECORD_PINS.values())) == 56

    @pytest.mark.parametrize("check", [check_kkko, check_k4minus_chain])
    @pytest.mark.parametrize("graph", list(_PIN_GRAPHS))
    def test_pair_rows_have_their_own_context(self, check, graph):
        a, b = check(_PIN_GRAPHS[graph](), 4)
        assert a.context == b.context
        assert a.context is not b.context
