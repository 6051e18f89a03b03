"""The record contract: the nine public records are immutable typed
tuples whose construction, defaults, equality, hash, repr and JSON are
pinned here (repr and JSON strings as the records have always printed
them)."""

import pytest

from satlab import (
    BipartitePattern,
    BoundReport,
    CliqueWitness,
    FamilySpec,
    Graph,
    InputError,
    ProcessTrace,
    SatRecord,
    SaturationReport,
    TrialStats,
    WitnessHypergraph,
)

#: (class, fields in order, repr, to_json or None)
RECORDS = [
    (BipartitePattern, {"a": 2, "b": 3}, "BipartitePattern(a=2, b=3)", None),
    (
        SaturationReport,
        {"is_free": True, "is_saturated": False, "free_violation": None,
         "saturation_violation": (0, 2)},
        "SaturationReport(is_free=True, is_saturated=False, free_violation=None, "
        "saturation_violation=(0, 2))",
        None,
    ),
    (
        CliqueWitness,
        {"u": 0, "v": 1, "s_set": frozenset({2, 3})},
        "CliqueWitness(u=0, v=1, s_set=frozenset({2, 3}))",
        None,
    ),
    (
        WitnessHypergraph,
        {"center": 0, "s": 3, "n": 4, "ground": frozenset({1, 2, 3}),
         "edges": (frozenset({1, 2}),), "outside": (2,)},
        "WitnessHypergraph(center=0, s=3, n=4, ground=frozenset({1, 2, 3}), "
        "edges=(frozenset({1, 2}),), outside=(2,))",
        None,
    ),
    (
        SatRecord,
        {"n": 6, "h": "k_1_2", "f": "k_3", "min_count": 6, "extremal": ("E?~o",),
         "searched": 3, "truncated": False},
        "SatRecord(n=6, h='k_1_2', f='k_3', min_count=6, extremal=('E?~o',), "
        "searched=3, truncated=False)",
        '{"extremal": ["E?~o"], "f": "k_3", "h": "k_1_2", "min_count": 6, "n": 6, '
        '"searched": 3, "truncated": false}',
    ),
    (
        ProcessTrace,
        {"seed": 7, "n": 3, "f": "k_3", "order": (2, 0, 1), "accepted": ((0, 1), (1, 2)),
         "result": Graph(3, [(0, 1), (1, 2)])},
        "ProcessTrace(seed=7, n=3, f='k_3', order=(2, 0, 1), accepted=((0, 1), (1, 2)), "
        "result=Graph(n=3, edges=2))",
        '{"accepted": [[0, 1], [1, 2]], "f": "k_3", "n": 3, "order": [2, 0, 1], '
        '"result": "Bg", "seed": 7}',
    ),
    (
        TrialStats,
        {"trials": 2, "mean": 1.5, "stddev": 0.7071067811865476, "min": 1, "max": 2},
        "TrialStats(trials=2, mean=1.5, stddev=0.7071067811865476, min=1, max=2)",
        '{"max": 2, "mean": 1.5, "min": 1, "stddev": 0.7071067811865476, "trials": 2}',
    ),
    (
        BoundReport,
        {"name": "kkko", "lhs": 3, "rhs": 2.5, "holds": True, "equality": False,
         "context": {"n": 5, "s": 3}},
        "BoundReport(name='kkko', lhs=3, rhs=2.5, holds=True, equality=False, "
        "context={'n': 5, 's': 3})",
        '{"context": {"n": 5, "s": 3}, "equality": false, "holds": true, "lhs": 3, '
        '"name": "kkko", "rhs": 2.5}',
    ),
    (
        FamilySpec,
        {"family": "ehm", "params": {"n": 5, "s": 3}},
        "FamilySpec(family='ehm', params={'n': 5, 's': 3})",
        None,
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
#: records holding a dict are unhashable, as they always were
UNHASHABLE = (BoundReport, FamilySpec)


@pytest.mark.parametrize("cls, fields, text, js", RECORDS, ids=IDS)
class TestContract:
    def test_keyword_and_positional_construction(self, cls, fields, text, js):
        by_kw = cls(**fields)
        by_pos = cls(*fields.values())
        assert by_kw == by_pos
        for name, value in fields.items():
            assert getattr(by_kw, name) == value

    def test_immutable(self, cls, fields, text, js):
        rec = cls(**fields)
        with pytest.raises(AttributeError):
            setattr(rec, next(iter(fields)), None)
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_equal_records_hash_equal(self, cls, fields, text, js):
        a, b = cls(**fields), cls(**fields)
        assert a == b and a is not b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_repr(self, cls, fields, text, js):
        assert repr(cls(**fields)) == text

    def test_json(self, cls, fields, text, js):
        if js is None:
            assert not hasattr(cls, "to_json")
        else:
            assert cls(**fields).to_json() == js


class TestDefaults:
    def test_saturation_report(self):
        rep = SaturationReport(True, True)
        assert rep.free_violation is None and rep.saturation_violation is None

    def test_witness_hypergraph(self):
        hg = WitnessHypergraph(0, 3, 4, frozenset({1, 2, 3}), ())
        assert hg.outside == ()

    def test_sat_record(self):
        assert SatRecord(6, "k_1_2", "k_3", 6, (), 3).truncated is False

    def test_bound_report_context_is_fresh(self):
        a = BoundReport("x", 1, 1, True, True)
        b = BoundReport(name="x", lhs=1, rhs=1, holds=True, equality=True)
        assert a.context == {} and b.context == {} and a.context is not b.context
        assert repr(a).endswith("context={})")

    def test_family_spec_params_are_fresh(self):
        a, b = FamilySpec("petersen"), FamilySpec(family="petersen")
        assert a.params == {} and b.params == {} and a.params is not b.params
        assert repr(a) == "FamilySpec(family='petersen', params={})"


class TestValidation:
    def test_bipartite_sides_are_normalized(self):
        assert BipartitePattern(3, 2) == BipartitePattern(2, 3)
        assert BipartitePattern(b=2, a=3) == BipartitePattern(2, 3)

    @pytest.mark.parametrize("sides", [(0, 2), (2, 0), (-1, 3)])
    def test_bipartite_sides_must_be_positive(self, sides):
        with pytest.raises(InputError):
            BipartitePattern(*sides)

    @pytest.mark.parametrize(
        "args",
        [
            (True, False, frozenset({0, 1, 2}), None),  # free but a copy is named
            (False, False, None, None),  # not free but no copy is named
            (True, True, None, (0, 1)),  # saturated but a missing pair is named
            (False, True, frozenset({0, 1, 2}), None),  # saturated but not free
        ],
    )
    def test_inconsistent_saturation_report(self, args):
        with pytest.raises(AssertionError):
            SaturationReport(*args)
