"""Every hot path reaches containment through its own module's
``contains_subgraph`` binding.

``perfbench/tracer.py`` times containment by wrapping those module
bindings; a path that reached the anchored search any other way would
zero the traced ``counting.contains.*`` metrics while the work went on.
Every anchored search asks ``counting._Plan.anchored`` for its orbit
orders, so the guard sits there: the kernel itself also serves
``find_subgraph``, which no binding covers.
"""

import pytest

from satlab import counting, petersen, process, saturation, search
from satlab.patterns import parse_pattern, pattern_graph

MODULES = (search, saturation, process)


@pytest.fixture
def binding_calls(monkeypatch):
    """Per-module call counts of the wrapped bindings; an anchored
    search fails the test when started outside one of them."""
    calls = {}
    depth = [0]
    for module in MODULES:
        def counted(*args, _real=module.contains_subgraph, _name=module.__name__, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            depth[0] += 1
            try:
                return _real(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(module, "contains_subgraph", counted)
    real_anchored = counting._Plan.anchored

    def anchored(plan, k):
        assert depth[0], "anchored search started outside a contains_subgraph binding"
        return real_anchored(plan, k)

    monkeypatch.setattr(counting._Plan, "anchored", anchored)
    return calls


def test_search_calls_through_search_and_saturation(binding_calls):
    classes = list(search.saturated_stream(6, parse_pattern("c_4")))
    assert classes
    assert set(binding_calls) == {"satlab.search", "satlab.saturation"}
    assert min(binding_calls.values()) > 0


def test_is_h_saturated_calls_through_saturation(binding_calls):
    # Petersen has girth 5: C_4-free, and the non-edge loop runs
    report = saturation.is_h_saturated(petersen(), pattern_graph(parse_pattern("c_4")))
    assert report.is_free
    assert set(binding_calls) == {"satlab.saturation"}
    assert binding_calls["satlab.saturation"] > 0


def test_process_calls_through_process(binding_calls):
    process.run_ffree_process(8, "c_4", 0)
    assert set(binding_calls) == {"satlab.process"}
    assert binding_calls["satlab.process"] > 0
