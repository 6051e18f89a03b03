"""The benchmark's tracer replaces module bindings by name: every one
must still exist, or every traced benchmark run fails on entry."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_every_traced_binding_resolves():
    bindings = _bindings()
    assert bindings
    for modname, name, *_ in bindings:
        assert callable(getattr(importlib.import_module(modname), name)), (modname, name)
