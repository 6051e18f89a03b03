"""The benchmark's tracer replaces module bindings by name: every one
must still exist, or every traced benchmark run fails on entry."""

import dis
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


#: bindings that no function of their module calls, each with its reason
UNREFERENCED = {
    # kept importable for the tracer; search decodes no graph6 itself
    ("satlab.search", "from_graph6"),
}


def _function_globals(code) -> set[str]:
    """Global names loaded by the functions, methods and lambdas nested
    in ``code``, not by ``code`` itself; an attribute of the same name
    (``module.name``) does not count."""
    names: set[str] = set()
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names.update(ins.argval for ins in dis.get_instructions(const)
                          if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"))
            names.update(_function_globals(const))
    return names


def test_every_imported_binding_is_called_through():
    # a binding the module imports but no longer calls through times
    # nothing: its traced counts read 0 while the work goes on elsewhere
    unreferenced = set()
    for modname, name, *_ in _bindings():
        module = importlib.import_module(modname)
        if getattr(module, name).__module__ == modname:
            continue  # the module's own function, reached as a module attribute
        source = Path(module.__file__).read_text()
        if name not in _function_globals(compile(source, module.__file__, "exec")):
            unreferenced.add((modname, name))
    assert unreferenced == UNREFERENCED
