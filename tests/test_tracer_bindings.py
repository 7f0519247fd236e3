"""The benchmark tracer's bindings resolve against the package.

``perfbench/spans.py`` wraps package functions by name; a renamed or deleted
name would break ``perfbench/run.py --trace 1`` without failing anything
else, so the names are checked here.  The file is loaded, not edited.
"""

import importlib
import importlib.util
import pathlib

import carentropy

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = load_spans()
    assert spans.FUNCTIONS
    for module_name, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for module_name in spans.MODULES:
        importlib.import_module(module_name)


def test_traced_methods_exist():
    assert callable(carentropy.AlgebraContext.basis)
    assert callable(carentropy.State.intrinsic)
