"""perfbench names the library's layers by text ("module.function"); a rename
or deletion in gpswf would leave a traced run without its layer.  The names
are read from the perfbench sources with ``ast``, without importing them."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assignments(filename):
    tree = ast.parse((PERFBENCH / filename).read_text())
    return {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}


RUN = _assignments("run.py")
TRACING = _assignments("tracing.py")
EXPECTED = ast.literal_eval(RUN["EXPECTED"])
METHODS = ast.literal_eval(TRACING["METHODS"])
UNWRAPPED = ast.literal_eval(TRACING["UNWRAPPED"])
SIZES = [ast.literal_eval(key) for key in TRACING["SIZES"].keys]


def _module_function(layer):
    """The function a module-level layer name points at, as the tracer finds
    it: public, and defined in that module."""
    short, _, attr = layer.partition(".")
    mod = importlib.import_module(f"gpswf.{short}")
    fn = getattr(mod, attr, None)
    assert inspect.isfunction(fn), layer
    assert not attr.startswith("_") and fn.__module__ == mod.__name__, layer
    return fn


def test_method_layers_resolve():
    for short, cls, meth, _ in METHODS:
        owner = getattr(importlib.import_module(f"gpswf.{short}"), cls)
        assert inspect.isfunction(owner.__dict__.get(meth)), (short, cls, meth)


def test_layer_names_resolve():
    method_layers = {layer for *_, layer in METHODS}
    names = {layer for layers in EXPECTED.values() for layer in layers}
    names |= set(SIZES)
    for layer in sorted(names - method_layers):
        _module_function(layer)
    for layer in sorted(UNWRAPPED):
        _module_function(layer)


def test_expected_layers_are_traced():
    for layers in EXPECTED.values():
        assert not set(layers) & UNWRAPPED
