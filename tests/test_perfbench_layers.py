"""perfbench names the library's layers by text ("module.function"); a rename
or deletion in gpswf would leave a traced run without its layer.  The names
are read from the perfbench sources with ``ast``; only the last three tests
import perfbench's tracer and workloads, from their files."""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from gpswf import approx, cli, specfun, spectral

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


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sweep_op_enters_every_expected_layer():
    # a pinned layer that the library no longer calls fails only a traced
    # benchmark run; one small sweep op under perfbench's own tracer finds it
    tracing, workloads = _load("tracing"), _load("workloads")
    spectral._fc_terms.cache_clear()  # a warm transform cache skips the ladders
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.sweep_op(None, {"alpha": 0.0, "c": 1.0})
    finally:
        tracer.restore()
    called = {tracer.names[i] for i in tracer.name}
    assert not set(EXPECTED["sweep"]) - called, sorted(set(EXPECTED["sweep"]) - called)


def test_projection_ops_enter_every_expected_layer():
    # perfbench's projection set-up prepares its bases and runs one op of
    # each kind; a traced run counts set-up spans too.  The psi table and the
    # cosine norm must stay on the path.
    tracing, workloads = _load("tracing"), _load("workloads")
    for cached in (spectral._fc_terms, approx._cos_spectra,
                   approx._wm_l2_norm_squared, approx._wm_pair_products,
                   approx._wm_term_rows, specfun._rule_cached):
        cached.cache_clear()  # warm transforms and rules skip their layers
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.projection_setup()
    finally:
        tracer.restore()
    called = {tracer.names[i] for i in tracer.name}
    missing = set(EXPECTED["projection"]) - called
    assert not missing, sorted(missing)


# small stand-ins for the three scenarios: one basis each, on a fresh cache
_SCENARIO_CONFIGS = {
    "lambda-decay": {"alpha_list": [1.0], "c_list": [3.0], "nmax": 12},
    "wm-table": {"alpha_list": [0.5], "c_list": [15.707963267948966],
                 "N_list": [12], "s_list": [1.0]},
    "brownian": {"alpha_list": [1.5], "c_list": [15.707963267948966],
                 "N_list": [10], "s_list": [1.5], "n_seeds": 1},
}


def test_scenario_runs_enter_every_expected_layer(tmp_path):
    # perfbench runs each scenario as a fresh CLI process, so every
    # in-process cache starts cold; on an empty disk cache each run looks its
    # basis up (cache_get), misses and stores it (cache_put)
    tracing = _load("tracing")
    for cached in (spectral._fc_terms, approx._cos_spectra,
                   approx._wm_l2_norm_squared, approx._wm_pair_products,
                   approx._wm_term_rows, specfun._rule_cached):
        cached.cache_clear()  # warm transforms and rules skip their layers
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, cfg in _SCENARIO_CONFIGS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            code = cli.main(["experiment", "--name", name, "--config", str(path),
                             "--out-dir", str(tmp_path / "reports"),
                             "--cache-dir", str(tmp_path / "cache"),
                             "--threads", "1", "--seed", "1"])
            assert code == 0, name
    finally:
        tracer.restore()
    called = {tracer.names[i] for i in tracer.name}
    missing = set(EXPECTED["scenarios"]) - called
    assert not missing, sorted(missing)
