"""Tables derived from one basis live on that basis, not in global memos.

A module-level memo keyed on a basis, or on the values that stand for it,
keeps its tables (tens of MB at c = 1000) after the basis is freed.  These
tests walk every ``gpswf`` module for such a memo, and check that a basis
used by the spectrum, the local estimate and ``project`` is freed with all
it computed.
"""

import dataclasses
import gc
import importlib
import inspect
import math
import pkgutil
import tracemalloc
import weakref

import gpswf
from gpswf import approx, backend, spectral, specfun
from gpswf import basis as B


def _memos():
    """(dotted name, object) of every module-level memo of ``gpswf``:
    anything defined in the module with ``cache_info``, ``cache_clear`` or
    ``__wrapped__``."""
    for info in pkgutil.iter_modules(gpswf.__path__):
        module = importlib.import_module(f"gpswf.{info.name}")
        for name, obj in vars(module).items():
            if (getattr(obj, "__module__", None) == module.__name__
                    and any(hasattr(obj, a) for a in ("cache_info", "cache_clear",
                                                      "__wrapped__"))):
                yield f"{info.name}.{name}", obj


def test_no_global_memo_takes_a_basis():
    memos = dict(_memos())
    # the walk sees both kinds of memo, so the check below is not vacuous
    assert {"spectral._fc_terms", "approx._wm_term_rows",
            "approx._cos_spectra"} <= memos.keys()
    keyed = [name for name, memo in memos.items()
             if "basis" in inspect.signature(memo).parameters]
    assert not keyed, f"global memos keyed on a basis: {keyed}"
    for table in (B._psi_at0, B._estimate_values, B.GpswfBasis._abs_rows):
        assert not hasattr(table, "cache_info")
    assert not hasattr(specfun, "_rule_rows")


def test_periodic_sums_live_on_the_basis(monkeypatch):
    # the coefficients of every n at one |k| pi are one fsum_rows pass, kept
    # in the basis's "periodic" slot as a tuple of Python complex numbers,
    # i^n applied, and replaced when |k| pi changes
    b = B.build_basis(0.5, 5.0, 20)
    passes = []
    fsum_rows = backend.fsum_rows
    monkeypatch.setattr(backend, "fsum_rows", lambda rows: passes.append(rows.shape)
                        or fsum_rows(rows))
    first = [approx.periodic_coefficient(b, 3, n) for n in range(b.nmax)]
    kept = b._tables["periodic"]
    assert passes == [(b.nmax, b.trunc)] and kept[0] == 3 * math.pi
    assert isinstance(kept[1], tuple) and list(kept[1]) == first
    assert all(type(v) is complex for v in kept[1])
    assert [approx.periodic_coefficient(b, -3, n) for n in range(b.nmax)] == [
        v.conjugate() for v in first]
    assert len(passes) == 1 and b._tables["periodic"] is kept
    approx.periodic_coefficient(b, 5, 0)
    assert len(passes) == 2 and b._tables["periodic"][0] == 5 * math.pi
    assert [approx.periodic_coefficient(b, 3, n) for n in range(b.nmax)] == first
    assert len(passes) == 3
    assert dataclasses.replace(b)._tables == {}


def test_a_used_basis_is_collected():
    b = B.build_basis(0.5, 5.0, 20)
    spectral.compute_spectrum(b)
    B.local_estimate(b, 3)
    approx.project(b, approx.periodic_exponential(3), 10)
    approx.project(b, approx.periodic_exponential(3), 10, quad_order=200)
    approx.wm_projection_error(b, 1.0, 2.0, 10)
    approx.periodic_coefficient(b, 3, 4)
    ref = weakref.ref(b)
    del b
    gc.collect()
    assert ref() is None


def test_memory_returns_after_a_freed_basis():
    # the Gauss rule is a global memo keyed on (alpha, order): warm it, so
    # that only the basis and its tables (4.4 MB of sup-grid rows and 1.9 MB
    # of rule rows) are traced, and must all be freed
    quad_order = 600
    specfun.gauss_jacobi(0.5, quad_order)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        b = B.build_basis(0.5, 200.0, 230)
        approx.project(b, approx.periodic_exponential(7), 100, quad_order)
        ref = weakref.ref(b)
        del b
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert ref() is None
    assert grown < 1_000_000, grown
