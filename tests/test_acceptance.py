"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
"""

import dataclasses
import math
import time

import numpy as np
import oracles
import pytest

from gpswf import approx
from gpswf import basis as B
from gpswf import experiments as X
from gpswf import specfun, spectral

GRID_ALPHAS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.5)
GRID_CS = (1.0, 2.0, 5.0, 5.0 * math.pi)
NMAX = 41  # n <= 40

_t0 = time.monotonic()
_bases = {}
_spectra = {}


def grid_basis(alpha, c):
    key = (alpha, c)
    if key not in _bases:
        _bases[key] = B.build_basis(alpha, c, NMAX)
    return _bases[key]


def grid_spectrum(alpha, c):
    key = (alpha, c)
    if key not in _spectra:
        _spectra[key] = spectral.compute_spectrum(grid_basis(alpha, c))
    return _spectra[key]


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_chi_bracket():
    start = time.monotonic()
    checked = 0
    for alpha in GRID_ALPHAS:
        for c in GRID_CS:
            b = grid_basis(alpha, c)
            for n in range(NMAX):
                lo, hi = B.chi_bracket(alpha, c, n)
                assert lo <= b.chi[n] <= hi, (alpha, c, n)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    _report(1, f"chi bracket holds at all {checked} grid points "
               f"({elapsed:.1f} s)")


def test_criterion_02_improved_lower_bound():
    applicable = 0
    for alpha in (a for a in GRID_ALPHAS if a <= 0.25):
        for c in GRID_CS:
            b = grid_basis(alpha, c)
            for n in range(NMAX):
                v = B.chi_lower_bound_check(b, n)
                if v.applicable:
                    applicable += 1
                    assert v.margin_lower >= 0.0, (alpha, c, n, v)
                    assert v.margin_upper >= 0.0, (alpha, c, n, v)
    assert applicable > 50
    _report(2, f"improved chi lower bound holds at all {applicable} "
               "applicable grid points")


def test_criterion_03_decay_bounds():
    checked = 0
    for alpha in GRID_ALPHAS:
        for c in GRID_CS:
            for e in grid_spectrum(alpha, c):
                assert e.lam == pytest.approx(
                    c / (2.0 * math.pi) * e.mu_abs ** 2,
                    rel=1e-12, abs=1e-300)
                if e.n > (math.e * c + 1.0) / 2.0:
                    assert e.bound.applicable
                    assert e.bound.margin_mu >= 0.0, (alpha, c, e.n)
                    assert e.bound.margin_lambda >= 0.0, (alpha, c, e.n)
                    checked += 1
    _report(3, f"log-space decay bounds hold at all {checked} applicable "
               "points; lambda = (c/2pi)|mu|^2 to 1e-12")


def test_criterion_04_operator_consistency():
    for alpha in (0.0, 0.5):
        for c in (2.0, 5.0):
            b = B.build_basis(alpha, c, 31)
            entries = spectral.compute_spectrum(b)
            # orthonormality, n <= 30
            rule = specfun.gauss_jacobi(alpha, 2 * b.trunc + 16)
            tab = b.psi_table(rule.nodes)
            gram = tab @ (rule.weights[:, None] * tab.T)
            assert np.max(np.abs(gram - np.eye(b.nmax))) <= 1e-10
            # ODE residual
            xs = np.linspace(-0.98, 0.98, 60)
            dense = np.linspace(-1.0, 1.0, 400)
            for n in range(b.nmax):
                d = b.psi(n, xs, 2)
                resid = (-(1 - xs ** 2) * d[2] + 2 * (alpha + 1) * xs * d[1]
                         + c * c * xs ** 2 * d[0] - b.chi[n] * d[0])
                peak = np.max(np.abs(b.psi(n, dense, 0)[0]))
                assert np.max(np.abs(resid)) <= 1e-8 * (1 + b.chi[n]) * peak
            # concentration-operator eigen-residual, n <= 20
            for n in range(21):
                vals = tab[n]
                image = oracles.apply_concentration(alpha, c, rule, vals)
                rnorm = math.sqrt(float(rule.integrate(
                    (image - entries[n].lam * vals) ** 2)))
                assert rnorm <= 1e-8, (alpha, c, n, rnorm)
            # probe spread: 1e-8 relative at every n, from probes whose
            # roundoff floor is itself below 1e-8 relative
            for e in entries:
                assert e.probe_spread <= 1e-8 * e.mu_abs, (alpha, c, e.n)
                assert e.probe_floor <= 1e-8, (alpha, c, e.n)
            # partial trace against the kernel diagonal minus the bound tail
            total = spectral.kernel_trace(alpha, c)
            tail = spectral.lambda_bound_tail(alpha, c, b.nmax)
            partial = sum(e.lam for e in entries)
            assert abs(partial - total) <= 1e-6 + tail, (alpha, c)
    _report(4, "orthonormality <=1e-10, ODE & kernel residuals <=1e-8, "
               "trace identity <=1e-6; probe spread and floor <=1e-8 at every n")


def test_criterion_05_derivative_identity():
    start = time.monotonic()
    for alpha in (0.0, 0.5):
        for c in (2.0, 5.0):
            for n in range(9):
                rec = oracles.dchi_dc(alpha, c, n, nmax=9)
                assert rec.finite_diff == pytest.approx(rec.analytic,
                                                        rel=1e-5), \
                    (alpha, c, n, rec)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    _report(5, f"d(chi)/dc matches central differences to 1e-5 on the "
               f"(alpha, c, n) grid ({elapsed:.1f} s)")


def test_criterion_06_local_estimate():
    applicable = 0
    for alpha in (a for a in GRID_ALPHAS if a <= 0.25):
        for c in GRID_CS:
            b = grid_basis(alpha, c)
            for n in range(NMAX):
                q = c * c / float(b.chi[n])
                if not (q < 3.0 / 17.0):
                    continue
                rep = B.local_estimate(b, n, grid_size=400)
                assert rep.bound_applicable
                applicable += 1
                assert rep.sup_value <= rep.a_squared + 1e-9, (alpha, c, n)
                assert rep.a_squared <= 2 * alpha + 1 + 1e-9, (alpha, c, n)
                assert 1.0 - rep.b_moment <= 2 * rep.a_squared + 1e-9, \
                    (alpha, c, n)
                assert 0.0 <= rep.b_moment <= 1.0
    assert applicable > 50
    _report(6, f"local estimates (sup <= A^2 <= 2a+1, 1-B <= 2A^2) hold at "
               f"all {applicable} applicable points")


def test_criterion_07_wm_table(tmp_path):
    start = time.monotonic()
    cfg = X.ExperimentConfig(name="wm-table",
                             alpha_list=(0.1, 0.5, 1.0, 1.5, 2.0),
                             c_list=(5 * math.pi,), N_list=(95,),
                             s_list=(0.25, 0.5, 0.75, 1.0),
                             output_dir=str(tmp_path / "reports"),
                             cache_dir=str(tmp_path / "cache"))
    _, table = X.run_wm_table(cfg)
    worst = 1.0
    for (alpha, s), err in table.items():
        ref = X.WM_REFERENCE_ERRORS[(alpha, s)]
        ratio = err / ref
        assert 0.5 <= ratio <= 2.0, (alpha, s, err, ref)
        worst = max(worst, max(ratio, 1.0 / ratio))
    for alpha in cfg.alpha_list:
        row = [table[(alpha, s)] for s in cfg.s_list]
        assert all(b > a for a, b in zip(row, row[1:])), alpha
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0
    _report(7, f"all 20 table cells within factor {worst:.2f} (<= 2) of the "
               f"reference values, rows monotone in s ({elapsed:.1f} s, "
               "cold cache)")


def test_criterion_08_brownian(tmp_path):
    cfg = X.ExperimentConfig(name="brownian", alpha_list=(1.5,),
                             c_list=(5 * math.pi,), N_list=(46, 90),
                             s_list=(1.5,), seed=20260809, n_seeds=10,
                             output_dir=str(tmp_path / "reports"),
                             cache_dir=str(tmp_path / "cache"))
    _, medians = X.run_brownian(cfg)
    assert 1e-2 <= medians[90] <= 2e-1, medians
    assert medians[90] < medians[46], medians
    _report(8, f"median sup errors over 10 seeds: N=90 -> {medians[90]:.3e} "
               f"in [1e-2, 2e-1], N=46 -> {medians[46]:.3e} (larger)")


def test_criterion_09_coefficient_cross_validation():
    # (a) closed-form rough-function coefficients vs quadrature: the target
    # without its closed form takes project's Gauss rule
    b = B.build_basis(0.5, 5 * math.pi, 24)
    K = 8
    f = dataclasses.replace(approx.weierstrass_mandelbrot(1.0, 2.0, K=K), exact=None)
    pr = approx.project(b, f, 22, quad_order=max(b.trunc + 64, 400))
    worst_rel = 0.0
    for n in range(1, 22, 2):
        closed = approx.wm_all_coefficients(b, 1.0, 2.0, n + 1, K)[n]
        quad = float(np.real(pr.coefficients[n]))
        worst_rel = max(worst_rel, abs(closed - quad) / abs(quad))
    assert worst_rel <= 1e-8
    # (b) periodic coefficients vs quadrature
    b2 = B.build_basis(0.5, 5.0, 61)
    rule = specfun.gauss_jacobi(b2.alpha, max(b2.trunc + 64, 300))
    worst_abs = 0.0
    for (k, n) in [(3, 25), (1, 12), (4, 30), (2, 45)]:
        mine = approx.periodic_coefficient(b2, k, n)
        ref = complex(np.dot(rule.weights,
                             np.exp(1j * k * math.pi * rule.nodes)
                             * b2.psi(n, rule.nodes, 0)[0]))
        worst_abs = max(worst_abs, abs(mine - ref))
    assert worst_abs <= 1e-10
    # (c) fitted decay exponent in the regime k <= 0.14 n, n >= m_a c
    thr = B.decay_regime_multiplier(b2.alpha) * b2.c
    ns = np.arange(int(max(thr, 3 / 0.14)) + 1, 61)
    mags = [abs(approx.periodic_coefficient(b2, 3, int(n))) for n in ns]
    slope = float(np.polyfit(ns, np.log(np.maximum(mags, 1e-300)), 1)[0])
    assert slope < 0.0
    _report(9, f"closed-form vs quadrature: rough-function coefficients "
               f"rel {worst_rel:.1e} (<=1e-8), periodic abs {worst_abs:.1e} "
               f"(<=1e-10); decay slope {slope:.2f} < 0")


def test_criterion_10_oracle_equivalence():
    # independent dense-matrix oracle at alpha = 0, c = 2 (generic solver)
    c, nmax, mdense = 2.0, 11, 140
    b = grid_basis(0.0, 2.0)
    a = specfun.jacobi_recurrence(0.0, mdense + 2)
    dense = np.zeros((mdense, mdense))
    for k in range(mdense):
        dense[k, k] = k * (k + 1) + c * c * (a[k] ** 2 + a[k + 1] ** 2)
        if k + 2 < mdense:
            dense[k, k + 2] = dense[k + 2, k] = c * c * a[k + 1] * a[k + 2]
    vals, vecs = np.linalg.eigh(dense)
    for n in range(nmax):
        assert b.chi[n] == pytest.approx(vals[n], rel=1e-9)
        mine = np.abs(oracles.full_coefficients(b, n))
        ref = np.abs(vecs[:, n])
        ref = ref / np.linalg.norm(ref)
        keep = min(mine.size, ref.size)  # tails beyond are ~1e-30
        assert np.max(np.abs(mine[:keep] - ref[:keep])) <= 1e-8, n
    # eigensolver on random tridiagonals against Sturm counts: the negative
    # pivots of the LDL^T of T - s I number the eigenvalues below s
    from gpswf.eigensolver import SymTridiag, eig_symtridiag

    def count_below(d, e, shifts):
        piv = d[0] - shifts
        count = (piv < 0).astype(int)
        for i in range(1, d.size):
            piv = d[i] - shifts - e[i - 1] ** 2 / np.where(piv == 0.0, 1e-300, piv)
            count += piv < 0
        return count

    rng = np.random.default_rng(123)
    for n in (10, 60, 200):
        m = SymTridiag(rng.normal(size=n), rng.normal(size=n - 1))
        vals = eig_symtridiag(m).values
        delta = 1e-10 * (1.0 + np.abs(vals))
        assert np.all(count_below(m.diag, m.offdiag, vals - delta) <= np.arange(n))
        assert np.all(count_below(m.diag, m.offdiag, vals + delta) >= np.arange(n) + 1)
    _report(10, "dense-matrix oracle matches (chi 1e-9, |beta| 1e-8, "
                "n <= 10); eigenvalues within 1e-10 by Sturm count")
