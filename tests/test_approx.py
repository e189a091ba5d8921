import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import oracles
import pytest

from gpswf import approx
from gpswf import backend, specfun, spectral
from gpswf import basis as B
from gpswf.errors import DomainError


@pytest.fixture(scope="module")
def basis_05_2():
    return B.build_basis(0.5, 2.0, 16)


@pytest.fixture(scope="module")
def basis_wm():
    # matches the rough-function benchmark bandwidth
    return B.build_basis(0.5, 5 * math.pi, 24)


class TestCorpus:
    def test_brownian_one_draw_is_the_two(self):
        # one draw of 2K uniforms is the two draws of K that the generator's
        # name stands for
        K = 1000
        gen = np.random.Generator(np.random.Philox(key=7))
        u1, u2 = 1.0 - gen.random(K), gen.random(K)
        ref = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        f = approx.brownian(1.5, seed=7, K=K)
        assert f.params["amplitudes"].tobytes() == ref.tobytes()

    def test_brownian_deterministic(self):
        f1 = approx.brownian(1.5, seed=7, K=500)
        f2 = approx.brownian(1.5, seed=7, K=500)
        x = np.linspace(-1, 1, 64)
        np.testing.assert_array_equal(f1(x), f2(x))
        f3 = approx.brownian(1.5, seed=8, K=500)
        assert not np.array_equal(f1(x), f3(x))

    def test_brownian_zero_coefficients(self, basis_05_2):
        f = approx.brownian_from_coefficients(1.5, np.zeros(50))
        assert np.all(f(np.linspace(-1, 1, 11)) == 0.0)
        pr = approx.project(basis_05_2, f, 4)
        assert pr.l2w_error == pytest.approx(0.0, abs=1e-14)
        assert pr.sup_error == 0.0

    def test_brownian_norm_cross_check(self):
        # coefficient-space norm vs quadrature; cos(j pi x) are orthonormal
        # on [-1, 1] with unit weight
        f = approx.brownian(1.5, seed=42, K=300)
        amps = f.params["amplitudes"]
        k = np.arange(1, 301, dtype=float)
        norm2_coef = float(np.sum((amps / k ** 1.5) ** 2))
        rule = specfun.gauss_jacobi(0.0, 1100)
        norm2_quad = float(rule.integrate(f(rule.nodes) ** 2))
        assert norm2_quad == pytest.approx(norm2_coef, abs=1e-8)

    def test_brownian_domain(self):
        with pytest.raises(DomainError):
            approx.brownian(1.5, seed=1, K=0)
        with pytest.raises(DomainError):
            approx.brownian(0.4, seed=1)
        for s in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite s > 1/2"):
                approx.brownian(s, seed=1, K=50)
            with pytest.raises(DomainError, match="finite s > 1/2"):
                approx.brownian_from_coefficients(s, np.ones(50))
        for seed in (-5, -1, 2 ** 128):
            with pytest.raises(DomainError, match="seed"):
                approx.brownian(1.5, seed=seed, K=10)
        assert approx.brownian(1.5, seed=2 ** 128 - 1, K=10).params["seed"] == 2 ** 128 - 1
        with pytest.raises(DomainError, match="K must be an integer, got 10.5"):
            approx.brownian(1.5, 1, K=10.5)
        assert approx.brownian(1.5, 1, K=np.int64(12)).params["K"] == 12

    def test_builders_record_what_they_evaluate(self):
        # a k or seed that is not a whole number is refused, not truncated
        with pytest.raises(DomainError, match="whole number k, got 2.5"):
            approx.periodic_exponential(2.5)
        with pytest.raises(DomainError, match="whole number, got 1.7"):
            approx.brownian(1.5, 1.7, K=10)
        x = np.linspace(-1.0, 1.0, 9)
        f = approx.periodic_exponential(3.0)
        assert f.params == {"k": 3}
        np.testing.assert_array_equal(f(x), approx.periodic_exponential(3)(x))
        g = approx.brownian(1.5, 3.0, K=10)
        assert g.params["seed"] == 3
        np.testing.assert_array_equal(g(x), approx.brownian(1.5, 3, K=10)(x))

    def test_wm_blocked_evaluation_matches_one_product(self):
        # more terms than one evaluation block
        lam, s, K = 1.01, 1.0, 3 * approx._EVAL_BLOCK + 7
        f = approx.weierstrass_mandelbrot(s, lam, K=K)
        x = np.linspace(-1.0, 1.0, 41)
        k = np.arange(K)
        ref = np.sin(np.outer(x, lam ** k)) @ lam ** (-(2.0 - s) * k)
        np.testing.assert_allclose(f(x), ref, rtol=0, atol=1e-12)

    def test_wm_odd_and_zero_at_origin(self):
        f = approx.weierstrass_mandelbrot(0.5, 2.0)
        x = np.linspace(0.05, 1.0, 13)
        np.testing.assert_allclose(f(-x), -f(x), rtol=0, atol=0)
        assert f(np.array([0.0]))[0] == 0.0

    def test_wm_truncation_rule(self):
        K = approx.wm_truncation(1.0, 2.0)
        assert 2.0 ** (-K) / (1 - 0.5) <= 1e-12
        assert 2.0 ** (-(K - 1)) / (1 - 0.5) > 1e-12

    def test_wm_against_high_precision_sum(self):
        f = approx.weierstrass_mandelbrot(1.0, 2.0)
        K = f.params["K"]
        mpmath.mp.dps = 40
        ref = float(mpmath.nsum(
            lambda k: mpmath.sin(mpmath.mpf(2) ** k) / mpmath.mpf(2) ** k,
            [0, K - 1]))
        assert f(np.array([1.0]))[0] == pytest.approx(ref, rel=1e-12)

    def test_wm_domain(self):
        with pytest.raises(DomainError):
            approx.weierstrass_mandelbrot(0.5, 0.9)
        with pytest.raises(DomainError):
            approx.weierstrass_mandelbrot(1.2, 2.0)

    def test_wm_overflow_edge_at_lambda_2(self):
        # 1024 ln 2 and ln(DBL_MAX) are the same double, yet 2^1024
        # overflows: K 1025 is refused at every entry point, naming K and
        # lambda; at K 1024 the series and its coefficients are finite and
        # the norm, whose pair sum 2 * 2^1023 overflows, is refused
        b = B.build_basis(0.5, 5.0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = approx.weierstrass_mandelbrot(0.5, 2.0, 1024)
            assert np.all(np.isfinite(f(np.array([0.0, 0.3, 1.0]))))
            assert np.all(np.isfinite(approx.wm_all_coefficients(b, 0.5, 2.0, 12, K=1024)))
            with pytest.raises(DomainError, match=r"K=1024, lambda=2\.0"):
                approx.wm_l2_norm_squared(0.5, 0.5, 2.0, 1024)
            with pytest.raises(DomainError, match=r"K=1024, lambda=2\.0"):
                approx.wm_projection_error(b, 0.5, 2.0, 12, K=1024)
            for call in (lambda: approx.weierstrass_mandelbrot(0.5, 2.0, 1025),
                         lambda: approx.wm_all_coefficients(b, 0.5, 2.0, 12, K=1025),
                         lambda: approx.wm_l2_norm_squared(0.5, 0.5, 2.0, 1025),
                         lambda: approx.wm_projection_error(b, 0.5, 2.0, 12, K=1025)):
                with pytest.raises(DomainError, match=r"K=1025, lambda=2\.0"):
                    call()

    def test_wm_norm_refuses_past_its_pair_bound(self, monkeypatch):
        # past the bound (K 2896, whose table of 8 K^2 bytes fills 64 MiB),
        # and at the default K 107047 of the wm spec below, the norm is
        # refused before any transform is computed
        kmax = math.isqrt(approx._WM_TABLE_BYTES // 8)
        assert kmax == 2896
        assert 8 * kmax ** 2 <= approx._WM_TABLE_BYTES < 8 * (kmax + 1) ** 2

        def no_transforms(*args):
            raise AssertionError("computed a transform")

        monkeypatch.setattr(approx, "_cos_transforms", no_transforms)
        with pytest.raises(DomainError, match=f"K <= {kmax}, got K={kmax + 1}"):
            approx.wm_l2_norm_squared(0.5, 0.5, 1.0001, kmax + 1)
        f = approx.weierstrass_mandelbrot(-364628.0662452155, 1.0000000009130565)
        assert f.params["K"] == 107047
        with pytest.raises(DomainError, match="got K=107047"):
            f.exact(B.build_basis(0.5, 2.0, 3), 3)

    def test_wm_norm_peak_stays_within_its_pair_bytes(self):
        # the traced peak of the exact norm from empty tables: the table's
        # 8 K^2 bytes and one block of at most _EVAL_BLOCK^2 / 4 pairs, whose
        # two transform arguments take at most 256 bytes each
        block = 2 * 256 * (approx._EVAL_BLOCK ** 2 // 4)
        for K in (300, 600):
            approx._wm_l2_norm_squared.cache_clear()
            approx._wm_pair_products.cache_clear()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                approx._wm_l2_norm_squared(0.5, 0.5, 1.0001, K)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 8 * K * K + block, K

    def test_user_sampled_interpolates(self):
        grid = np.linspace(-1, 1, 21)
        f = approx.user_sampled(grid, grid ** 2)
        assert f(np.array([0.5]))[0] == pytest.approx(0.25, abs=3e-3)

    @pytest.mark.parametrize("grid", [
        np.linspace(1, -1, 21),  # reversed: np.interp would read f(0.5) = 1
        np.linspace(0, 0.5, 21),  # short of [-1, 1]: it would be clamped
        np.linspace(-1, 0.99, 21),
        np.r_[-1.0, np.nan, 1.0],
        np.r_[-np.inf, 0.0, 1.0],
        np.r_[-1.0, 0.0, 0.0, 1.0]])  # a repeated node
    def test_user_sampled_refuses_a_grid_off_its_contract(self, grid):
        with pytest.raises(DomainError, match="strictly increasing and cover"):
            approx.user_sampled(grid, np.ones(grid.size))

    @pytest.mark.parametrize("target", [
        approx.brownian(1.5, 3), approx.weierstrass_mandelbrot(0.5, 2.0),
        approx.periodic_exponential(3),
        approx.user_sampled(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9) ** 2)],
        ids=["brownian", "wm", "periodic", "user_sampled"])
    @pytest.mark.parametrize("x", [np.array([-0.7, -0.2, 0.0, 0.1, 0.45, 0.9]),
                                   approx._open_grid(6)], ids=["points", "open_grid"])
    def test_evaluators_keep_the_shape_of_x(self, target, x):
        # a scalar gives a scalar and a 2-d x its own shape, each value
        # bitwise the 1-d call's at the same points (the open grid takes
        # brownian's FFT in every shape)
        flat = target(x)
        assert flat.shape == (6,)
        for xi in x:
            one = target(xi)
            assert one.shape == () and one.tobytes() == target(np.array([xi])).tobytes()
        grid = target(x.reshape(2, 3))
        assert grid.shape == (2, 3) and grid.tobytes() == flat.tobytes()

    def test_target_from_config(self):
        f = approx.target_from_config({"kind": "periodic", "k": 3})
        assert np.iscomplexobj(f(np.array([0.3])))
        g = approx.target_from_config(
            {"kind": "wm", "s": 0.5, "lambda": 2.0, "K": 8})
        assert g.params["K"] == 8
        for kind in ("spline", ["wm"], None):
            with pytest.raises(DomainError):
                approx.target_from_config({"kind": kind})
        # unknown key, missing key, unparsable value, truncated integer
        for bad in ({"kind": "brownian", "s": 1.5, "sed": 3}, {"kind": "wm", "s": 1.0},
                    {"kind": "brownian", "s": "abc"}, {"kind": "periodic", "k": 1.5},
                    {"kind": "periodic", "k": "2.5"}, {"kind": "periodic", "k": 2.5}):
            with pytest.raises(DomainError):
                approx.target_from_config(bad)
        # a whole number past 2^53, as an int or a string, is read exactly
        for seed in (2 ** 60 + 1, "1152921504606846977"):
            h = approx.target_from_config({"kind": "brownian", "s": 1.5, "seed": seed, "K": 5})
            assert h.params["seed"] == 2 ** 60 + 1
        assert approx.target_from_config({"kind": "periodic", "k": 3.0}).params["k"] == 3


def _cos_amplitudes(f):
    return f.params["amplitudes"] / np.arange(1, f.params["K"] + 1.0) ** f.params["s"]


def _blocked_sum(y, x):
    # the direct cosine sum in 512-frequency blocks, as the generic path does
    k = np.arange(1, y.size + 1, dtype=float)
    out = np.zeros(x.size)
    for lo in range(0, y.size, 512):
        out += y[lo:lo + 512] @ np.cos(math.pi * np.outer(k[lo:lo + 512], x))
    return out


def _exact_angle_sum(y, m):
    # sum_k y_k cos(k pi x_i) at x_i = -1 + 2i/L with the angle reduced in
    # integers: cos(k pi x_i) = (-1)^k cos(2 pi r / L), r = k i mod L, folded
    # to min(r, L - r) so the rounded angle stays within [0, pi]
    L = m + 1
    k = np.arange(1, y.size + 1)
    r = np.outer(k, np.arange(1, m + 1)) % L
    r = np.minimum(r, L - r)
    return np.where(k % 2 == 1, -y, y) @ np.cos(2.0 * math.pi * r / L)


class TestGridEvaluation:
    """The cosine series on np.linspace(-1, 1, m + 2)[1:-1] is one FFT."""

    @pytest.mark.parametrize("s", [1.5, 2.0])
    @pytest.mark.parametrize("K,m", [(4000, 2001), (10, 2001), (4000, 7), (10, 7)])
    def test_fft_matches_blocked_and_exact_sums(self, monkeypatch, K, s, m):
        calls = []
        grid_eval = approx._cos_series_grid
        monkeypatch.setattr(approx, "_cos_series_grid",
                            lambda c, n: calls.append(n) or grid_eval(c, n))
        f = approx.brownian(s, seed=5, K=K)
        y = _cos_amplitudes(f)
        x = np.linspace(-1.0, 1.0, m + 2)[1:-1]
        fft = f(x)
        assert calls == [m]
        exact = _exact_angle_sum(y, m)
        blocked = _blocked_sum(y, x)
        assert np.max(np.abs(fft - blocked)) <= 1e-13
        assert np.max(np.abs(fft - exact)) <= 1e-14
        assert np.max(np.abs(blocked - exact)) <= 1e-14

    def test_sup_grid_takes_the_fft(self, monkeypatch):
        calls = []
        monkeypatch.setattr(approx, "_cos_series_grid",
                            lambda c, n: calls.append(n) or np.zeros(n))
        approx.brownian(1.5, seed=1, K=50)(approx._SUP_GRID)
        assert calls == [2001]
        assert not approx._SUP_GRID.flags.writeable

    def test_other_points_take_the_blocked_sum(self, monkeypatch):
        def fail(c, n):
            raise AssertionError("grid branch taken off the grid")

        monkeypatch.setattr(approx, "_cos_series_grid", fail)
        f = approx.brownian(1.5, seed=2, K=1100)
        y = _cos_amplitudes(f)
        nudged = np.linspace(-1.0, 1.0, 203)[1:-1]
        nudged[57] = np.nextafter(nudged[57], 2.0)
        for x in (nudged, specfun.gauss_jacobi(0.5, 120).nodes):
            np.testing.assert_array_equal(f(x), _blocked_sum(y, x))


class TestProjection:
    def test_idempotence_on_basis_function(self, basis_05_2):
        b = basis_05_2
        f = approx.TargetFunction(kind="callable", params={},
                                  evaluator=lambda x: b.psi(3, x, 0)[0])
        pr = approx.project(b, f, 6)
        expected = np.zeros(6)
        expected[3] = 1.0
        np.testing.assert_allclose(pr.coefficients, expected, atol=1e-12)
        assert pr.l2w_error <= 1e-10

    def test_jacobi_mode_coefficients_are_bottom_betas(self, basis_05_2):
        # <Jt_0, psi_n> = beta_0^n; error decreases monotonically in N
        b = basis_05_2
        f = approx.TargetFunction(
            kind="callable", params={},
            evaluator=lambda x: specfun.jacobi_table(b.alpha, 0, x)[0])
        errs = []
        for N in (2, 4, 8, 12, 16):
            pr = approx.project(b, f, N)
            errs.append(pr.l2w_error)
            for n in range(N):
                assert pr.coefficients[n] == pytest.approx(
                    oracles.full_coefficients(b, n)[0], abs=1e-12)
        assert all(b2 <= a2 + 1e-15 for a2, b2 in zip(errs, errs[1:]))

    def test_parseval_inequality(self, basis_05_2):
        # ||f||^2 from the exact cosine transforms: a Gauss rule of trunc + 64
        # nodes aliases the 800 cosine modes and reads it low or high
        f = approx.brownian(1.5, seed=3, K=800)
        pr = approx.project(basis_05_2, f, basis_05_2.nmax)
        y = f.params["amplitudes"] / np.arange(1.0, 801.0) ** 1.5
        norm2 = approx.cosine_series_norm2(basis_05_2.alpha, y)
        assert float(np.sum(np.abs(pr.coefficients) ** 2)) <= norm2 + 1e-10

    @pytest.mark.parametrize("target", [
        approx.weierstrass_mandelbrot(0.5, 2.0, K=8),
        approx.user_sampled(np.linspace(-1, 1, 401), np.abs(np.linspace(-1, 1, 401))),
        approx.periodic_exponential(3),
    ], ids=["wm", "abs", "periodic"])
    def test_sup_error_matches_psi_table(self, basis_wm, target):
        pr = approx.project(basis_wm, target, 20)
        ref = oracles.sup_error_table(basis_wm, target, pr.coefficients)
        assert pr.sup_error == pytest.approx(ref, abs=1e-13)

    def test_sup_error_builds_no_psi_table(self, basis_wm, monkeypatch):
        # a warm project sums S_N f on the sup grid over the memoised
        # even-order rows at its distinct |x| (and its Gauss nodes' rows):
        # it builds no N x 2001 psi table and runs no recurrence, least of
        # all one over the 2001 grid points
        targets = [approx.weierstrass_mandelbrot(0.5, 2.0, K=8),
                   approx.periodic_exponential(3)]
        for f in targets:
            approx.project(basis_wm, f, 20)
        points, tables = [], []
        rows, psi = backend._jacobi_rows, B.GpswfBasis.psi

        def counting_rows(rec, p0, kmax, x, nderiv, chunk):
            points.append(x.size)
            return rows(rec, p0, kmax, x, nderiv, chunk)

        def counting_psi(self, n, x, nderiv=0):
            tables.append(np.size(x))
            return psi(self, n, x, nderiv)

        monkeypatch.setattr(backend, "_jacobi_rows", counting_rows)
        monkeypatch.setattr(B.GpswfBasis, "psi", counting_psi)
        for f in targets:
            approx.project(basis_wm, f, 20)
        assert points == [] and tables == []

    @pytest.mark.parametrize("N", [0, 12])
    def test_every_order_taker_checks_n_alike(self, N):
        # the closed-form routes name a bad N as project does, not as a bare
        # IndexError from the basis
        b = B.build_basis(0.5, 2.0, 10)
        f = approx.periodic_exponential(1)
        for call in (lambda: approx.project(b, f, N),
                     lambda: approx.wm_all_coefficients(b, 1.0, 2.0, N),
                     lambda: approx.wm_projection_error(b, 1.0, 2.0, N),
                     lambda: approx.cosine_transform_table(b, 8, N)):
            with pytest.raises(DomainError, match=rf"^N={N} must lie in 1\.\.nmax=10$"):
                call()

    def test_order_must_be_an_integer(self):
        # a float N is refused by name, not by range() as a bare TypeError;
        # a NumPy integer is an integer
        b = B.build_basis(0.5, 2.0, 10)
        f = approx.periodic_exponential(1)
        with pytest.raises(DomainError, match=r"^N=6\.0 must be an integer in 1\.\.nmax=10$"):
            approx.project(b, f, 6.0)
        assert approx.project(b, f, np.int64(6)).coefficients.size == 6

    @pytest.mark.parametrize("target", [approx.weierstrass_mandelbrot(1.0, 2.0),
                                        approx.brownian(1.5, seed=3, K=500)],
                             ids=["wm", "brownian"])
    def test_closed_form_target_builds_no_rule(self, basis_05_2, monkeypatch, target):
        # coefficients and l2w_error are the closed form's, bitwise, and no
        # Gauss rule is asked for
        def no_rule(alpha, m):
            raise AssertionError(f"gauss_jacobi({alpha}, {m})")

        monkeypatch.setattr(specfun, "gauss_jacobi", no_rule)
        pr = approx.project(basis_05_2, target, 12)
        coeffs, l2w = target.exact(basis_05_2, 12)
        assert pr.coefficients.tobytes() == coeffs.tobytes() and pr.l2w_error == l2w

    def test_range_and_config_errors(self, basis_05_2):
        f = approx.brownian(1.5, seed=3, K=10)
        with pytest.raises(DomainError):
            approx.project(basis_05_2, f, basis_05_2.nmax + 5)
        with pytest.raises(DomainError):
            approx.project(basis_05_2, f, 4, quad_order=8)
        # a rule order that is not an integer is refused, not truncated
        g = approx.periodic_exponential(3)
        for q in (122.5, "122"):
            with pytest.raises(DomainError, match=f"quad_order must lie in 90..16384, got {q!r}"):
                approx.project(basis_05_2, g, 4, quad_order=q)
        assert (approx.project(basis_05_2, g, 4, quad_order=np.int64(122)).coefficients.tobytes()
                == approx.project(basis_05_2, g, 4).coefficients.tobytes())


@pytest.fixture(scope="module")
def basis_proj():
    # the projection benchmark's alpha-0.5 basis: trunc 89, nmax 96
    return B.build_basis(0.5, 5 * math.pi, 96)


def _kept(basis, kind):
    """(key, table) that ``basis`` keeps under ``kind``."""
    return basis._tables[kind]


class TestRuleRowsMemo:
    """``project`` reads psi at its Gauss nodes from the psi table of every
    n < nmax that the basis keeps for each rule kind, keyed by rule order:
    one ``psi_table`` at the nodes."""

    @pytest.mark.parametrize("N", [1, 2, 60, 96])
    @pytest.mark.parametrize("extra", [None, 32], ids=["default", "m+32"])
    @pytest.mark.parametrize("target", [
        dataclasses.replace(approx.weierstrass_mandelbrot(1.0, 2.0), exact=None),
        approx.periodic_exponential(7)], ids=["real", "complex"])
    def test_cold_and_warm_memo_give_the_same_bytes(self, basis_proj, N, extra, target):
        # a copy keeps no tables; m + 32 takes a coefficient rule apart from
        # the m + 64 residual rule, whose rows the basis keeps apart; the
        # real target goes without its closed form, so it takes the rules
        b = dataclasses.replace(basis_proj)
        quad_order = None if extra is None else (
            max(b.trunc, b.nmax + math.ceil(b.c) + 40) + extra)
        kinds = ["rule_psi"] + ([] if extra is None else ["residual_psi"])
        cold = approx.project(b, target, N, quad_order)
        kept = [_kept(b, kind)[1] for kind in kinds]
        warm = approx.project(b, target, N, quad_order)
        assert all(_kept(b, kind)[1] is rows for kind, rows in zip(kinds, kept))
        assert cold.coefficients.tobytes() == warm.coefficients.tobytes()
        assert (cold.l2w_error, cold.sup_error) == (warm.l2w_error, warm.sup_error)
        assert np.iscomplexobj(cold.coefficients) == (target.kind == "periodic_exponential")

    @pytest.mark.parametrize("N", [1, 2, 7, 60, 96])
    def test_psi_is_bitwise_the_recurrence_table(self, basis_proj, N):
        # at N = 1 and 2 a parity holds one n, which BLAS would round apart
        # in a one-column product; the rules are m + 32 and m + 64 nodes
        for quad_order in (184, 216):
            rule = specfun.gauss_jacobi(basis_proj.alpha, quad_order)
            ref = basis_proj.psi_table(rule.nodes, range(N))
            assert approx._rule_psi(basis_proj, rule, N).tobytes() == ref.tobytes()

    def test_table_is_read_only(self, basis_proj):
        # the default rule has 216 nodes: the basis keeps psi_n, n < nmax,
        # at them, and not the Jacobi rows it summed them from
        b = dataclasses.replace(basis_proj)
        approx.project(b, approx.periodic_exponential(7), 60)
        key, table = _kept(b, "rule_psi")
        assert key == 216 and table.shape == (96, 216)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        assert set(b._tables) == {"rule_psi", "sup_rows"}

    def test_rows_never_stale(self, basis_proj):
        # alternate bases, rule orders and N: each psi table equals the
        # recurrence's at that basis and rule, and the slot keeps the last
        # order only
        bases = [dataclasses.replace(basis_proj), B.build_basis(1.5, 5 * math.pi, 96)]
        for i, quad_order, N in [(0, 184, 7), (0, 216, 7), (1, 216, 7), (0, 184, 7),
                                 (1, 250, 7), (1, 216, 7), (1, 216, 12), (1, 216, 7)]:
            b = bases[i]
            rule = specfun.gauss_jacobi(b.alpha, quad_order)
            got = approx._rule_psi(b, rule, N)
            assert got.tobytes() == b.psi_table(rule.nodes, range(N)).tobytes()
            assert _kept(b, "rule_psi")[0] == quad_order

    @pytest.mark.parametrize("N", [1, 2, 7, 60])
    def test_second_call_reads_the_kept_table(self, basis_proj, monkeypatch, N):
        # bitwise psi_table on the first and the second call; the first sums
        # psi of every n < nmax in one jacobi_series pass, the second makes
        # none, and both are views of the kept table at every N; a new rule
        # order makes a new table
        b = dataclasses.replace(basis_proj)
        rule = specfun.gauss_jacobi(b.alpha, 216)
        ref = b.psi_table(rule.nodes, range(N)).tobytes()
        passes = _count_series(monkeypatch)
        first = approx._rule_psi(b, rule, N)
        assert first.tobytes() == ref and passes == [b.nmax]
        second = approx._rule_psi(b, rule, N)
        assert second.tobytes() == ref and passes == [b.nmax]
        table = _kept(b, "rule_psi")[1]
        assert table.shape == (b.nmax, 216) and not table.flags.writeable
        assert np.shares_memory(first, table) and np.shares_memory(second, table)
        rule = specfun.gauss_jacobi(b.alpha, 184)
        assert approx._rule_psi(b, rule, N).shape == (N, 184)
        assert passes == [b.nmax, b.nmax]

    @pytest.mark.parametrize("quad_order", [184, 216])
    def test_an_N_sweep_sums_once(self, basis_proj, monkeypatch, quad_order):
        # the convergence study of project: every N on one basis reads a view
        # of the one kept table, bit for bit psi_table(nodes, range(N)); one
        # jacobi_series pass over every n < nmax in all, and no Jacobi table
        # at the nodes
        b = dataclasses.replace(basis_proj)
        rule = specfun.gauss_jacobi(b.alpha, quad_order)
        refs = [b.psi_table(rule.nodes, range(N)).tobytes() for N in range(1, b.nmax + 1)]
        tables = []
        jacobi_table = specfun.jacobi_table
        monkeypatch.setattr(specfun, "jacobi_table",
                            lambda *a: tables.append(a[2].size) or jacobi_table(*a))
        passes = _count_series(monkeypatch)
        for N in (2, 4, 8, 12, 16, 60, 96, 1, 3, 59):
            assert approx._rule_psi(b, rule, N).tobytes() == refs[N - 1], N
        assert tables == [] and passes == [b.nmax]
        table = _kept(b, "rule_psi")[1]
        for N in range(1, b.nmax + 1):
            got = approx._rule_psi(b, rule, N)
            assert got.tobytes() == refs[N - 1] and np.shares_memory(got, table), N
        assert passes == [b.nmax]

    def test_rows_hold_under_the_haswell_kernels(self):
        # OpenBLAS reads its core when it loads, so in a child process with
        # the AVX2 (Haswell) kernels, which round a product over a subset of
        # the columns apart from the wider one: psi of one n and the kept
        # table's first N rows are still the rows of one psi_table
        script = textwrap.dedent("""\
            import json, math
            from golden import record
            from gpswf import approx, basis as B, specfun
            from numpy._core import _multiarray_umath as umath
            b = B.build_basis(0.5, 5 * math.pi, 96)
            rule = specfun.gauss_jacobi(b.alpha, 216)
            table = b.psi_table(rule.nodes)
            print(json.dumps({
                "core": record.environment()["blas_core"],
                "avx2": bool(umath.__cpu_features__.get("AVX2")),
                "one_n": [n for n in range(b.nmax)
                          if b.psi(n, rule.nodes)[0].tobytes() != table[n].tobytes()],
                "rule_psi": [N for N in (1, 2, 7, 60) if approx._rule_psi(b, rule, N).tobytes()
                             != b.psi_table(rule.nodes, range(N)).tobytes()]}))
            """)
        path = [str(Path(approx.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   PYTHONPATH=os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        child = json.loads(run.stdout)
        if not child["avx2"] or child["core"] != "Haswell":
            pytest.skip(f"the child runs OpenBLAS core {child['core']!r} "
                        f"(AVX2: {child['avx2']}), not the Haswell kernels")
        assert child["one_n"] == [] and child["rule_psi"] == []


def _count_series(monkeypatch):
    """A list that gets the number of psi_n each later
    ``backend.jacobi_series`` call sums."""
    passes = []
    jacobi_series = backend.jacobi_series
    monkeypatch.setattr(backend, "jacobi_series", lambda coefs, *a: passes.append(
        sum(c.shape[1] for c in coefs)) or jacobi_series(coefs, *a))
    return passes


class TestSupGridSeries:
    """``project`` sums S_N f on the sup grid by parity, E(|x|) + sign(x)
    O(|x|), over the even- and odd-order rows that the basis keeps at the
    grid's distinct |x| (``GpswfBasis._abs_rows``)."""

    def test_distinct_abs_rebuild_the_grid(self, basis_proj):
        # 1416 distinct |x|: 585 negative points mirror a positive one
        # exactly, 415 lie one ulp off
        u, index = B._distinct_abs(approx._SUP_GRID)
        assert u.size == 1416 and np.all(np.diff(u) > 0.0)
        assert np.array_equal(u[index], np.abs(approx._SUP_GRID))
        b = dataclasses.replace(basis_proj)
        approx._sup_grid_values(b, np.ones(3))
        kept_index, neg, _ = _kept(b, "sup_rows")[1]
        assert np.array_equal(kept_index, index)
        assert np.array_equal(np.where(neg, -u[index], u[index]), approx._SUP_GRID)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.5, 5.0])
    def test_matches_one_recurrence_series(self, alpha):
        # against the series over all 2 trunc Jacobi indices summed at the
        # 2001 points themselves, not at their |x|, which sums the same
        # terms in another order: within 1e-14 of max(1, max|S|) (1.2e-15
        # at worst over these draws)
        b = B.build_basis(alpha, 5 * math.pi, 96)
        rec = specfun.jacobi_recurrence(alpha, 2 * b.trunc + 2)
        rng = np.random.default_rng(11)
        for N in (1, 2, 17, 60, 96):
            coeffs = rng.standard_normal(N)
            if N == 17:
                coeffs = coeffs + 1j * rng.standard_normal(N)
            g = np.stack([coeffs.real, coeffs.imag], axis=1)
            full = oracles.full_coefficients(b, range(N)).T @ g
            even, odd = backend.jacobi_series([full[0::2], full[1::2]], rec,
                                              specfun.jacobi_norm0(alpha), approx._SUP_GRID)
            ref = even[0] + odd[0]
            ref = ref[0] + 1j * ref[1]
            got = approx._sup_grid_values(b, coeffs)
            assert np.iscomplexobj(got) == (N == 17)
            assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))

    def test_rows_are_the_recurrence_rows(self, basis_proj):
        # both parities are kept read-only and are bitwise the rows one
        # recurrence yields at the distinct |x|
        b = dataclasses.replace(basis_proj)
        approx._sup_grid_values(b, np.ones(3))
        even, odd = _kept(b, "sup_rows")[1][2]
        u = B._distinct_abs(approx._SUP_GRID)[0]
        full = specfun.jacobi_table(b.alpha, 2 * b.trunc - 1, u)
        for rows, ref in ((even, full[0::2]), (odd, full[1::2])):
            assert rows.shape == (b.trunc, 1416)
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0
            assert rows.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("target", [approx.weierstrass_mandelbrot(1.0, 2.0),
                                        approx.periodic_exponential(7)],
                             ids=["real", "complex"])
    def test_cold_and_warm_memo_give_the_same_bytes(self, basis_proj, target):
        b = dataclasses.replace(basis_proj)
        cold = approx.project(b, target, 60)
        kept = _kept(b, "sup_rows")[1]
        warm = approx.project(b, target, 60)
        assert _kept(b, "sup_rows")[1] is kept
        assert cold.sup_error == warm.sup_error
        fresh = dataclasses.replace(b)._abs_rows("sup_rows", None, approx._SUP_GRID)
        for parity in (0, 1):
            assert fresh[2][parity].tobytes() == kept[2][parity].tobytes()

    @pytest.mark.parametrize("N", [1, 2, 59, 60])
    def test_matches_the_psi_table_sum(self, basis_proj, N):
        # one product per parity over the kept rows against the sum of N
        # rounded psi_n on the grid, for real and complex coefficients
        rng = np.random.default_rng(N)
        psi = basis_proj.psi_table(approx._SUP_GRID, range(N))
        for coeffs in (rng.standard_normal(N),
                       rng.standard_normal(N) + 1j * rng.standard_normal(N)):
            got = approx._sup_grid_values(basis_proj, coeffs)
            ref = coeffs @ psi
            assert np.iscomplexobj(got) == np.iscomplexobj(coeffs)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_rows_never_stale(self):
        # alternate bases of other alpha and trunc: each sum equals the one
        # from a copy that keeps no rows
        bases = [B.build_basis(alpha, c, 12) for alpha, c in
                 ((0.5, 2.0), (0.5, 30.0), (2.5, 10.0))]
        assert len({b.trunc for b in bases}) == 3
        coeffs = np.linspace(1.0, -0.5, 12)
        for i in (0, 1, 2, 0, 2, 1):
            got = approx._sup_grid_values(bases[i], coeffs)
            ref = approx._sup_grid_values(dataclasses.replace(bases[i]), coeffs)
            assert got.tobytes() == ref.tobytes()

    def test_large_alpha_sums_are_not_rounding_noise(self):
        # the brownian scenario's cell at alpha 160, c 5 pi, N 46: S_N f
        # reaches 2.2e25 on |x| <= 0.995, where the weight (1 - x^2)^160 is
        # below 1e-320, so the weighted projection does not bound it there.
        # That size is the series' own: the psi_table route sums the same
        # series in another order and lands within 3.9e-16 of it, and the
        # rounding floor eps max_x sum_k |g_k Jt_k(x)| is 1.2e10 (measured)
        b = B.build_basis(160.0, 5 * math.pi, 47)
        f = approx.brownian(1.5, 0, K=4000)
        y = f.params["amplitudes"] / np.arange(1.0, 4001) ** 1.5
        coeffs = y @ approx.cosine_transform_table(b, 4000, 46)
        bulk = np.abs(approx._SUP_GRID) <= 0.995
        got = approx._sup_grid_values(b, coeffs)[bulk]
        size = np.max(np.abs(got))
        assert size > 1e24
        ref = coeffs @ b.psi_table(approx._SUP_GRID, range(46))[:, bulk]
        assert np.max(np.abs(got - ref)) <= 1e-13 * size
        g = [np.abs(b.beta[p:46:2].T @ coeffs[p::2]) for p in (0, 1)]
        u = B._distinct_abs(approx._SUP_GRID)[0]
        rows = np.abs(specfun.jacobi_table(b.alpha, 2 * b.trunc - 1, u))
        floor = np.finfo(float).eps * np.max(g[0] @ rows[0::2] + g[1] @ rows[1::2])
        assert floor <= 1e-12 * size

    @pytest.mark.parametrize("target", [approx.weierstrass_mandelbrot(0.5, 2.0, K=8),
                                        approx.periodic_exponential(3)],
                             ids=["wm", "periodic"])
    def test_near_the_series_in_long_double(self, target):
        # at alpha 5, Jt_k(1) grows like k^5.5, so the order of summation
        # shows: the route lands 2.7e-13 (wm) and 4.3e-13 (periodic) from
        # the same series, coeffs . beta then sum_k g_k Jt_k, summed in long
        # double over the same recurrence coefficients; a sum of N rounded
        # psi_n, coeffs @ psi_table, lands 8.7e-13 to 1.1e-12 from it
        assert np.finfo(np.longdouble).nmant >= 63
        b = B.build_basis(5.0, 20 * math.pi, 96)
        coeffs = approx.project(b, target, 60).coefficients
        got = approx._sup_grid_values(b, coeffs)
        rec = specfun.jacobi_recurrence(b.alpha, 2 * b.trunc + 2).astype(np.longdouble)
        x = approx._SUP_GRID.astype(np.longdouble)
        g = coeffs.astype(np.clongdouble) @ oracles.full_coefficients(b, range(60))
        prev, cur = np.zeros_like(x), np.full_like(x, specfun.jacobi_norm0(b.alpha))
        ref = g[0] * cur
        for k in range(1, g.size):
            prev, cur = cur, (x * cur - rec[k - 1] * prev) / rec[k]
            ref += g[k] * cur
        err = np.max(np.abs(got - ref))
        assert err <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


class TestWmCoefficients:
    def test_even_coefficients_vanish(self, basis_wm):
        for n in range(0, 22, 2):
            assert approx.wm_all_coefficients(basis_wm, 1.0, 2.0, n + 1)[n] == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_closed_form_matches_quadrature(self, basis_wm, s):
        # identical K-term truncations on both routes; without its closed
        # form the target takes project's Gauss rule
        K = 8
        f = dataclasses.replace(approx.weierstrass_mandelbrot(s, 2.0, K=K), exact=None)
        pr = approx.project(basis_wm, f, 22,
                            quad_order=max(basis_wm.trunc + 64, 400))
        for n in range(1, 22, 2):
            closed = approx.wm_all_coefficients(basis_wm, s, 2.0, n + 1, K)[n]
            assert closed == pytest.approx(float(np.real(pr.coefficients[n])),
                                           rel=1e-8)

    @pytest.mark.parametrize("s", [0.25, 1.0])
    def test_default_k_is_the_evaluator_truncation(self, basis_wm, s):
        K = approx.wm_truncation(s, 2.0)
        assert approx.weierstrass_mandelbrot(s, 2.0).params["K"] == K
        default = approx.wm_all_coefficients(basis_wm, s, 2.0, 22)
        explicit = approx.wm_all_coefficients(basis_wm, s, 2.0, 22, K=K)
        assert default.tobytes() == explicit.tobytes()

    @pytest.mark.parametrize("alpha,s", [(0.1, 0.25), (1.5, 1.0)])
    def test_norm_bitwise_equals_scalar_transforms(self, alpha, s):
        # the pairwise sum of one-argument transforms, in the same order, is
        # the reference for the table read from one batched ladder
        K = approx.wm_truncation(s, 2.0)
        freqs = 2.0 ** np.arange(K)
        amps = 2.0 ** (-(2.0 - s) * np.arange(K))
        ref = 0.0
        for i in range(K):
            for j in range(i, K):
                val = 0.5 * (approx._cos_transforms(alpha, [abs(freqs[i] - freqs[j])])[0]
                             - approx._cos_transforms(alpha, [freqs[i] + freqs[j]])[0])
                ref += (1.0 if i == j else 2.0) * amps[i] * amps[j] * val
        assert approx.wm_l2_norm_squared(alpha, s, 2.0, K) == ref

    @pytest.mark.parametrize("s,lam,K", [(1.0, 1.3, 12), (0.5, 1.0001, 300),
                                         (0.5, 1.0001, 600), (0.5, 1.03, 694)])
    def test_norm_bitwise_equals_the_pair_loop(self, s, lam, K):
        # the pair table and blocked running sum against one add per pair
        # over transforms computed row by row
        _clear_wm_caches()
        got = approx.wm_l2_norm_squared(0.5, s, lam, K)
        assert np.float64(got).tobytes() == np.float64(
            oracles.wm_l2_norm_squared(0.5, s, lam, K)).tobytes()

    def test_norm_check_script_quick(self, capsys):
        # scripts/wm_norm_check.py --quick: K <= 300 bitwise the pair loop
        # within the peak bound, and the first K past the cap refused
        path = Path(__file__).resolve().parents[1] / "scripts" / "wm_norm_check.py"
        spec = importlib.util.spec_from_file_location("wm_norm_check", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count(" yes ") == 3 and "got K=2897: its pair table" in out
        assert "4 cells in" in out and "; 0 failed" in out

    def test_projection_error_parseval_route(self, basis_wm):
        # coefficient-space error equals the quadrature residual norm
        K = 8
        f = dataclasses.replace(approx.weierstrass_mandelbrot(1.0, 2.0, K=K), exact=None)
        pr = approx.project(basis_wm, f, 20,
                            quad_order=max(basis_wm.trunc + 64, 400))
        err = approx.wm_projection_error(basis_wm, 1.0, 2.0, 20, K=K)
        assert err == pytest.approx(pr.l2w_error, rel=1e-6)

    def test_projection_error_leaves_numpy_ma_unloaded(self):
        # the exact norm calls no np.unique, which imports numpy.ma into
        # every wm-table process
        code = ("import sys; from gpswf import approx, basis; "
                "approx.wm_projection_error(basis.build_basis(0.5, 2.0, 16), 0.5, 2.0, 15); "
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(approx.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_rows_from_one_cached_ladder(self, basis_wm, monkeypatch):
        approx._wm_term_rows.cache_clear()
        calls = []
        rows = spectral._fc_term_rows

        def counted(alpha, kmax, us):
            calls.append(len(us))
            return rows(alpha, kmax, us)

        monkeypatch.setattr(spectral, "_fc_term_rows", counted)
        K = approx.wm_truncation(0.5, 2.0)
        first = approx.wm_all_coefficients(basis_wm, 0.5, 2.0, 22)
        assert calls == [K]
        # another s and N at the same basis and lambda read the same rows
        approx.wm_all_coefficients(basis_wm, 1.0, 2.0, 12, K=K)
        assert approx.wm_all_coefficients(basis_wm, 0.5, 2.0, 22).tobytes() == first.tobytes()
        assert calls == [K]

    def test_long_series_in_blocks(self, basis_wm, monkeypatch):
        # past _EVAL_BLOCK terms the rows come one block at a time
        calls = []
        rows = spectral._fc_term_rows
        monkeypatch.setattr(spectral, "_fc_term_rows",
                            lambda *a: calls.append(len(a[2])) or rows(*a))
        K = approx.wm_truncation(0.5, 1.03)
        assert K > approx._EVAL_BLOCK
        approx._wm_term_rows.cache_clear()
        approx.wm_all_coefficients(basis_wm, 0.5, 1.03, 12)
        assert calls == [approx._EVAL_BLOCK, K - approx._EVAL_BLOCK]

    def test_rows_grow_by_the_missing_terms(self, basis_wm, monkeypatch):
        # a larger K adds only its extra rows to the block; a smaller K reads
        approx._wm_term_rows.cache_clear()
        calls = []
        rows = spectral._fc_term_rows
        monkeypatch.setattr(spectral, "_fc_term_rows",
                            lambda *a: calls.append(len(a[2])) or rows(*a))
        for K in (24, 41, 27):
            approx.wm_all_coefficients(basis_wm, 0.5, 2.0, 22, K=K)
        assert calls == [24, 41 - 24]

    @pytest.mark.parametrize("s,lam,K", [(0.5, 1.0, 12), (0.5, 0.5, 12),
                                         (0.5, math.nan, 12), (0.5, 2.0, -3),
                                         (1.5, 2.0, 12), (-math.inf, 2.0, 5),
                                         (math.nan, 2.0, 5), (-math.inf, 2.0, None),
                                         (1.0, math.inf, None), (1.0, math.inf, 5),
                                         (0.5, 2.0, 2.5)])
    def test_domain(self, basis_wm, s, lam, K):
        # lambda <= 1, s > 1, either not finite, and K outside 1.._MAX_TERMS
        # or not an integer, as in weierstrass_mandelbrot
        with pytest.raises(DomainError):
            approx.weierstrass_mandelbrot(s, lam, K)
        with pytest.raises(DomainError):
            approx.wm_l2_norm_squared(basis_wm.alpha, s, lam, K)
        with pytest.raises(DomainError):
            approx.wm_all_coefficients(basis_wm, s, lam, 12, K=K)
        with pytest.raises(DomainError):
            approx.wm_projection_error(basis_wm, s, lam, 12, K=K)


def _clear_wm_caches():
    for cached in (approx._wm_l2_norm_squared, approx._wm_pair_products,
                   approx._wm_term_rows):
        cached.cache_clear()


def _fresh_term_rows(alpha, kmax, lam, lo, hi):
    # the rows from one uncached ladder call at the evaluator's frequencies
    return spectral._fc_term_rows(alpha, kmax, lam ** np.arange(lo, hi))


@pytest.fixture(scope="module")
def brownian_table():
    # the brownian scenario's basis (alpha 1.5, c 5 pi, N 91) and a table one
    # frequency longer than the scenario's
    b = B.build_basis(1.5, 5 * math.pi, 91)
    return b, approx.cosine_transform_table(b, 4001, 91)


@pytest.fixture(scope="module")
def wm_table_cells():
    # the wm-table scenario's bases (c = 5 pi, N = 95) and its 20 cells, in
    # the scenario's order of s from empty caches
    bases = {alpha: B.build_basis(alpha, 5 * math.pi, 96)
             for alpha in (0.1, 0.5, 1.0, 1.5, 2.0)}
    _clear_wm_caches()
    ref = {(alpha, s): approx.wm_projection_error(b, s, 2.0, 95)
           for alpha, b in bases.items() for s in (1.0, 0.75, 0.5, 0.25)}
    return bases, ref


class TestSharedTransformsOracle:
    """The WM pair table and term rows shared across s, and the cosine
    table in 256-frequency batches: a table grown, shrunk or evicted across
    calls reads bitwise what a fresh call gives.  ``tests/golden`` pins the
    values themselves."""

    @pytest.mark.parametrize("s_order", [(0.25, 0.5, 0.75, 1.0),
                                         (1.0, 0.75, 0.5, 0.25),
                                         (0.5, 1.0, 0.25, 0.75)])
    def test_wm_table_cells_in_any_s_order(self, wm_table_cells, s_order):
        bases, ref = wm_table_cells
        _clear_wm_caches()
        for alpha, b in bases.items():
            coefs = oracles.full_coefficients(b, range(1, 95, 2))
            kmax = coefs.shape[1] - 1
            for s in s_order:
                K = approx.wm_truncation(s, 2.0)
                assert (approx._wm_term_rows(alpha, kmax, 2.0, 0, K).tobytes()
                        == _fresh_term_rows(alpha, kmax, 2.0, 0, K).tobytes())
                got = np.float64(approx.wm_projection_error(b, s, 2.0, 95))
                assert got.tobytes() == np.float64(ref[alpha, s]).tobytes(), (alpha, s)

    def test_long_series_across_eval_block(self, basis_wm):
        # lambda = 1.03 takes K > _EVAL_BLOCK terms: both blocks grow and
        # shrink their requests, and every read is the fresh rows
        K = approx.wm_truncation(0.5, 1.03)
        assert approx._EVAL_BLOCK < K < 2 * approx._EVAL_BLOCK
        _clear_wm_caches()
        kmax = oracles.full_coefficients(basis_wm, range(1, 12, 2)).shape[1] - 1
        for lo, hi in ((0, 100), (0, 512), (0, 40), (512, 600), (512, K),
                       (512, 530)):
            assert (approx._wm_term_rows(0.5, kmax, 1.03, lo, hi).tobytes()
                    == _fresh_term_rows(0.5, kmax, 1.03, lo, hi).tobytes())

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_wm_coefficients_equal_the_per_k_loop(self, basis_wm, s):
        # the stacked products and the running sum over k, across both
        # _EVAL_BLOCK blocks of lambda 1.03, against one product over the
        # odd orders and one add per term in the order of k; the amplitudes
        # are the evaluator's, where a scalar pow rounds some of them
        # differently
        lam, N = 1.03, 24
        K = approx.wm_truncation(s, lam)
        assert K > approx._EVAL_BLOCK
        coefs = basis_wm.beta[1:N:2]
        rows = _fresh_term_rows(basis_wm.alpha, 2 * basis_wm.trunc - 1, lam, 0, K)
        amps = lam ** (-(2.0 - s) * np.arange(K))
        ref = np.zeros(N)
        for k in range(K):
            ref[1::2] += amps[k] * (coefs @ rows[k, 1::2])
        _clear_wm_caches()
        got = approx.wm_all_coefficients(basis_wm, s, lam, N)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k_max", [1, 255, 256, 257, 4000])
    def test_cosine_table_across_batches(self, brownian_table, k_max):
        # a row reads the same whichever 256-frequency batch computes it
        b, longer = brownian_table
        assert (approx.cosine_transform_table(b, k_max, 91).tobytes()
                == longer[:k_max].tobytes())

    def test_pair_table_grows_by_the_missing_arguments(self, monkeypatch):
        # K 24, then the 561 pairs of the columns 24..40 that K 41 adds,
        # two transform arguments each; K 27 reads the table as it is
        _clear_wm_caches()
        calls = []
        transforms = approx._cos_transforms
        monkeypatch.setattr(approx, "_cos_transforms",
                            lambda a, u: calls.append(len(u)) or transforms(a, u))
        for K in (24, 41, 27):
            approx.wm_l2_norm_squared(0.5, 0.5, 2.0, K)
        assert calls == [2 * 24 * 25 // 2, 2 * (41 * 42 - 24 * 25) // 2]

    def test_smaller_k_reads_the_pair_table_without_transforms(self, monkeypatch):
        # after K 41 (s 1) at (0.5, lambda 2), the norms at s 0.25, 0.5 and
        # 0.75 (K 24, 27 and 33) read the table's leading rows and columns,
        # bitwise the norms from empty tables
        cells = [(s, approx.wm_truncation(s, 2.0)) for s in (0.25, 0.5, 0.75)]
        assert [K for _, K in cells] == [24, 27, 33]
        fresh = {}
        for s, K in cells:
            _clear_wm_caches()
            fresh[s] = approx.wm_l2_norm_squared(0.5, s, 2.0, K)
        _clear_wm_caches()
        approx.wm_l2_norm_squared(0.5, 1.0, 2.0, 41)

        def no_transforms(*args):
            raise AssertionError("computed a transform")

        monkeypatch.setattr(approx, "_cos_transforms", no_transforms)
        approx._wm_l2_norm_squared.cache_clear()
        for s, K in cells:
            got = approx.wm_l2_norm_squared(0.5, s, 2.0, K)
            assert np.float64(got).tobytes() == np.float64(fresh[s]).tobytes(), s

    def test_grown_tables_under_threads(self):
        # eight threads grow and evict the tables of a four-key LRU; every
        # read must still be its key's table up to its size
        @approx._grown_lru(maxsize=4, nkey=1)
        def grow(kept, key, n):
            if kept is None or len(kept) < n:
                kept = tuple(range(key, key + n))
            return kept, kept[:n]

        requests = [(i % 9, 1 + (7 * i) % 13) for i in range(4000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(grow, key, n) for key, n in requests]
                got = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [tuple(range(key, key + n)) for key, n in requests]

    def test_pair_table_is_bounded(self, monkeypatch):
        # one table per (alpha, lambda), the least recently used dropped
        _clear_wm_caches()
        calls = []
        transforms = approx._cos_transforms
        monkeypatch.setattr(approx, "_cos_transforms",
                            lambda a, u: calls.append(len(u)) or transforms(a, u))
        lams = [2.0 + i / 8 for i in range(9)]
        for lam in lams:
            approx.wm_l2_norm_squared(0.5, 1.0, lam, 4)
        approx._wm_l2_norm_squared.cache_clear()
        approx.wm_l2_norm_squared(0.5, 1.0, lams[-1], 4)
        assert len(calls) == 9
        approx.wm_l2_norm_squared(0.5, 1.0, lams[0], 4)
        assert len(calls) == 10


class TestCosineSeries:
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_norm_matches_quadrature(self, alpha):
        rule = specfun.gauss_jacobi(alpha, 600)
        y = np.random.default_rng(5).standard_normal(40) / np.arange(1, 41) ** 1.5

        def quad(y):
            k = np.arange(1, y.size + 1)
            return float(rule.integrate((y @ np.cos(math.pi * np.outer(k, rule.nodes))) ** 2))

        first = approx.cosine_series_norm2(alpha, y)
        assert first == pytest.approx(quad(y), rel=1e-12)
        assert approx.cosine_series_norm2(alpha, y) == first
        # a different K right after reads its own table
        assert approx.cosine_series_norm2(alpha, y[:25]) == pytest.approx(
            quad(y[:25]), rel=1e-12)

    def test_transform_table_bitwise_equals_scalar(self):
        # the norm's W(j pi), j = 0..2K, come from one array call; j pi
        # crosses the Miller/upward switch at 370 near j = 118
        w = approx._cos_transforms(1.5, np.arange(301) * math.pi)
        ref = np.array([approx._cos_transforms(1.5, [j * math.pi])[0] for j in range(301)])
        assert w.tobytes() == ref.tobytes()
        for weights in approx._cos_spectra(1.5, 150):
            with pytest.raises(ValueError):
                weights[0] = 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_one_fft_norm_matches_the_three_fft_form(self, alpha):
        # the correlation-theorem form against the inverse-FFT form it
        # replaced (4.3e-16 relative at worst over these draws)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for K in (1, 2, 3, 4000, 4001):
                for s in (1.5, 2.0):
                    y = rng.standard_normal(K) / np.arange(1, K + 1) ** s
                    ref = oracles.cosine_series_norm2_three_ffts(alpha, y)
                    got = approx.cosine_series_norm2(alpha, y)
                    assert abs(got - ref) <= 4e-15 * ref

    @pytest.mark.parametrize("alpha", [0.0, 2.5])
    def test_one_fft_norm_matches_the_pair_sum(self, alpha):
        # the direct O(K^2) sum over pairs (j, k) of y_j y_k <cos j pi x,
        # cos k pi x>_w, in Python floats (3.1e-16 relative at worst)
        rng = np.random.default_rng(4)
        for K in (1, 2, 3, 17, 64):
            y = rng.standard_normal(K) / np.arange(1, K + 1) ** 1.5
            w = approx._cos_transforms(alpha, np.arange(2 * K + 1) * math.pi).tolist()
            ref = math.fsum(0.5 * yj * yk * (w[abs(j - k)] + w[j + k + 2])
                            for j, yj in enumerate(y.tolist())
                            for k, yk in enumerate(y.tolist()))
            assert abs(approx.cosine_series_norm2(alpha, y) - ref) <= 1e-13 * ref

    def test_spectra_are_kept_per_alpha_and_K(self, monkeypatch):
        # one transform call per (alpha, K), in a memo of at most 8
        approx._cos_spectra.cache_clear()
        calls = []
        transforms = approx._cos_transforms
        monkeypatch.setattr(approx, "_cos_transforms",
                            lambda a, u: calls.append(len(u)) or transforms(a, u))
        y = np.random.default_rng(2).standard_normal(40)
        first = approx.cosine_series_norm2(0.5, y)
        assert approx.cosine_series_norm2(0.5, y) == first and calls == [81]
        approx.cosine_series_norm2(0.5, y[:25])
        approx.cosine_series_norm2(1.5, y)
        assert calls == [81, 51, 81]
        assert approx._cos_spectra.cache_info().maxsize == 8

    @pytest.mark.parametrize("alpha", [0.1, 2.0])
    def test_transforms_equal_the_scalar_expression(self, alpha):
        # the array products against the Python-float expression per
        # argument, after one array pow for every prefactor
        u = np.concatenate([np.arange(301) * math.pi, np.geomspace(1e-3, 1e5, 500)])
        gamma = np.exp(np.float64(math.lgamma(alpha + 1.0)))
        pref = np.ones(u.size)
        pref[1:] = math.sqrt(math.pi) * np.power(2.0 / u[1:], alpha + 0.5)
        ref = np.array([p * gamma * specfun.bessel_j(alpha + 0.5, v)
                        if v else specfun.weight_mass(alpha)
                        for p, v in zip(pref.tolist(), u.tolist())])
        assert approx._cos_transforms(alpha, u).tobytes() == ref.tobytes()

    def test_cosine_transform_table_bitwise(self, basis_05_2):
        b = basis_05_2
        table = approx.cosine_transform_table(b, 300, 6)
        coefs = b.beta[[0, 2, 4]]
        kmax = 2 * b.trunc - 1
        for k in (1, 64, 65, 117, 118, 300):
            ref = coefs @ spectral._fc_terms(b.alpha, kmax, k * math.pi)[0::2]
            assert table[k - 1, [0, 2, 4]].tobytes() == ref.tobytes()
        # column order: each odd column is one contiguous run of +0.0 that
        # nothing writes
        assert table.flags.f_contiguous
        assert table[:, 1::2].tobytes() == bytes(8 * 300 * 3)


    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_cosine_table_rows_equal_per_row_products(self, alpha):
        # the projection bases: every row of the stacked product is the
        # row's own coefs @ terms, which a gemm (terms @ coefs.T) is not
        b = B.build_basis(alpha, 5 * math.pi, 96)
        table = approx.cosine_transform_table(b, 4000, 91)
        coefs = b.beta[0:91:2]
        rows = spectral._fc_term_rows(alpha, 2 * b.trunc - 1,
                                      np.arange(1, 4001) * math.pi)
        ref = np.array([coefs @ terms[0::2] for terms in rows])
        assert table[:, 0::2].tobytes() == ref.tobytes()
        assert not np.any(table[:, 1::2])

    def test_projection_reads_the_even_columns(self, brownian_table):
        # the even coefficients are the product with the even columns alone,
        # at rounding level from the product with the whole C-order table,
        # relative to sum_k |y_k T_kn| (a coefficient that cancels to 1e-6
        # moves by up to 5e-13 of itself); the odd ones are +0.0
        b, table = brownian_table
        f = approx.brownian(1.5, seed=3, K=4001)
        y = _cos_amplitudes(f)
        coeffs, _ = approx.cosine_series_projection(b, y, 91, table=table)
        ref = y @ np.ascontiguousarray(table)[:, :91]
        assert coeffs[1::2].tobytes() == bytes(8 * 45)
        scale = np.abs(y) @ np.abs(table[:, 0:91:2])
        assert np.all(np.abs(coeffs[0::2] - ref[0::2]) <= 1e-13 * scale)

    def test_projection_refuses_a_table_of_another_shape(self):
        # a table must have one row per amplitude and at least N columns: a
        # 10-column table at N = 15 read 10 coefficients and an l2w error
        # of 0.107 where the true one is 0.0368
        b = B.build_basis(0.5, 5 * math.pi, 20)
        y = 1.0 / np.arange(1, 51) ** 2
        _, err = approx.cosine_series_projection(b, y, 15)
        assert err == pytest.approx(0.0368, abs=1e-4)
        wide = approx.cosine_transform_table(b, 50, 20)
        coeffs, wide_err = approx.cosine_series_projection(b, y, 15, table=wide)
        assert coeffs.size == 15 and wide_err == pytest.approx(err, rel=1e-12)
        narrow = approx.cosine_transform_table(b, 50, 10)
        with pytest.raises(DomainError, match=r"shape \(50, 10\) .* \(50, >= 15\)"):
            approx.cosine_series_projection(b, y, 15, table=narrow)

    @pytest.mark.parametrize("k_max", [40, 60])
    def test_projection_refuses_a_table_of_other_rows(self, k_max):
        b = B.build_basis(0.5, 5 * math.pi, 20)
        y = 1.0 / np.arange(1, 51) ** 2
        table = approx.cosine_transform_table(b, k_max, 15)
        with pytest.raises(DomainError, match=rf"shape \({k_max}, 15\) .* \(50, >= 15\)"):
            approx.cosine_series_projection(b, y, 15, table=table)


@pytest.mark.parametrize("call, match", [
    (lambda b: approx.cosine_transform_table(b, -1, 4), r"^k_max must be an integer >= 1, got -1$"),
    (lambda b: approx.cosine_transform_table(b, 0, 4), r"^k_max must be an integer >= 1, got 0$"),
    (lambda b: approx.cosine_transform_table(b, 2.5, 4), r"^k_max must be an integer >= 1, got 2\.5$"),
    (lambda b: approx.cosine_series_norm2(b.alpha, []), "at least one amplitude"),
    (lambda b: approx.cosine_series_projection(b, [], 4), "at least one amplitude"),
    (lambda b: approx.periodic_coefficient(b, 10 ** 400, 3), r"not a finite double at k=10{400}$"),
    (lambda b: approx.periodic_coefficient(b, -10 ** 400, 2), r"not a finite double at k=-10{400}$"),
    (lambda b: approx.periodic_coefficient(b, math.inf, 3), r"not a finite double at k=inf$"),
    (lambda b: approx.periodic_coefficient(b, 2.5, 0), r"^the frequency index k=2\.5 is not"),
    (lambda b: approx.periodic_coefficient(b, 3.0, 0), r"^the frequency index k=3\.0 is not"),
    (lambda b: approx.periodic_coefficient(b, True, 3), r"^the frequency index k=True is not"),
    (lambda b: approx.cosine_series_norm2(b.alpha, [[1.0, 2.0]]), r"1-D array; got shape \(1, 2\)$"),
    (lambda b: approx.cosine_series_norm2(b.alpha, [1.0, math.inf]), "all finite"),
    (lambda b: approx.cosine_series_norm2(b.alpha, [math.nan]), "all finite"),
    (lambda b: approx.brownian_from_coefficients(1.5, [[1.0, 2.0]]), r"got shape \(1, 2\)$"),
    (lambda b: approx.cosine_series_projection(b, [1.0, -math.inf], 4), "all finite"),
], ids=["k_max_negative", "k_max_zero", "k_max_float", "norm_empty",
        "projection_empty", "k_past_double", "k_past_double_negative", "k_inf",
        "k_fraction", "k_whole_float", "k_bool", "norm_2d", "norm_inf", "norm_nan",
        "brownian_2d", "projection_inf"])
def test_transform_edges_raise_domain_error(basis_05_2, call, match):
    # each names the argument, as _check_N does, not a bare ValueError,
    # TypeError, IndexError or OverflowError from NumPy or float()
    with pytest.raises(DomainError, match=match):
        call(basis_05_2)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_fft_norm_matches_direct_products(alpha):
    # the FFT autocorrelation and self-convolution against np.correlate and
    # np.convolve, from K = 1 (an FFT of length 1) up to the brownian K
    rng = np.random.default_rng(9)
    for K in (1, 2, 3, 40, 4000):
        y = rng.standard_normal(K) / np.arange(1, K + 1) ** 1.5
        assert approx.cosine_series_norm2(alpha, y) == pytest.approx(
            oracles.cosine_series_norm2(alpha, y), rel=1e-14, abs=0)


class TestPeriodicCoefficients:
    def test_k0_parity(self, basis_05_2):
        assert approx.periodic_coefficient(basis_05_2, 0, 5) == 0.0j
        val = approx.periodic_coefficient(basis_05_2, 0, 4)
        rule = specfun.gauss_jacobi(basis_05_2.alpha, 120)
        ref = complex(rule.integrate(basis_05_2.psi(4, rule.nodes, 0)[0]))
        assert val == pytest.approx(ref, abs=1e-12)

    def test_matches_quadrature(self):
        b = B.build_basis(0.5, 5.0, 30)
        rule = specfun.gauss_jacobi(b.alpha, max(b.trunc + 64, 300))
        for (k, n) in [(3, 25), (1, 10), (6, 17)]:
            mine = approx.periodic_coefficient(b, k, n)
            ref = complex(np.dot(rule.weights,
                                 np.exp(1j * k * math.pi * rule.nodes)
                                 * b.psi(n, rule.nodes, 0)[0]))
            assert abs(mine - ref) <= 1e-10

    def test_warm_slot_equals_a_cold_basis(self):
        # Python and NumPy int n and k at the kept |k| pi read the values
        # that a copy keeping nothing computes; -k reads the conjugates
        b = B.build_basis(0.5, 5.0, 20)
        cold = [approx.periodic_coefficient(dataclasses.replace(b), np.int64(3), np.int32(n))
                for n in range(b.nmax)]
        approx.periodic_coefficient(b, 3, 0)
        warm = [approx.periodic_coefficient(b, 3, n) for n in range(b.nmax)]
        warm_neg = [approx.periodic_coefficient(b, -3, n) for n in range(b.nmax)]
        assert warm == cold and warm_neg == [v.conjugate() for v in cold]
        assert all(type(v) is complex for v in warm + warm_neg)
        numpy = [approx.periodic_coefficient(b, np.int64(-3), np.int64(n)) for n in range(b.nmax)]
        assert numpy == warm_neg
        assert approx.periodic_coefficient(b, 0, 4) == approx.periodic_coefficient(
            dataclasses.replace(b), 0, 4)

    def test_warm_slot_keeps_every_refusal(self):
        b = B.build_basis(0.5, 5.0, 20)
        approx.periodic_coefficient(b, 3, 1)
        for k, n, match in [(3, 20, "basis index 20 out of range"),
                            (3, -1, "basis index -1 out of range"),
                            (-3, 2.5, "basis index 2.5 is not an integer"),
                            (3, True, "basis index True is not an integer"),
                            (3, np.int64(20), "basis index 20 out of range"),
                            (3.0, 1, r"the frequency index k=3\.0 is not an integer"),
                            ("3", 1, "the frequency index k='3' is not an integer"),
                            (True, 1, "the frequency index k=True is not an integer"),
                            (10 ** 400, 1, "not a finite double")]:
            with pytest.raises(DomainError, match=match):
                approx.periodic_coefficient(b, k, n)
        assert b._tables["periodic"][0] == 3 * math.pi

    def test_index_must_be_an_integer(self, basis_05_2):
        with pytest.raises(DomainError, match=r"^basis index 5\.0 is not an integer$"):
            approx.periodic_coefficient(basis_05_2, 3, 5.0)
        assert approx.periodic_coefficient(basis_05_2, 3, np.int64(5)) == (
            approx.periodic_coefficient(basis_05_2, 3, 5))

    def test_conjugate_symmetry(self, basis_05_2):
        v = approx.periodic_coefficient(basis_05_2, 2, 6)
        w = approx.periodic_coefficient(basis_05_2, -2, 6)
        assert w == v.conjugate()

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_all_n_equal_the_per_n_sums(self, alpha):
        # one exactly rounded pass over every n gives each n's math.fsum
        # over its own terms, bit for bit, sign of zero included
        b = B.build_basis(alpha, 5 * math.pi, 96)
        for k in (-3, 1, 64):
            for n in range(b.nmax):
                ref = oracles.fc_series(b.alpha, b.beta[n], n % 2, abs(k) * math.pi)
                ref = ref.conjugate() if k < 0 else ref
                got = approx.periodic_coefficient(b, k, n)
                assert repr(got) == repr(ref), (k, n)

    def test_geometric_decay_in_regime(self):
        # fixed k, increasing n with k <= 0.14 n and n >= m_a c
        b = B.build_basis(0.5, 5.0, 61)
        thr = B.decay_regime_multiplier(b.alpha) * b.c
        ns = np.arange(int(max(thr, 3 / 0.14)) + 1, 61)
        mags = np.array([abs(approx.periodic_coefficient(b, 3, int(n)))
                         for n in ns])
        slope = np.polyfit(ns, np.log(np.maximum(mags, 1e-300)), 1)[0]
        assert slope < 0.0


def test_user_sampled_refuses_two_dimensional_values():
    # a (5, 1) array was accepted, and its evaluator failed on every call
    with pytest.raises(DomainError, match=r"got shapes \(5,\) and \(5, 1\)"):
        approx.user_sampled(np.linspace(-1.0, 1.0, 5), np.ones((5, 1)))


def test_user_sampled_refuses_bad_shapes_and_values():
    grid = np.linspace(-1.0, 1.0, 5)
    for g, v in ((grid, np.ones(4)), (grid[:1], np.ones(1)), (grid[None], np.ones((1, 5)))):
        with pytest.raises(DomainError, match="1-D arrays of equal length >= 2"):
            approx.user_sampled(g, v)
    with pytest.raises(DomainError, match="sampled values must be finite"):
        approx.user_sampled(grid, [0.0, 1.0, math.inf, 1.0, 0.0])
