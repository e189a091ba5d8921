import math
import sys
from concurrent.futures import ThreadPoolExecutor

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

    def test_user_sampled_interpolates(self):
        grid = np.linspace(-1, 1, 21)
        f = approx.user_sampled(grid, grid ** 2)
        assert f(np.array([0.5]))[0] == pytest.approx(0.25, abs=3e-3)

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
                    {"kind": "brownian", "s": "abc"}, {"kind": "periodic", "k": 1.5}):
            with pytest.raises(DomainError):
                approx.target_from_config(bad)


def _cos_amplitudes(f):
    return f.params["amplitudes"] / np.arange(1, f.params["K"] + 1.0) ** f.params["s"]


def _blocked_sum(y, x, order=0):
    # the direct cosine sum in 512-frequency blocks, as the generic path does
    k = np.arange(1, y.size + 1, dtype=float)
    scaled = y * (math.pi * k) ** order
    out = np.zeros(x.size)
    for lo in range(0, y.size, 512):
        out += scaled[lo:lo + 512] @ np.cos(
            math.pi * np.outer(k[lo:lo + 512], x) + 0.5 * math.pi * order)
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

    def test_derivative_order0_is_the_evaluator(self):
        f = approx.brownian(1.5, seed=3, K=700)
        y = _cos_amplitudes(f)
        grid = np.linspace(-1.0, 1.0, 301)[1:-1]
        gauss = specfun.gauss_jacobi(1.0, 90).nodes
        for x in (grid, gauss, np.array([0.3]), approx._SUP_GRID):
            np.testing.assert_array_equal(f.derivative(x, 0), f(x))
        # higher orders keep the direct sum, on the grid too
        for x in (grid, gauss):
            np.testing.assert_array_equal(f.derivative(x, 2), _blocked_sum(y, x, 2))


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
                    b.full_coefficients(n)[0], abs=1e-12)
        assert all(b2 <= a2 + 1e-15 for a2, b2 in zip(errs, errs[1:]))

    def test_parseval_inequality(self, basis_05_2):
        f = approx.brownian(1.5, seed=3, K=800)
        pr = approx.project(basis_05_2, f, basis_05_2.nmax)
        rule = specfun.gauss_jacobi(basis_05_2.alpha, basis_05_2.trunc + 64)
        norm2 = float(rule.integrate(f(rule.nodes) ** 2))
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
        # S_N f on the sup grid is one series: one column for a real target,
        # two (real and imaginary part) for a complex one, never N columns
        columns = []
        series = backend.jacobi_series

        def counting(coef, rec, p0, x, nderiv=0):
            if np.size(x) == approx._SUP_GRID.size:
                columns.append(np.shape(coef)[1])
            return series(coef, rec, p0, x, nderiv)

        monkeypatch.setattr(backend, "jacobi_series", counting)
        approx.project(basis_wm, approx.weierstrass_mandelbrot(0.5, 2.0, K=8), 20)
        approx.project(basis_wm, approx.periodic_exponential(3), 20)
        assert columns == [1, 2]

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

    def test_range_and_config_errors(self, basis_05_2):
        f = approx.brownian(1.5, seed=3, K=10)
        with pytest.raises(DomainError):
            approx.project(basis_05_2, f, basis_05_2.nmax + 5)
        with pytest.raises(DomainError):
            approx.project(basis_05_2, f, 4, quad_order=8)


class TestWmCoefficients:
    def test_even_coefficients_vanish(self, basis_wm):
        for n in range(0, 22, 2):
            assert approx.wm_all_coefficients(basis_wm, 1.0, 2.0, n + 1)[n] == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_closed_form_matches_quadrature(self, basis_wm, s):
        # identical K-term truncations on both routes
        K = 8
        f = approx.weierstrass_mandelbrot(s, 2.0, K=K)
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

    def test_projection_error_parseval_route(self, basis_wm):
        # coefficient-space error equals the quadrature residual norm
        K = 8
        f = approx.weierstrass_mandelbrot(1.0, 2.0, K=K)
        pr = approx.project(basis_wm, f, 20,
                            quad_order=max(basis_wm.trunc + 64, 400))
        err = approx.wm_projection_error(basis_wm, 1.0, 2.0, 20, K=K)
        assert err == pytest.approx(pr.l2w_error, rel=1e-6)

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
                                         (1.0, math.inf, None), (1.0, math.inf, 5)])
    def test_domain(self, basis_wm, s, lam, K):
        # lambda <= 1, s > 1, either not finite, and K outside 1.._MAX_TERMS,
        # as in weierstrass_mandelbrot
        with pytest.raises(DomainError):
            approx.weierstrass_mandelbrot(s, lam, K)
        with pytest.raises(DomainError):
            approx.wm_l2_norm_squared(basis_wm.alpha, s, lam, K)
        with pytest.raises(DomainError):
            approx.wm_all_coefficients(basis_wm, s, lam, 12, K=K)
        with pytest.raises(DomainError):
            approx.wm_projection_error(basis_wm, s, lam, 12, K=K)


def _clear_wm_caches():
    for cached in (approx._wm_l2_norm_squared, approx._wm_pair_transforms,
                   approx._wm_term_rows):
        cached.cache_clear()


def _fresh_term_rows(alpha, kmax, lam, lo, hi):
    # the rows from one uncached ladder call
    return spectral._fc_term_rows(alpha, kmax, [float(lam ** k) for k in np.arange(lo, hi)])


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
    """The WM pair transforms and term rows shared across s, and the cosine
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
            coefs = b.full_coefficients(range(1, 95, 2))
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
        kmax = basis_wm.full_coefficients(range(1, 12, 2)).shape[1] - 1
        for lo, hi in ((0, 100), (0, 512), (0, 40), (512, 600), (512, K),
                       (512, 530)):
            assert (approx._wm_term_rows(0.5, kmax, 1.03, lo, hi).tobytes()
                    == _fresh_term_rows(0.5, kmax, 1.03, lo, hi).tobytes())

    @pytest.mark.parametrize("k_max", [1, 255, 256, 257, 4000])
    def test_cosine_table_across_batches(self, brownian_table, k_max):
        # a row reads the same whichever 256-frequency batch computes it
        b, longer = brownian_table
        assert (approx.cosine_transform_table(b, k_max, 91).tobytes()
                == longer[:k_max].tobytes())

    def test_pair_table_grows_by_the_missing_arguments(self, monkeypatch):
        _clear_wm_caches()
        calls = []
        transforms = approx._cos_transforms
        monkeypatch.setattr(approx, "_cos_transforms",
                            lambda a, u: calls.append(len(u)) or transforms(a, u))

        def args(K):
            f = 2.0 ** np.arange(K)
            return set(np.abs(np.subtract.outer(f, f)).ravel().tolist()
                       + np.add.outer(f, f).ravel().tolist())

        for K in (24, 41, 27):
            approx.wm_l2_norm_squared(0.5, 0.5, 2.0, K)
        assert calls == [len(args(24)), len(args(41) - args(24))]

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
        # j pi crosses the Miller/upward switch at 370 near j = 118
        w = approx._cos_transform_table(1.5, 300)
        ref = np.array([approx._cos_transforms(1.5, [j * math.pi])[0] for j in range(301)])
        assert w.tobytes() == ref.tobytes()
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_cosine_transform_table_bitwise(self, basis_05_2):
        b = basis_05_2
        table = approx.cosine_transform_table(b, 300, 6)
        coefs = np.stack([b.full_coefficients(n) for n in (0, 2, 4)])
        kmax = coefs.shape[1] - 1
        for k in (1, 64, 65, 117, 118, 300):
            ref = coefs @ spectral._fc_terms(b.alpha, kmax, k * math.pi)
            assert table[k - 1, [0, 2, 4]].tobytes() == ref.tobytes()
        assert not np.any(table[:, 1::2])


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

    def test_conjugate_symmetry(self, basis_05_2):
        v = approx.periodic_coefficient(basis_05_2, 2, 6)
        w = approx.periodic_coefficient(basis_05_2, -2, 6)
        assert w == v.conjugate()

    def test_geometric_decay_in_regime(self):
        # fixed k, increasing n with k <= 0.14 n and n >= m_a c
        b = B.build_basis(0.5, 5.0, 61)
        thr = B.decay_regime_multiplier(b.alpha) * b.c
        ns = np.arange(int(max(thr, 3 / 0.14)) + 1, 61)
        mags = np.array([abs(approx.periodic_coefficient(b, 3, int(n)))
                         for n in ns])
        slope = np.polyfit(ns, np.log(np.maximum(mags, 1e-300)), 1)[0]
        assert slope < 0.0


class TestSobolevNorms:
    def test_single_jacobi_mode(self):
        coeffs = np.zeros(6)
        coeffs[5] = 1.0
        out = approx.sobolev_norm(coeffs, 1.0, "jacobi_coefficient", alpha=0.0)
        assert out.value == pytest.approx(1.0 + (5 * 6) ** 2, rel=1e-15)

    def test_single_periodic_mode(self):
        out = approx.sobolev_norm(np.array([1.0]), 1.0, "periodic_fourier",
                                  k_values=[1])
        assert out.value == pytest.approx(1.0 + math.pi ** 2, rel=1e-15)

    def test_s0_doubles_jacobi_mass(self):
        out = approx.sobolev_norm(np.array([1.0, 2.0]), 0.0,
                                  "jacobi_coefficient", alpha=0.3)
        assert out.value == pytest.approx(10.0, rel=1e-15)

    def test_s0_periodic_is_plain_mass(self):
        out = approx.sobolev_norm(np.array([1.0, 2.0]), 0.0,
                                  "periodic_fourier", k_values=[0, 4])
        assert out.value == pytest.approx(5.0, rel=1e-15)

    def test_dominates_l2(self):
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=12)
        l2 = float(np.sum(coeffs ** 2))
        for s in (0.0, 0.5, 1.5):
            out = approx.sobolev_norm(coeffs, s, "jacobi_coefficient", alpha=0.7)
            assert out.value >= l2

    def test_magnitude_error(self):
        with pytest.raises(DomainError):
            approx.sobolev_norm(np.full(400, 1e200), 3.0,
                                "jacobi_coefficient", alpha=0.0)

    def test_derivative_norm_exponential_mode(self):
        # f = e^{i pi x}: ||f^(j)||^2 = pi^(2j) * mass(alpha)
        alpha = 0.5
        f = approx.periodic_exponential(1)
        val = approx.derivative_sobolev_norm(f, 2, alpha)
        mass = specfun.weight_mass(alpha)
        ref = mass * (1.0 + math.pi ** 2 + math.pi ** 4)
        assert val == pytest.approx(ref, rel=1e-12)


def jacobi_mode_target(alpha, k):
    def ev(x):
        return specfun.jacobi_table(alpha, k, np.asarray(x, float))[k]

    def dv(x, order):
        tab = specfun.jacobi_table(alpha, k, np.asarray(x, float),
                                   nderiv=max(order, 1))
        return tab[order][k]

    return approx.TargetFunction(kind="jacobi_mode", params={"k": k},
                                 evaluator=ev, derivative=dv)


class TestRateCheckers:
    def test_tail_ratio_bounded_for_smooth_mode(self, basis_05_2):
        f = jacobi_mode_target(basis_05_2.alpha, 4)
        rep = approx.chi_tail_error_check(basis_05_2, f, 1,
                                          [5, 7, 9, 11, 13, 15])
        assert rep.max_ratio <= 10.0
        assert all(t2 < t1 for t1, t2 in zip(rep.tail_factors,
                                             rep.tail_factors[1:]))
        assert rep.slope <= -2.0 + 0.2

    def test_rate_check_entire_function(self):
        b = B.build_basis(0.5, 2.0, 40)
        f = approx.periodic_exponential(1)
        hs = math.sqrt(approx.sobolev_norm(
            np.array([math.sqrt(2.0)]), 2.0, "periodic_fourier",
            k_values=[1]).value)
        rep = approx.projection_rate_check(b, f, 2.0, [8, 12, 16, 20, 28, 36], hs)
        assert rep.rate_positive
        assert rep.holds

    def test_rate_check_regime_gate(self):
        b = B.build_basis(0.5, 2.0, 40)
        thr = B.decay_regime_multiplier(b.alpha) * b.c
        f = approx.periodic_exponential(1)
        rep = approx.projection_rate_check(b, f, 2.0, [2, 3, 30], 1.0)
        for N, app in zip(rep.N_list, rep.applicable):
            assert app == (N > thr)

    def test_rate_check_rough_series_algebraic_regime(self):
        # random cosine series: the algebraic term dominates at moderate N
        b = B.build_basis(1.5, 2.0, 40)
        f = approx.brownian(1.5, seed=11, K=400)
        amps = f.params["amplitudes"]
        k = np.arange(1, 401, dtype=float)
        b_coeffs = np.concatenate([[0.0], amps / k ** 1.5 / math.sqrt(2.0)])
        # b_k(f) = (1/sqrt(2)) int f e^{-i pi k x} = X_k / (sqrt(2) k^s), both signs
        k_values = np.concatenate([np.arange(0, 401), -np.arange(1, 401)])
        coeffs = np.concatenate([b_coeffs, b_coeffs[1:]])
        s = 0.9  # below the regularity ceiling s - 1/2 = 1
        hs = math.sqrt(approx.sobolev_norm(coeffs, s, "periodic_fourier",
                                           k_values=k_values).value)
        rep = approx.projection_rate_check(b, f, s, [14, 18, 24, 30, 36], hs)
        assert rep.holds
        for err, alg, app in zip(rep.errors, rep.algebraic, rep.applicable):
            if app:
                assert err <= alg  # dominated by the algebraic term
