import math

import numpy as np
import pytest

from gpswf import basis as B
from gpswf import specfun, spectral
from gpswf.errors import ConsistencyError, DomainError


@pytest.fixture(scope="module")
def basis_05_2():
    return B.build_basis(0.5, 2.0, 24)


@pytest.fixture(scope="module")
def spectrum_05_2(basis_05_2):
    return spectral.compute_spectrum(basis_05_2)


def quad_transform(alpha, c, values_fn, x, order=220):
    """Direct quadrature of int e^{icxy} f(y) w_a(y) dy."""
    rule = specfun.gauss_jacobi(alpha, order)
    return complex(np.dot(rule.weights,
                          np.exp(1j * c * x * rule.nodes) * values_fn(rule.nodes)))


class TestFcOnJacobi:
    def test_constant_mode_is_sinc(self):
        # alpha = 0: int e^{icxy} dy = 2 sin(cx)/(cx); Jt_0 = 1/sqrt(2)
        c, x = 2.0, 0.63
        val = spectral.fc_on_jacobi(0.0, c, 0, x)
        ref = (2.0 * math.sin(c * x) / (c * x)) / math.sqrt(2.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
    def test_matches_quadrature(self, k):
        alpha, c, x = 0.6, 3.0, 0.41
        mine = spectral.fc_on_jacobi(alpha, c, k, x)
        ref = quad_transform(alpha, c,
                             lambda y: specfun.jacobi_table(alpha, k, y)[k], x)
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_magnitude_within_bessel_envelope(self):
        # |F_c Jt_k(x)| <= sqrt(pi) (c/2)^k G(k+a+1) |x|^k
        #                  / (G(k+1) G(k+a+3/2) sqrt(h_k))
        alpha, c = 0.5, 4.0
        for k in range(8):
            for x in (0.2, 0.7, 1.0):
                val = abs(spectral.fc_on_jacobi(alpha, c, k, x))
                hk = (2.0 ** (2 * alpha + 1) * math.gamma(k + alpha + 1) ** 2
                      / (math.factorial(k) * (2 * k + 2 * alpha + 1)
                         * math.gamma(k + 2 * alpha + 1)))
                bound = (math.sqrt(math.pi) * (c * x / 2.0) ** k
                         * math.gamma(k + alpha + 1)
                         / (math.gamma(k + 1) * math.gamma(k + alpha + 1.5)
                            * math.sqrt(hk)))
                assert val <= bound * (1 + 1e-12)

    def test_parity_and_origin(self):
        alpha, c = 0.3, 2.0
        for k in (1, 3):
            assert spectral.fc_on_jacobi(alpha, c, k, 0.0) == 0.0j
            v = spectral.fc_on_jacobi(alpha, c, k, 0.5)
            assert spectral.fc_on_jacobi(alpha, c, k, -0.5) == -v
        for k in (0, 2, 4):
            v = spectral.fc_on_jacobi(alpha, c, k, 0.5)
            assert spectral.fc_on_jacobi(alpha, c, k, -0.5) == v
        assert spectral.fc_on_jacobi(alpha, c, 2, 0.0) == 0.0j
        v0 = spectral.fc_on_jacobi(alpha, c, 0, 0.0)
        ref = quad_transform(alpha, c, lambda y: specfun.jacobi_table(alpha, 0, y)[0], 0.0)
        assert v0 == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            spectral.fc_on_jacobi(0.5, -1.0, 0, 0.3)
        with pytest.raises(DomainError):
            spectral.fc_on_jacobi(0.5, 2.0, 0, 1.4)


def test_fc_terms_are_read_only():
    terms = spectral._fc_terms(0.5, 12, 3.7)
    with pytest.raises(ValueError):
        terms[0] = 1.0
    assert spectral._fc_terms(0.5, 12, 3.7) is terms


def test_fc_term_rows_bitwise_equal_fc_terms():
    u = [0.4, 369.0, 371.0, 900.0]
    rows = spectral._fc_term_rows(1.5, 60, u)
    for x, row in zip(u, rows):
        assert row.tobytes() == spectral._fc_terms(1.5, 60, x).tobytes()


class TestSpectrum:
    def test_lambda_identity_and_range(self, basis_05_2, spectrum_05_2):
        for e in spectrum_05_2:
            assert e.lam == pytest.approx(
                basis_05_2.c / (2 * math.pi) * e.mu_abs ** 2, rel=1e-12)
            assert 0.0 < e.lam <= 1.0 + 1e-12
        lams = [e.lam for e in spectrum_05_2]
        assert all(b < a * (1 + 1e-12) for a, b in zip(lams, lams[1:]))

    def test_phase_is_i_to_n(self, spectrum_05_2):
        for e in spectrum_05_2:
            assert abs(e.mu_phase - 1j ** (e.n % 4)) < 1e-8

    def test_mu_against_direct_quadrature(self, basis_05_2, spectrum_05_2):
        b = basis_05_2
        for n in (0, 1, 2, 5, 9):
            x0 = 0.4
            direct = quad_transform(b.alpha, b.c,
                                    lambda y: b.psi(n, y, 0)[0], x0)
            mu_direct = direct / b.psi(n, np.array([x0]), 0)[0, 0]
            e = spectrum_05_2[n]
            assert abs(mu_direct - e.mu_abs * e.mu_phase) < 1e-13 + 1e-9 * e.mu_abs

    def test_probe_spread_enforced(self, spectrum_05_2):
        for e in spectrum_05_2[:13]:
            assert e.probe_spread <= 1e-8 * e.mu_abs

    def test_partial_trace(self, basis_05_2, spectrum_05_2):
        total = spectral.kernel_trace(basis_05_2.alpha, basis_05_2.c)
        tail = spectral.lambda_bound_tail(basis_05_2.alpha, basis_05_2.c,
                                          basis_05_2.nmax)
        partial = sum(e.lam for e in spectrum_05_2)
        assert abs(partial - total) <= 1e-6 + tail

    def test_trace_alpha0_closed_form(self):
        # (c/2)(G(1)/G(3/2))^2 = 2c/pi
        assert spectral.kernel_trace(0.0, 3.0) == pytest.approx(
            6.0 / math.pi, rel=1e-13)

    def test_probe_failure_raises(self, basis_05_2):
        # artificially corrupt one coefficient vector: probes must disagree
        import dataclasses

        bad_beta = list(basis_05_2.beta)
        vec = bad_beta[4].copy()
        vec[1] += 0.01  # mix a neighboring mode into one eigenvector
        vec /= np.linalg.norm(vec)
        bad_beta[4] = vec
        bad = dataclasses.replace(basis_05_2, beta=tuple(bad_beta))
        with pytest.raises(ConsistencyError):
            spectral.compute_spectrum(bad, validate_phase=False)


class TestDecayBounds:
    def test_constants_alpha0(self):
        assert spectral.mu_decay_constant(0.0) == pytest.approx(
            2.3114546995818434, rel=1e-13)

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 3.0, 10).tolist())
    def test_constant_identity(self, alpha):
        # K_a = k_a^2 / (2 pi): the lambda bound is (c/2pi) (mu bound)^2
        assert spectral.lambda_decay_constant(alpha) == pytest.approx(
            spectral.mu_decay_constant(alpha) ** 2 / (2 * math.pi), rel=1e-12)

    def test_bounds_hold_on_pipeline(self):
        b = B.build_basis(1.0, 5.0, 41)
        for e in spectral.compute_spectrum(b):
            if e.n > (math.e * 5.0 + 1) / 2:
                assert e.bound.applicable
                assert e.bound.margin_mu >= 0.0
                assert e.bound.margin_lambda >= 0.0
            else:
                assert not e.bound.applicable

    def test_inapplicable_below_threshold(self, spectrum_05_2):
        thr = (math.e * 2.0 + 1.0) / 2.0
        for e in spectrum_05_2:
            assert e.bound.applicable == (e.n > thr)


class TestOperator:
    def test_kernel_small_argument_limit(self):
        alpha = 0.8
        val = spectral.concentration_kernel(alpha, np.array([0.0]))[0]
        ref = (math.sqrt(math.pi) * math.gamma(alpha + 1.0)
               / math.gamma(alpha + 1.5))
        assert val == pytest.approx(ref, rel=1e-13)

    def test_kernel_large_argument_bitwise(self):
        # the u > 12 branch from batched ladders against the scalar formula
        alpha = 1.3
        u = np.array([12.5, 100.0, 369.9, 370.1, 5000.0])
        nu = alpha + 0.5
        pref = math.sqrt(math.pi) * math.exp((alpha + 0.5) * math.log(2.0)
                                             + specfun.ln_gamma(alpha + 1.0))
        ref = np.array([pref * specfun.bessel_j(nu, x) / x ** nu for x in u])
        assert spectral.concentration_kernel(alpha, u).tobytes() == ref.tobytes()

    def test_kernel_even(self):
        alpha = 0.4
        u = np.array([0.3, 1.7, 9.0])
        np.testing.assert_allclose(spectral.concentration_kernel(alpha, u),
                                   spectral.concentration_kernel(alpha, -u),
                                   rtol=0)

    def test_eigen_residual(self, basis_05_2, spectrum_05_2):
        b = basis_05_2
        rule = specfun.gauss_jacobi(b.alpha, 2 * b.trunc + 16)
        for n in range(0, 21, 4):
            vals = b.psi(n, rule.nodes, 0)[0]
            image = spectral.apply_concentration(b.alpha, b.c, rule, vals)
            resid = image - spectrum_05_2[n].lam * vals
            rnorm = math.sqrt(float(rule.integrate(resid ** 2)))
            assert rnorm <= 1e-8

    def test_nested_transform_consistency(self, basis_05_2, spectrum_05_2):
        # (c/2pi) F* F psi_n by two nested quadratures
        b = basis_05_2
        rule = specfun.gauss_jacobi(b.alpha, 160)
        n = 3
        psi_n = b.psi(n, rule.nodes, 0)[0]
        inner = np.exp(1j * b.c * np.outer(rule.nodes, rule.nodes)) @ (
            rule.weights * psi_n)
        outer = np.exp(-1j * b.c * np.outer(rule.nodes, rule.nodes)) @ (
            rule.weights * inner)
        image = b.c / (2 * math.pi) * outer
        resid = image - spectrum_05_2[n].lam * psi_n
        rnorm = math.sqrt(abs(float(rule.integrate(np.abs(resid) ** 2))))
        assert rnorm <= 1e-8


class TestDchiDc:
    def test_positive_and_bounded(self):
        rec = spectral.dchi_dc(0.5, 2.0, 3)
        assert rec.analytic > 0.0
        assert rec.analytic <= 2.0 * 2.0  # 2c since B <= 1

    def test_finite_difference_agreement(self):
        rec = spectral.dchi_dc(0.5, 3.0, 5)
        assert rec.finite_diff == pytest.approx(rec.analytic, rel=1e-5)
