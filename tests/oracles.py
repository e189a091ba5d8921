"""Independent reference computations that the tests compare the library
against.  pytest does not collect this file; test modules ``import oracles``.

* The concentration operator (c / 2 pi) F* F applied by quadrature: the
  route to lambda_n that does not go through mu_n and the boundary identity.
* d chi_n / dc from a central finite difference of chi_n over two extra
  bases, against the exact moment 2c int x^2 psi_n^2 w_a.
* The norm of a cosine series from the two direct O(K^2) products, and the
  sup error of a projection from the N x 2001 psi table on the sup grid:
  the forms the library's FFT norm and one-series sup error replaced.
* The one-argument Hankel sum with ``math.cos`` and ``math.sin``: the
  form the array Hankel start replaced.

The other former implementations are gone: ``tests/golden/`` pins their
inputs' outputs by sha256.
"""

import math
from dataclasses import dataclass

import numpy as np

from gpswf import approx, specfun
from gpswf.basis import build_basis, moment_b


def concentration_kernel(alpha, u):
    """K_a(u) = sqrt(pi) 2^(a+1/2) Gamma(a+1) J_{a+1/2}(u) / u^(a+1/2).

    Even and entire in u; the removable singularity at u = 0 is evaluated by
    the ascending series.
    """
    u = np.abs(np.atleast_1d(np.asarray(u, dtype=float)))
    out = np.empty_like(u)
    pref = math.sqrt(math.pi) * math.exp((alpha + 0.5) * math.log(2.0)
                                         + specfun.ln_gamma(alpha + 1.0))
    small = u <= 12.0
    if np.any(small):
        us = u[small]
        # J_nu(u)/u^nu = sum_m (-1)^m u^(2m) / (2^(2m+nu) m! Gamma(m+nu+1))
        term = np.full(us.shape,
                       math.exp(-(alpha + 0.5) * math.log(2.0)
                                - specfun.ln_gamma(alpha + 1.5)))
        acc = term.copy()
        u2 = us * us
        for m in range(1, 60):
            term = -term * u2 / (4.0 * m * (m + alpha + 0.5))
            acc += term
            if np.max(np.abs(term)) < 1e-18:
                break
        out[small] = pref * acc
    if np.any(~small):
        idx = np.nonzero(~small)[0]
        nu = alpha + 0.5
        jv = specfun.bessel_j(nu, u[idx])
        for i, j in zip(idx, jv):
            out[i] = pref * j / u[i] ** nu
    return out


def apply_concentration(alpha, c, rule, values):
    """Apply (c/2pi) * the kernel integral operator to samples on a rule."""
    diff = c * (rule.nodes[:, None] - rule.nodes[None, :])
    kmat = concentration_kernel(alpha, diff.ravel()).reshape(diff.shape)
    return (c / (2.0 * math.pi)) * kmat @ (rule.weights * values)


@dataclass(frozen=True)
class DchiDcRecord:
    analytic: float
    finite_diff: float


def dchi_dc(alpha, c, n, h=None, nmax=None):
    """d chi_n / dc: analytic moment value 2c * int x^2 psi_n^2 w_a dx versus
    a central finite difference of chi_n(c +/- h) from fresh bases."""
    if h is None:
        h = 1e-4 * c
    if nmax is None:
        nmax = n + 1
    b0 = build_basis(alpha, c, nmax)
    analytic = 2.0 * c * moment_b(b0, n)
    bp = build_basis(alpha, c + h, nmax)
    bm = build_basis(alpha, c - h, nmax)
    fd = (float(bp.chi[n]) - float(bm.chi[n])) / (2.0 * h)
    return DchiDcRecord(analytic=analytic, finite_diff=fd)


def cosine_series_norm2(alpha, weighted_amplitudes):
    """||sum_k y_k cos(k pi x)||^2 in L2(w_a), via exact cosine transforms:
    <cos(j pi .), cos(k pi .)>_w = (W(|j-k| pi) + W((j+k) pi)) / 2."""
    y = np.asarray(weighted_amplitudes, dtype=float)
    K = y.size
    w = approx._cos_transform_table(alpha, 2 * K)
    auto = np.correlate(y, y, mode="full")  # lags -(K-1)..K-1
    w_diff = w[:K]
    norm2 = 0.5 * float(auto[K - 1] * w_diff[0]
                        + 2.0 * np.dot(auto[K:], w_diff[1:]))
    w_sum = w[2:]
    pair = np.convolve(y, y, mode="full")  # index d holds sum_{j+k=d+2} y y
    norm2 += 0.5 * float(np.dot(pair, w_sum))
    return norm2


def sup_error_table(basis, f, coeffs):
    """max |f - sum_n coeffs_n psi_n| on the sup grid, from the psi table."""
    grid = approx._SUP_GRID
    return float(np.max(np.abs(f(grid)
                               - coeffs @ basis.psi_table(grid, range(coeffs.size)))))


def _hankel_j(nu, x):
    """Large-argument asymptotic J_nu(x); needs x >> nu^2 (small nu here)."""
    mu = 4.0 * nu * nu
    inv8x = 0.125 / x
    p = 1.0
    q = 0.0
    term = 1.0
    sign = 1.0
    prev = math.inf
    k = 1
    while k <= 40:
        term *= (mu - (2 * k - 1) ** 2) * inv8x / k
        if abs(term) > prev:
            break  # asymptotic series started diverging; stop at smallest term
        prev = abs(term)
        if k % 2 == 1:
            q += sign * term
        else:
            sign = -sign
            p += sign * term
        if abs(term) < 1e-18:
            break
        k += 1
    theta = (0.5 * nu + 0.25) * math.pi
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cos_w = math.cos(x) * cos_t + math.sin(x) * sin_t
    sin_w = math.sin(x) * cos_t - math.cos(x) * sin_t
    return math.sqrt(2.0 / (math.pi * x)) * (p * cos_w - q * sin_w)

