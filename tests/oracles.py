"""Independent reference computations that the tests compare the library
against.  pytest does not collect this file; test modules ``import oracles``.

* The concentration operator (c / 2 pi) F* F applied by quadrature: the
  route to lambda_n that does not go through mu_n and the boundary identity.
* d chi_n / dc from a central finite difference of chi_n over two extra
  bases, against the exact moment 2c int x^2 psi_n^2 w_a.
"""

import math
from dataclasses import dataclass

import numpy as np

from gpswf import specfun
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
